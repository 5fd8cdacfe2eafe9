"""A superseded commit state keeps its transaction id for its two commit
events (``SystemState.supersede``), and reads as it did while current.

Every row compares a state's ``events`` with the tuple it held when it
was the newest state — element by element and by ``str``, so an equal
event that prints differently would show — on each path a past state is
read through: the engine's own history, ``with_index`` / ``with_events``,
the state codec, a WAL replay, a tier fault and a checkpoint restore.
"""

import json
import math
import sys
import time

import pytest

from repro import _value
from repro.engine import ActiveDatabase
from repro.errors import TransactionAborted
from repro.events.model import (
    Event,
    attempts_to_commit,
    insert_tuple,
    transaction_abort,
    transaction_commit,
    user_event,
)
from repro.history.history import SystemHistory
from repro.history.spill import attach_tiered_history
from repro.history.state import SystemState
from repro.recovery import RecoveryManager, recover
from repro.storage.persist import encode_state
from repro.storage.snapshot import DatabaseState
from repro.workloads.stock import STOCK_SCHEMA, apply_tick


def same(events, held):
    """``events`` is ``held``, in order and as printed."""
    assert tuple(events) == held
    assert [str(e) for e in events] == [str(e) for e in held]


def setup(adb):
    manager = adb.rule_manager()
    manager.add_integrity_constraint("positive", "price(IBM) >= 0")
    return manager


def stock_engine(begin_states=False):
    adb = ActiveDatabase(begin_states=begin_states)
    adb.create_relation("STOCK", STOCK_SCHEMA, [("IBM", 50.0, "IBM", "tech")])
    adb.define_query(
        "price", ["name"], "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name"
    )
    return adb


def drive(adb, n=40):
    """Ticks (a commit's two events plus ``update_item('STOCK')`` and
    ``update_stocks``), IC vetoes, a user abort, inserts, user events and
    clock ticks, in a fixed order."""
    for i in range(n):
        kind = i % 8
        if kind == 3:
            with pytest.raises(TransactionAborted):
                apply_tick(adb, "IBM", -1.0)
        elif kind == 5:
            adb.post_event(user_event("login", "X"))
        elif kind == 6:
            txn = adb.begin()
            txn.insert("STOCK", (f"N{i}", float(i), "new", "tech"))
            txn.post_event(user_event("listed", i))
            txn.commit()
        elif kind == 7 and i % 16 == 7:
            adb.begin().abort()
        elif kind == 7:
            adb.tick()
        else:
            apply_tick(adb, "IBM", 40.0 + i)


class Recorder:
    """What every state held, and the record the codec wrote for it, at
    the moment it was published (the newest state of its history)."""

    def __init__(self, adb):
        self.held, self.records = {}, {}
        self.prev_db = adb.state
        adb.bus.subscribe(self)

    def __call__(self, state):
        self.held[state.index] = state.events
        self.records[state.index] = json.dumps(
            encode_state(state, self.prev_db), sort_keys=True
        )
        self.prev_db = state.db


def recorded_engine(begin_states=False):
    adb = stock_engine(begin_states)
    setup(adb)
    recorder = Recorder(adb)
    drive(adb)
    return adb, recorder


class TestEngineBuilt:
    @pytest.mark.parametrize("begin_states", [False, True])
    def test_reads_what_it_held(self, begin_states):
        adb, recorder = recorded_engine(begin_states)
        assert len(adb.history) == len(recorder.held)
        for state in adb.history:
            same(state.events, recorder.held[state.index])
            same(state.with_index(state.index + 1).events, state.events)
            same(state.with_events(state.events).events, state.events)

    def test_commit_states_keep_their_txn(self):
        adb, recorder = recorded_engine()
        *past, last = adb.history
        commits = [s for s in past if s.is_commit_point()]
        assert commits and all(s._txn is not None for s in commits)
        assert last._txn is None and last._events is recorder.held[last.index]
        for state in commits:
            assert state.committed_txn() == state._txn
            assert state.commit_events() == [transaction_commit(state._txn)]
            assert len(state._events) == len(state.events) - 2

    def test_abort_and_event_states_are_left_as_they_were(self):
        adb, recorder = recorded_engine(begin_states=True)
        others = [s for s in adb.history if not s.is_commit_point()]
        names = {e.name for s in others for e in s.events}
        assert {"transaction_abort", "transaction_begin", "login"} <= names
        assert "clock_tick" in names
        for state in others:
            assert state._txn is None
            assert state._events is recorder.held[state.index]
            assert state.committed_txn() is None

    def test_consecutive_ticks_share_the_other_events(self):
        adb = stock_engine()
        for i in range(4):
            apply_tick(adb, "IBM", 40.0 + i)
        first, second, third, _ = adb.history
        assert first._events is second._events is third._events
        assert [str(e) for e in first._events] == [
            "update_item('STOCK')", "update_stocks",
        ]

    def test_encode_state_writes_the_same_bytes(self):
        adb, recorder = recorded_engine()
        prev_db = None
        for state in adb.history:
            if prev_db is not None:
                record = json.dumps(encode_state(state, prev_db), sort_keys=True)
                assert record == recorder.records[state.index]
            prev_db = state.db


class TestRecoveredAndTiered:
    def test_wal_tier_and_checkpoint_paths(self, tmp_path):
        adb = stock_engine()
        manager = setup(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        attach_tiered_history(
            adb, tmp_path / "segments", budget_bytes=1 << 40, fsync=False,
            manager=manager,
        )
        recorder = Recorder(adb)
        drive(adb)
        manager.flush()
        count = len(adb.history)

        replayed = rm.audit().history
        assert len(replayed) == count
        for state in replayed:
            same(state.events, recorder.held[state.index])
        assert any(s._txn is not None for s in replayed)

        assert adb.history.spill(keep_hot=4) == count - 4
        for position in range(count):
            state = adb.history[position]
            same(state.events, recorder.held[state.index])

        rm.checkpoint(adb, manager)
        rm.stop()
        manager.detach()
        restored = recover(tmp_path, setup=setup).engine
        assert len(restored.history) == count
        for state in restored.history:
            same(state.events, recorder.held[state.index])
        apply_tick(restored, "IBM", 77.0)
        apply_tick(restored, "IBM", 78.0)
        tick = restored.history[-2]
        assert tick._txn is not None
        assert [e.name for e in tick.events] == [
            "attempts_to_commit", "transaction_commit", "update_item",
            "update_stocks",
        ]


class TestEqualEventsThatPrintDifferently:
    """``x(1)``, ``x(1.0)`` and ``x(True)`` are equal events that print
    differently: consecutive commits holding them keep their own events,
    so each reads back as it was posted, also once spilled and restored."""

    PARAMS = [1, 1.0, True, 1, 1.0]

    def expected(self, txn, param):
        return [
            f"attempts_to_commit({txn})",
            f"transaction_commit({txn})",
            f"x({param!r})",
        ]

    def test_in_a_history(self):
        db = DatabaseState({})
        history = SystemHistory()
        states = [
            history.append(
                SystemState(
                    db,
                    [user_event("x", p), attempts_to_commit(t),
                     transaction_commit(t)],
                    t,
                )
            )
            for t, p in enumerate(self.PARAMS, 1)
        ]
        history.append(SystemState(db, [user_event("next")], 99))
        for t, (state, p) in enumerate(zip(states, self.PARAMS), 1):
            assert state._txn == t
            assert [str(e) for e in state.events] == self.expected(t, p)

    def test_spilled_and_restored(self, tmp_path):
        adb = ActiveDatabase()
        manager = adb.rule_manager()
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        attach_tiered_history(
            adb, tmp_path / "segments", budget_bytes=1 << 40, fsync=False,
            manager=manager,
        )
        for p in self.PARAMS:
            txn = adb.begin()
            txn.post_event(user_event("x", p))
            txn.commit()
        adb.post_event(user_event("next"))
        count = len(adb.history)

        def read(history):
            return [
                [str(e) for e in history[i].events if e.name == "x"]
                for i in range(count)
                if history[i].is_commit_point()
            ]

        posted = [[f"x({p!r})"] for p in self.PARAMS]
        assert read(adb.history) == posted
        assert adb.history.spill(keep_hot=1) == count - 1
        assert read(adb.history) == posted
        rm.checkpoint(adb, manager)
        rm.stop()
        manager.detach()
        restored = recover(tmp_path, setup=ActiveDatabase.rule_manager).engine
        assert read(restored.history) == posted


class TestWhatStaysWhole:
    """States that are not exactly one ``attempts_to_commit(t)`` and one
    ``transaction_commit(t)`` of an ``int`` ``t`` keep their tuple."""

    @pytest.mark.parametrize(
        "events",
        [
            [attempts_to_commit(5), transaction_abort(5)],
            [transaction_commit(5), user_event("go")],
            [attempts_to_commit(5), transaction_commit(6)],
            [attempts_to_commit("t5"), transaction_commit("t5")],
            [attempts_to_commit(True), transaction_commit(True)],
            [attempts_to_commit(5), transaction_commit(5.0)],
            [Event("attempts_to_commit", (5, 1)),
             Event("transaction_commit", (5, 1))],
            # Prints as attempts_to_commit(5) and sorts ahead of it: the
            # rebuilt tuple would put them the other way round.
            [Event("attempts_to_commit(5)"), attempts_to_commit(5),
             transaction_commit(5)],
        ],
        ids=[
            "abort", "no-attempt", "two-txns", "str-id", "bool-id",
            "float-commit", "two-params", "same-str",
        ],
    )
    def test_left_as_it_was(self, events):
        db = DatabaseState({})
        history = SystemHistory(validate_transaction_time=False)
        state = history.append(SystemState(db, events, 1))
        held = state._events
        history.append(SystemState(db, [user_event("next")], 2))
        assert state._txn is None and state._events is held
        same(state.events, held)

    def test_a_single_commit_is_compacted(self):
        db = DatabaseState({})
        history = SystemHistory()
        state = history.append(
            SystemState(
                db, [user_event("z"), transaction_commit(5),
                     Event("b", (1,)), attempts_to_commit(5)], 1,
            )
        )
        held = state.events
        history.append(SystemState(db, [user_event("next")], 2))
        assert state._txn == 5 and len(state._events) == 2
        same(state.events, held)
        assert [str(e) for e in held] == [
            "attempts_to_commit(5)", "b(1)", "transaction_commit(5)", "z",
        ]


class TestEventsAreDeduplicatedWithoutHashing:
    """The constructor keeps the first of each group of equal events, as
    ``dict.fromkeys`` did, and hashes none of them."""

    NAN = math.nan

    @pytest.mark.parametrize(
        "events",
        [
            [Event("x", (1,)), Event("x", (1.0,)), Event("y"), Event("x", (1,))],
            [Event("x", (1.0,)), Event("x", (True,)), Event("x", (1,))],
            [Event("n", (NAN,)), Event("n", (NAN,)), Event("n", (math.nan,))],
            [user_event("a"), user_event("a"), Event("a"), Event("b")],
            [Event("c", (2,)), Event("c", (1,)), Event("c", (2,))],
        ],
    )
    def test_keeps_what_dict_fromkeys_kept(self, events, monkeypatch):
        expected = tuple(sorted(dict.fromkeys(events), key=str))

        def unhashable(event):
            raise AssertionError("an event was hashed")

        monkeypatch.setattr(Event, "__hash__", unhashable)
        state = SystemState(DatabaseState({}), events, 1)
        monkeypatch.undo()
        assert len(state.events) == len(expected)
        assert all(a is b for a, b in zip(state.events, expected))

    def test_a_10k_insert_commit_is_linear(self):
        events = [
            insert_tuple("STOCK", (f"N{i}", float(i), "new", "tech"))
            for i in range(10_000)
        ]
        events += [attempts_to_commit(1), transaction_commit(1)]
        eq = {_value._eq.__code__, _value._eq_one.__code__}
        calls = 0

        def profile(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code in eq:
                calls += 1

        sys.setprofile(profile)
        try:
            SystemState(DatabaseState({}), events, 1)
        finally:
            sys.setprofile(None)
        # Comparing each event with every kept one of its name would make
        # ~5 * 10^7 comparisons (tens of seconds) here.
        assert calls == 0
        started = time.perf_counter()
        state = SystemState(DatabaseState({}), events, 1)
        assert time.perf_counter() - started < 1.0
        assert len(state.events) == len(events)
