"""The write-ahead log is the system's change log: recording, the log
file, exact replay, and offline auditing of a new constraint over the
history :meth:`RecoveryManager.audit` replays from it."""

import json
import shutil

import pytest

from repro.engine import ActiveDatabase
from repro.errors import RecoveryError
from repro.events import user_event
from repro.ptl import parse_formula, satisfies
from repro.recovery import RecoveryManager, load_wal
from repro.rules.actions import PyAction
from repro.rules.manager import RuleManager
from repro.workloads import PAPER_TRACE_FIRING, SHARP_INCREASE, apply_trace, make_stock_db

from tests.helpers import ROW_OPS, drive, make_orders


@pytest.fixture
def recorded(tmp_path):
    adb = make_stock_db([("IBM", 10.0)])
    rm = RecoveryManager(tmp_path / "run", fsync=False)
    rm.start(adb)
    apply_trace(adb, PAPER_TRACE_FIRING)
    adb.post_event(user_event("session_close"), at_time=9)
    return adb, rm


def assert_same_history(replayed, original):
    """State for state: index, timestamp, events, database and write-set."""
    sig = lambda s: (s.index, s.timestamp, s.events, s.db, s.delta)
    assert [sig(s) for s in replayed] == [sig(s) for s in original]


def state_records(path):
    records, _ = load_wal(path, truncate_torn=False)
    return [r for r in records if r.get("seq") is not None]


class TestRecording:
    def test_records_match_states(self, recorded):
        adb, rm = recorded
        seqs = [r["seq"] for r in state_records(rm.wal_path)]
        assert seqs == [s.index for s in adb.history]

    def test_replay_reproduces_history(self, recorded):
        adb, rm = recorded
        audited = rm.audit()
        assert_same_history(audited.history, adb.history)
        assert audited.now == adb.now
        assert audited.db.state == adb.db.state

    def test_detach_stops_recording(self, recorded):
        adb, rm = recorded
        rm.stop()
        adb.post_event(user_event("late"), at_time=99)
        assert len(rm.audit().history) == len(adb.history) - 1

    def test_log_attached_mid_run(self, tmp_path):
        """A log attached to an engine with states already behind it
        starts at the engine's next index: the audit replays that
        suffix under the engine's own indices."""
        adb = make_stock_db([("IBM", 10.0)])
        apply_trace(adb, PAPER_TRACE_FIRING[:2])
        before = len(adb.history)
        rm = RecoveryManager(tmp_path, fsync=False)
        rm.start(adb)
        apply_trace(adb, PAPER_TRACE_FIRING[2:])
        audited = rm.audit()
        assert audited.history[0].index == before > 0
        assert_same_history(audited.history, adb.history.states[before:])

    def test_cascade_is_logged_in_commit_order(self, tmp_path):
        """A trigger action that commits appends its state while the
        triggering state is still being published.  The WAL logs each
        state before any rule sees it, so the audit replays the states
        in the order the engine appended them."""
        adb = ActiveDatabase()
        adb.declare_item("price", 0)
        rm = RecoveryManager(tmp_path, fsync=False)
        rm.start(adb)
        manager = RuleManager(adb)

        def commit_twice(ctx):
            for _ in range(2):
                price = ctx.engine.state.item("price") + 1
                ctx.engine.execute(lambda t: t.set_item("price", price))

        manager.add_trigger("go", "@go", PyAction(commit_twice))
        adb.post_event(user_event("go"))
        adb.post_event(user_event("go"))
        assert adb.state.item("price") == 4
        seqs = [r["seq"] for r in state_records(rm.wal_path)]
        assert seqs == list(range(len(adb.history))) == list(range(6))
        assert_same_history(rm.audit().history, adb.history)


class TestPersistence:
    def test_jsonl_round_trip(self, recorded, tmp_path):
        """The log file alone is the record: copied to a directory with
        no checkpoint and no segments, it replays the whole history."""
        adb, rm = recorded
        copy = tmp_path / "copy"
        copy.mkdir()
        shutil.copy(rm.wal_path, copy / RecoveryManager.WAL_NAME)
        audited = RecoveryManager(copy).audit()
        assert_same_history(audited.history, adb.history)

    def test_empty_log_rejected(self, tmp_path):
        rm = RecoveryManager(tmp_path)
        rm.wal_path.write_text("")
        with pytest.raises(RecoveryError, match="no base record"):
            rm.audit()

    def test_replay_without_base_rejected(self, tmp_path):
        rm = RecoveryManager(tmp_path)
        rm.wal_path.write_text(
            json.dumps({"seq": 0, "ts": 5, "events": [], "changes": {}})
            + "\n"
        )
        with pytest.raises(RecoveryError, match="no base record"):
            rm.audit()


class TestRowDeltas:
    """The WAL writes the history segments' state-record codec: a
    relation change is recorded as the rows that moved."""

    def test_relation_workload_round_trips(self, tmp_path):
        adb = ActiveDatabase()
        adb.declare_item("price", 0)
        make_orders(adb)
        rm = RecoveryManager(tmp_path, fsync=False)
        rm.start(adb)
        drive(adb, ROW_OPS)
        kinds = [
            payload["kind"]
            for record in state_records(rm.wal_path)
            for payload in record["changes"].values()
        ]
        assert "rows" in kinds and "relation" not in kinds
        assert_same_history(rm.audit().history, adb.history)

    def test_log_recorded_before_row_deltas_still_replays(self, tmp_path):
        """Full images under ``"changes"`` and no ``"delta"`` key: what
        earlier builds wrote."""
        rm = RecoveryManager(tmp_path)
        records = [
            {"seq": None, "ts": None, "items": {
                "price": {"kind": "scalar", "value": 1}}},
            {"seq": 0, "ts": 4, "events": [["go", []]], "changes": {
                "price": {"kind": "scalar", "value": 2}}},
        ]
        rm.wal_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        (state,) = rm.audit().history
        assert state.db.item("price") == 2 and state.delta is None


class TestOfflineAudit:
    def test_new_constraint_checked_against_replayed_history(self, recorded):
        """The payoff: audit a condition that was never registered while
        the system ran, with the catalog the log itself recorded."""
        _, rm = recorded
        audited = rm.audit()
        history = audited.history
        f = parse_formula(SHARP_INCREASE, audited.db.queries)
        verdicts = [
            satisfies(history.states, i, f) for i in range(len(history))
        ]
        # the doubling is found offline at the fourth state, as live
        assert verdicts.index(True) == 3

    def test_incremental_evaluator_runs_on_replayed_history(self, recorded):
        from repro.ptl import IncrementalEvaluator

        adb, rm = recorded
        history = rm.audit().history
        ev = IncrementalEvaluator(
            parse_formula(SHARP_INCREASE, adb.db.queries)
        )
        fired = [s.timestamp for s in history if ev.step(s).fired]
        # fires at t=8 and still at the t=9 session-close state (the low
        # price at t=1 is still inside the 10-unit window there)
        assert fired == [8, 9]
        # ... which is what a live evaluator saw on the original history
        live = IncrementalEvaluator(
            parse_formula(SHARP_INCREASE, adb.db.queries)
        )
        assert [
            s.timestamp for s in adb.history if live.step(s).fired
        ] == fired


class TestTornLog:
    """The audit reads the log as recovery does and never writes it."""

    def test_torn_tail_left_in_place(self, recorded):
        adb, rm = recorded
        rm.stop()
        with open(rm.wal_path, "a") as fp:
            fp.write('{"seq": 99, "ts": 99, "events": [], "chan')
        torn = rm.wal_path.read_bytes()
        assert_same_history(rm.audit().history, adb.history)
        assert rm.wal_path.read_bytes() == torn
        report = RecoveryManager(rm.directory).recover()
        assert report.truncated
        assert len(rm.wal_path.read_bytes()) < len(torn)

    def test_group_without_marker_dropped(self, recorded):
        """A trailing commit group whose marker never reached the log (a
        crash mid-batch) is left out whole, as recovery leaves it out."""
        adb, rm = recorded
        complete = len(adb.history)
        rm.wal.begin_group()
        adb.post_event(user_event("lost"), at_time=20)
        adb.post_event(user_event("lost"), at_time=21)
        rm.wal._fp.flush()
        unmarked = rm.wal_path.read_bytes()
        audited = rm.audit()
        assert_same_history(audited.history, adb.history[:complete])
        assert rm.wal_path.read_bytes() == unmarked
        rm.wal.detach()
        report = RecoveryManager(rm.directory).recover()
        assert report.truncated
        assert_same_history(report.engine.history, audited.history)


class TestGroupSplit:
    def test_file_size_depends_on_how_records_split_across_groups(
        self, tmp_path
    ):
        """The same 24 states in 12 commit groups, split two ways, load to
        the same history; but every record of a group numbered 10 or more
        (and its marker) carries a two-digit ``"g"``, so the log that puts
        more records in groups 10 and 11 is larger by one byte each."""

        def write(name, sizes):
            adb = ActiveDatabase()
            rm = RecoveryManager(tmp_path / name, fsync=False)
            rm.start(adb)
            t = 0
            for size in sizes:
                with adb.batch():
                    for _ in range(size):
                        t += 1
                        adb.post_event(user_event("tick"), at_time=t)
            rm.stop()
            return rm

        early = write("early", [13] + [1] * 11)
        late = write("late", [1] * 11 + [13])
        assert len(state_records(early.wal_path)) == 24
        assert_same_history(late.audit().history, early.audit().history)
        # groups 10 and 11 hold 2 records in the first log, 14 in the other
        size = lambda rm: rm.wal_path.stat().st_size
        assert size(late) - size(early) == 14 - 2
