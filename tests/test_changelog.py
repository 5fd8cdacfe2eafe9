"""Tests for the change log: recording, persistence, exact replay, and
offline auditing of a new constraint over a replayed history."""

import pytest

from repro.engine import ActiveDatabase
from repro.errors import StorageError
from repro.events import user_event
from repro.ptl import parse_formula, satisfies
from repro.storage.log import ChangeLog
from repro.workloads import PAPER_TRACE_FIRING, SHARP_INCREASE, apply_trace, make_stock_db

from tests.helpers import ROW_OPS, drive, make_orders


@pytest.fixture
def recorded(tmp_path):
    adb = make_stock_db([("IBM", 10.0)])
    log = ChangeLog.attach(adb)
    apply_trace(adb, PAPER_TRACE_FIRING)
    adb.post_event(user_event("session_close"), at_time=9)
    return adb, log


class TestRecording:
    def test_records_match_states(self, recorded):
        adb, log = recorded
        assert len(log) == len(adb.history)

    def test_replay_reproduces_history(self, recorded):
        adb, log = recorded
        replayed = log.replay()
        assert len(replayed) == len(adb.history)
        for original, copy in zip(adb.history, replayed):
            assert copy.timestamp == original.timestamp
            assert copy.event_names() == original.event_names()
            assert copy.db == original.db

    def test_detach_stops_recording(self, recorded):
        adb, log = recorded
        log.detach()
        adb.post_event(user_event("late"), at_time=99)
        assert len(log) == len(adb.history) - 1


class TestPersistence:
    def test_jsonl_round_trip(self, recorded, tmp_path):
        adb, log = recorded
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        restored = ChangeLog.from_jsonl(path)
        replayed = restored.replay()
        for original, copy in zip(adb.history, replayed):
            assert copy.db == original.db
            assert copy.timestamp == original.timestamp

    def test_empty_log_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(StorageError):
            ChangeLog.from_jsonl(path)

    def test_replay_without_base_rejected(self):
        log = ChangeLog()
        log.records.append({"ts": 5, "events": [], "changes": {}})
        with pytest.raises(StorageError):
            log.replay()


class TestRowDeltas:
    """The change log shares the WAL's and the segments' state-record
    codec: a relation change is recorded as the rows that moved."""

    def test_relation_workload_round_trips(self, tmp_path):
        adb = ActiveDatabase()
        adb.declare_item("price", 0)
        make_orders(adb)
        log = ChangeLog.attach(adb)
        drive(adb, ROW_OPS)
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        restored = ChangeLog.from_jsonl(path)
        kinds = [
            payload["kind"]
            for record in restored.records[1:]
            for payload in record["changes"].values()
        ]
        assert "rows" in kinds and "relation" not in kinds
        replayed = restored.replay()
        assert len(replayed) == len(adb.history)
        for original, copy in zip(adb.history, replayed):
            assert copy.db == original.db
            assert copy.events == original.events
            assert copy.timestamp == original.timestamp
            assert copy.delta == original.delta

    def test_log_recorded_before_row_deltas_still_replays(self):
        """Full images under ``"changes"`` and no ``"delta"`` key: what
        earlier builds wrote."""
        log = ChangeLog()
        log.records += [
            {"ts": None, "events": [], "changes": {
                "price": {"kind": "scalar", "value": 1}}},
            {"ts": 4, "events": [["go", []]], "changes": {
                "price": {"kind": "scalar", "value": 2}}},
        ]
        (state,) = log.replay()
        assert state.db.item("price") == 2 and state.delta is None


class TestOfflineAudit:
    def test_new_constraint_checked_against_replayed_history(
        self, recorded, tmp_path
    ):
        """The payoff: audit a condition that was never registered while
        the system ran."""
        adb, log = recorded
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        history = ChangeLog.from_jsonl(path).replay()

        f = parse_formula(SHARP_INCREASE, adb.db.queries)
        verdicts = [
            satisfies(history.states, i, f) for i in range(len(history))
        ]
        # the doubling is found offline at the fourth state, as live
        assert verdicts.index(True) == 3

    def test_incremental_evaluator_runs_on_replayed_history(self, recorded):
        from repro.ptl import IncrementalEvaluator

        adb, log = recorded
        history = log.replay()
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
