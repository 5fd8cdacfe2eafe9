"""Odds and ends: the CLI, bench tables, standard-event bindings."""

import subprocess
import sys

import pytest

from repro.bench.harness import Table, per_update_micros
from repro.events import user_event
from repro.rules import RecordingAction, RuleManager
from repro.workloads import apply_tick, make_stock_db


class TestCli:
    def test_demo_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "demo"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "fired at time(s): [8]" in result.stdout

    def test_version(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.stdout.strip() == "1.0.0"


class TestBenchHarness:
    def test_table_render(self):
        t = Table("title", ["a", "bb"])
        t.add_row(1, 2.5)
        t.add_row("xx", 1e-6)
        text = t.render()
        assert "title" in text and "a " in text
        assert "1.00e-06" in text

    def test_table_arity_check(self):
        t = Table("t", ["a"])
        with pytest.raises(ValueError):
            t.add_row(1, 2)

    def test_helpers(self):
        assert per_update_micros(1.0, 1000) == 1000.0


class TestStandardEventBindings:
    def test_trigger_on_transaction_commit_binds_txn_id(self):
        adb = make_stock_db()
        manager = RuleManager(adb)
        action = RecordingAction()
        manager.add_trigger(
            "commits", "@transaction_commit(tid)", action, params=("tid",)
        )
        apply_tick(adb, "IBM", 11.0, at_time=1)
        apply_tick(adb, "IBM", 12.0, at_time=2)
        tids = [b["tid"] for b, _ in action.calls]
        assert tids == [1, 2]

    def test_trigger_on_attempts_to_commit(self):
        adb = make_stock_db()
        manager = RuleManager(adb)
        action = RecordingAction()
        manager.add_trigger("attempts", "@attempts_to_commit(tid)", action)
        apply_tick(adb, "IBM", 11.0, at_time=1)
        assert len(action.calls) == 1

    def test_insert_tuple_event_pattern(self):
        adb = make_stock_db()
        manager = RuleManager(adb)
        action = RecordingAction()
        manager.add_trigger(
            "listed",
            "@insert_tuple('STOCK', n, p, c, cat)",
            action,
            params=("n",),
        )
        txn = adb.begin()
        txn.insert("STOCK", ("NEW", 5.0, "New Corp", "tech"))
        txn.commit(1)
        assert action.calls[0][0]["n"] == "NEW"
