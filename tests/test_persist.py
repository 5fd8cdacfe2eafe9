"""The checkpoint is the present-state document: catalog, current state,
named queries and clock round-trip through ``RecoveryManager.checkpoint``
and ``recover``."""

import json

import pytest

from repro.errors import RecoveryError, StorageError
from repro.recovery import RecoveryManager, recover
from repro.workloads import apply_tick, make_stock_db


@pytest.fixture
def engine(tmp_path):
    adb = make_stock_db([("IBM", 10.0), ("XYZ", 300.0)])
    adb.declare_item("DOW", 10_000.0)
    adb.declare_indexed_item("CUM", default=0)
    txn = adb.begin()
    txn.set_indexed_item("CUM", ("IBM",), 42)
    txn.commit(at_time=5)
    apply_tick(adb, "IBM", 25.0, at_time=9)
    return adb


def checkpointed(engine, path, setup=None):
    """``engine`` written to a checkpoint in ``path`` and read back."""
    RecoveryManager(path, fsync=False).checkpoint(engine)
    return recover(path, setup=setup)


def test_round_trip(engine, tmp_path):
    report = checkpointed(engine, tmp_path)
    restored = report.engine
    assert report.checkpoint_used and report.replayed_steps == 0

    assert restored.now == engine.now == 9
    assert restored.state_count == engine.state_count
    assert restored.db.state.relation("STOCK") == engine.db.state.relation("STOCK")
    assert restored.db.state.item("DOW") == 10_000.0
    assert restored.db.state.item("CUM", ("IBM",)) == 42
    assert restored.db.state.item("CUM", ("ZZ",)) == 0


def test_queries_survive(engine, tmp_path):
    restored = checkpointed(engine, tmp_path).engine
    qdef = restored.db.queries.get("price")
    assert qdef.params == ("name",)
    from repro.query import eval_scalar
    from repro.query.ast import Const

    q = qdef.instantiate((Const("IBM"),))
    assert eval_scalar(q, restored.db.state) == 25.0


def test_rules_resume_on_restored_state(engine, tmp_path):
    """Monitoring resumes against the restored current state: a rule
    registered only after the checkpoint was written sees the next
    commit."""
    from repro.rules import RecordingAction, RuleManager

    action = RecordingAction()

    def setup(adb):
        manager = RuleManager(adb)
        manager.add_trigger("high", "price(IBM) > 50", action)
        return manager

    restored = checkpointed(engine, tmp_path, setup=setup).engine
    apply_tick(restored, "IBM", 60.0, at_time=20)
    assert [t for _, t in action.calls] == [20]


def test_bad_format_rejected(tmp_path):
    rm = RecoveryManager(tmp_path)
    rm.checkpoint_path.write_text(json.dumps({"format": 99}))
    with pytest.raises(RecoveryError, match="99"):
        rm.recover()


def test_unserializable_value_rejected(tmp_path):
    """A checkpoint refuses an item it cannot encode, and the previous
    document stays in place."""
    from repro.engine import ActiveDatabase

    adb = ActiveDatabase()
    adb.declare_item("WEIRD", object())
    rm = RecoveryManager(tmp_path)
    rm.checkpoint_path.write_text("previous")
    with pytest.raises(StorageError, match="cannot serialize"):
        rm.checkpoint(adb)
    assert rm.checkpoint_path.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]
