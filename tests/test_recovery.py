"""Checkpoint serialization and recovery: the ``to_state``/``from_state``
protocol across the evaluator stack, durable-write primitives, and the
RecoveryManager's checkpoint-plus-WAL-tail rebuild.

The headline properties: (i) a JSON round-trip of evaluator state taken
mid-history is invisible — the restored evaluator fires identically on
the remaining states (both backends, aggregates, executed-coupled
conditions); (ii) recovery replays exactly the WAL tail past the
checkpoint, never re-evaluating checkpointed history.
"""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.errors import RecoveryError, StorageError, TransactionAborted
from repro.events import user_event
from repro.history.spill import attach_tiered_history
from repro.ptl import IncrementalEvaluator, parse_formula, set_ptl_compile
from repro.ptl.context import EvalContext, ExecutedStore
from repro.ptl.plan import SharedPlan
from repro.recovery import RecoveryManager, recover
from repro.recovery.checkpoint import FORMAT_VERSION
from repro.rules.actions import RecordingAction
from repro.rules.manager import RuleManager
from repro.rules.rule import CouplingMode, FireMode
from repro.storage.log import ChangeLog
from repro.storage.persist import atomic_write_text
from repro.workloads.generator import (
    random_aggregate_pair,
    random_executed_store,
    random_pair,
)
from tests.helpers import executed_sig, store_sig


def json_round_trip(payload):
    """Force the state through actual JSON text (what a checkpoint does)."""
    return json.loads(json.dumps(payload))


def fire_signature(results):
    return [
        (
            r.fired,
            sorted(
                (tuple(sorted(b.items())) for b in r.bindings), key=repr
            ),
        )
        for r in results
    ]


class TestEvaluatorRoundTrip:
    """IncrementalEvaluator.to_state/from_state mid-history."""

    def _check(self, formula, history, ctx_a, ctx_b, cut):
        ev = IncrementalEvaluator(formula, ctx_a)
        oracle = [ev.step(s) for s in history]

        partial = IncrementalEvaluator(formula, ctx_a)
        for state in history.states[:cut]:
            partial.step(state)
        payload = json_round_trip(partial.to_state())

        restored = IncrementalEvaluator(formula, ctx_b)
        restored.from_state(payload)
        tail = [restored.step(s) for s in history.states[cut:]]
        assert fire_signature(tail) == fire_signature(oracle[cut:]), (
            f"restored evaluator diverged after cut {cut}: {formula}"
        )

    @given(seed=st.integers(0, 5_000))
    def test_round_trip_preserves_firings(self, seed):
        formula, history = random_pair(seed, length=10, max_depth=3)
        cut = (seed % (len(history) - 1)) + 1 if len(history) > 1 else 0
        ctx = EvalContext()
        self._check(formula, history, ctx, ctx, cut)

    @given(seed=st.integers(0, 2_000))
    def test_round_trip_with_aggregates(self, seed):
        formula, history = random_aggregate_pair(seed, length=8, max_depth=2)
        cut = (seed % (len(history) - 1)) + 1 if len(history) > 1 else 0
        ctx = EvalContext()
        self._check(formula, history, ctx, ctx, cut)

    @given(seed=st.integers(0, 2_000))
    def test_round_trip_with_executed_predicate(self, seed):
        formula, history = random_pair(
            seed, length=8, max_depth=2, allow_executed=True
        )
        cut = (seed % (len(history) - 1)) + 1 if len(history) > 1 else 0
        store = random_executed_store(seed)
        ctx_a = EvalContext(executed=store)
        # the restored evaluator gets a *fresh* store rebuilt from state,
        # as recovery does
        fresh = ExecutedStore()
        fresh.from_state(json_round_trip(store.to_state()))
        ctx_b = EvalContext(executed=fresh)
        self._check(formula, history, ctx_a, ctx_b, cut)

    def test_formula_fingerprint_mismatch_rejected(self):
        f1, history = random_pair(1, length=4)
        f2, _ = random_pair(2, length=4)
        ev = IncrementalEvaluator(f1, EvalContext())
        for s in history:
            ev.step(s)
        other = IncrementalEvaluator(f2, EvalContext())
        if str(f1) == str(f2):  # pragma: no cover - seeds differ
            pytest.skip("seeds produced identical formulas")
        with pytest.raises(RecoveryError):
            other.from_state(ev.to_state())


class TestSharedPlanRoundTrip:
    def _plan(self, seeds, store):
        plan = SharedPlan(EvalContext(executed=store))
        evaluators = {}
        for seed in seeds:
            formula, _ = random_pair(seed, length=4, max_depth=3)
            name = f"r{seed}"
            evaluators[name] = plan.add_rule(name, formula, plan.ctx)
        return plan, evaluators

    @staticmethod
    def _step_all(evaluators, state):
        return {
            name: (
                r.fired,
                sorted(
                    (tuple(sorted(b.items())) for b in r.bindings),
                    key=repr,
                ),
            )
            for name, r in (
                (name, ev.step(state)) for name, ev in evaluators.items()
            )
        }

    @given(seed=st.integers(0, 1_000))
    def test_round_trip_preserves_firings(self, seed):
        _, history = random_pair(seed, length=10, max_depth=3)
        seeds = [seed, seed + 7, seed + 13]
        oracle_plan, oracle_evs = self._plan(seeds, ExecutedStore())
        oracle = [self._step_all(oracle_evs, s) for s in history]

        plan_a, evs_a = self._plan(seeds, ExecutedStore())
        cut = (seed % (len(history) - 1)) + 1 if len(history) > 1 else 0
        for state in history.states[:cut]:
            self._step_all(evs_a, state)
        plan_b, evs_b = self._plan(seeds, ExecutedStore())
        plan_b.from_state(json_round_trip(plan_a.to_state()))
        tail = [self._step_all(evs_b, s) for s in history.states[cut:]]
        assert tail == oracle[cut:]

    def test_rule_set_mismatch_rejected(self):
        plan_a, _ = self._plan([3, 5], ExecutedStore())
        plan_c, _ = self._plan([3], ExecutedStore())
        with pytest.raises(RecoveryError):
            plan_c.from_state(plan_a.to_state())


def make_engine():
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    return adb


def setup_rules(adb, shared=True):
    return register_rules(adb.rule_manager(shared_plan=shared))


def register_rules(manager):
    manager.add_trigger(
        "rising",
        "price > 50 & lasttime price <= 50",
        RecordingAction(),
        fire_mode=FireMode.RISING_EDGE,
    )
    manager.add_trigger(
        "detached",
        "@go & (price > 10 since @go)",
        RecordingAction(),
        coupling=CouplingMode.T_C_A,
    )
    manager.add_integrity_constraint("cap", "!(price > 1000)")
    return manager


OPS = [
    ("set", 20), ("ev", "go"), ("set", 60), ("set", 40),
    ("ev", "go"), ("set", 80), ("set", 55), ("ev", "go"),
]


def drive(adb, ops):
    for kind, val in ops:
        if kind == "set":
            adb.execute(lambda t, v=val: t.set_item("price", v))
        else:
            adb.post_event(user_event(val))


def firing_sig(manager):
    return [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]


class TestManagerRoundTrip:
    @pytest.mark.parametrize("shared", [True, False])
    def test_round_trip_preserves_behaviour(self, shared):
        oracle = make_engine()
        oracle_m = setup_rules(oracle, shared)
        drive(oracle, OPS)

        adb = make_engine()
        manager = setup_rules(adb, shared)
        drive(adb, OPS[:5])
        payload = json_round_trip(manager.to_state())

        adb2 = make_engine()
        manager2 = setup_rules(adb2, shared)
        drive(adb2, OPS[:5])  # bring the engine to the same point
        manager2.from_state(payload)
        drive(adb2, OPS[5:])
        assert firing_sig(manager2) == firing_sig(oracle_m)
        assert manager2.executed.to_state() == oracle_m.executed.to_state()
        assert manager2.states_seen == oracle_m.states_seen
        # queued detached actions survive the round trip
        assert len(manager2._pending_actions) == len(
            oracle_m._pending_actions
        )
        assert manager2.run_pending() == oracle_m.run_pending()

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
    def test_round_trip_across_ic_vetoes(self, shared, compiled):
        """Triggers (one plan for all, or one plan per rule) next to a
        *temporal* integrity constraint that vetoes on both sides of the
        checkpoint: the restored manager re-serializes to the very same
        payload and then matches an uninterrupted twin on firings,
        executed store and committed items — the IC remembers the
        pre-checkpoint price, and the vetoed trials leave no trace."""

        def build():
            adb = make_engine()
            manager = setup_rules(adb, shared)
            manager.add_integrity_constraint(
                "calm", "!(price > 70 & lasttime price > 70)"
            )
            return adb, manager

        def run(adb, ops):
            vetoes = 0
            for op in ops:
                try:
                    drive(adb, [op])
                except TransactionAborted:
                    vetoes += 1
            return vetoes

        head = OPS[:6] + [("set", 95)]  # 80 then 95: vetoed
        tail = [("set", 90), ("set", 55), ("ev", "go"), ("set", 75), ("set", 85)]
        previous = set_ptl_compile(compiled)
        try:
            twin, twin_m = build()
            assert run(twin, head) == 1 and run(twin, tail) == 2

            adb, manager = build()
            run(adb, head)
            payload = json_round_trip(manager.to_state())

            adb2, manager2 = build()
            run(adb2, head)
            manager2.from_state(payload)
            assert json_round_trip(manager2.to_state()) == payload
            assert run(adb2, tail) == 2
        finally:
            set_ptl_compile(previous)
        assert firing_sig(manager2) == firing_sig(twin_m)
        assert executed_sig(manager2) == executed_sig(twin_m)
        assert store_sig(adb2) == store_sig(twin)

    def test_monitors_not_checkpointable(self):
        adb = make_engine()
        manager = setup_rules(adb)
        manager.add_future_monitor("obligation", "eventually[5] @ack")
        with pytest.raises(RecoveryError):
            manager.to_state()

    def test_batched_states_block_checkpoint(self):
        adb = make_engine()
        manager = adb.rule_manager(batch_size=10)
        manager.add_trigger("t", "price > 0", RecordingAction())
        drive(adb, [("set", 5)])
        with pytest.raises(RecoveryError):
            manager.to_state()
        manager.flush()
        manager.to_state()  # fine once flushed

    def test_rule_set_mismatch_rejected(self):
        adb = make_engine()
        manager = setup_rules(adb)
        drive(adb, OPS[:2])
        payload = manager.to_state()
        adb2 = make_engine()
        other = adb2.rule_manager()
        other.add_trigger("different", "price > 0", RecordingAction())
        with pytest.raises(RecoveryError):
            other.from_state(payload)

    def test_backend_mismatch_rejected(self):
        adb = make_engine()
        manager = setup_rules(adb, shared=True)
        drive(adb, OPS[:2])
        payload = manager.to_state()
        adb2 = make_engine()
        other = setup_rules(adb2, shared=False)
        with pytest.raises(RecoveryError):
            other.from_state(payload)


def _drift_manager(adb, condition):
    manager = adb.rule_manager()
    manager.add_trigger("t", condition, RecordingAction())
    manager.add_trigger("high", "price > 90", RecordingAction())
    return manager


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "tolerant"])
class TestRespelledConditionIsNotDrift:
    """Drift is judged on the normalized condition: a re-registration
    that only respells a rule restores it, a different condition does
    not."""

    HEAD = [("set", 60), ("set", 20), ("set", 30)]
    TAIL = [("set", 10), ("set", 95), ("set", 40)]

    def _checkpoint(self):
        adb = make_engine()
        manager = _drift_manager(adb, "previously (price > 50)")
        drive(adb, self.HEAD)
        manager.flush()
        payload = json_round_trip(manager.to_state())
        manager.detach()
        return payload

    def _restore_target(self, condition):
        adb = make_engine()
        drive(adb, self.HEAD)  # the engine is at the checkpointed state
        return adb, _drift_manager(adb, condition)

    def test_respelled_condition_is_the_same_rule(self, strict):
        twin = make_engine()
        twin_m = _drift_manager(twin, "previously (price > 50)")
        drive(twin, self.HEAD + self.TAIL)
        twin_m.flush()

        payload = self._checkpoint()
        adb, manager = self._restore_target("true since (price > 50)")
        drift = manager.from_state(payload, strict=strict)
        assert drift == {"added": [], "dropped": [], "changed": []}
        drive(adb, self.TAIL)
        manager.flush()
        # ``t`` still remembers the 60 from before the checkpoint.
        assert firing_sig(manager) == firing_sig(twin_m)
        assert len(manager.firings_of("t")) == len(self.HEAD + self.TAIL)
        manager.detach()
        twin_m.detach()

    def test_different_condition_is_changed(self, strict):
        payload = self._checkpoint()
        adb, manager = self._restore_target("previously (price > 55)")
        if strict:
            with pytest.raises(RecoveryError, match="'t' condition differs"):
                manager.from_state(payload, strict=True)
        else:
            drift = manager.from_state(payload, strict=False)
            assert drift == {"added": [], "dropped": [], "changed": ["t"]}
        manager.detach()


def _count_keys(node, names):
    if isinstance(node, dict):
        return sum(k in names for k in node) + sum(
            _count_keys(v, names) for v in node.values()
        )
    if isinstance(node, list):
        return sum(_count_keys(v, names) for v in node)
    return 0


def _with_aggregate(setup):
    """``setup`` plus one aggregate rule whose ψ is a temporal formula:
    its ``lasttime`` is a plan temporal node, not a nested evaluator."""

    def wrapped(adb):
        manager = setup(adb)
        manager.add_trigger(
            "summed",
            "sum(price; @go; lasttime (price > 50)) > 100",
            RecordingAction(),
        )
        return manager

    return wrapped


@pytest.mark.parametrize("tiers", [False, True], ids=["ram", "tiers"])
@pytest.mark.parametrize("compiled", [False, True], ids=["interp", "compiled"])
def test_checkpoint_document_round_trip(tmp_path, compiled, tiers):
    """``checkpoint.json`` graded as one document: written, recovered and
    written again it is byte-identical; the recovered run then matches an
    uninterrupted twin; and only its root is versioned — any other root
    format is refused whole, before ``setup()`` runs, leaving the file
    untouched."""
    setup = _with_aggregate(setup_rules)
    head, tail = OPS[:5], OPS[5:] + [("set", 70), ("ev", "go")]

    def start(rm, adb, manager=None):
        rm.start(adb)
        if tiers and adb.tiered is None:
            attach_tiered_history(
                adb, tmp_path / "segments", budget_bytes=1, hot_window=2,
                segment_records=2, spill_check_every=1, manager=manager,
            )

    previous = set_ptl_compile(compiled)
    try:
        twin = make_engine()
        twin_m = setup(twin)
        drive(twin, head + tail)
        twin_m.flush()

        adb = make_engine()
        manager = setup(adb)
        rm = RecoveryManager(tmp_path)
        start(rm, adb, manager)
        drive(adb, head)
        manager.flush()
        rm.checkpoint(adb, manager)
        rm.stop()
        manager.detach()
        written = rm.checkpoint_path.read_bytes()
        document = json.loads(written)
        assert _count_keys(document, {"format"}) == 1
        assert document["format"] == FORMAT_VERSION == 4
        # No evaluator-shaped section nests under an aggregate entry.
        assert _count_keys(document, {"start", "sample"}) == 0
        assert '"samples"' in written.decode()
        assert "backend" not in document["manager"]
        assert ("tiers" in document) == tiers
        if tiers:
            assert document["tiers"]["history"]["segments"], "nothing spilled"

        report = recover(tmp_path, setup=setup)
        adb2, manager2 = report.engine, report.manager
        assert report.checkpoint_used and report.replayed_steps == 0
        rm2 = RecoveryManager(tmp_path)
        rm2.checkpoint(adb2, manager2)
        assert rm2.checkpoint_path.read_bytes() == written

        start(rm2, adb2)
        drive(adb2, tail)
        manager2.flush()
        rm2.stop()
        assert firing_sig(manager2) == firing_sig(twin_m)
        assert executed_sig(manager2) == executed_sig(twin_m)
        assert store_sig(adb2) == store_sig(twin)
        manager2.detach()
        twin_m.detach()

        def never(engine):
            raise AssertionError("setup() ran on a refused document")

        for foreign in (FORMAT_VERSION - 1, str(FORMAT_VERSION)):
            document["format"] = foreign
            tampered = json.dumps(document, sort_keys=True).encode()
            rm.checkpoint_path.write_bytes(tampered)
            with pytest.raises(RecoveryError, match=repr(foreign)):
                recover(tmp_path, setup=never)
            assert rm.checkpoint_path.read_bytes() == tampered
    finally:
        set_ptl_compile(previous)


class TestRecoveryManager:
    def test_recover_from_wal_only(self, tmp_path):
        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS)
        rm.stop()

        report = recover(tmp_path, setup=lambda e: setup_rules(e))
        assert not report.checkpoint_used
        assert report.replayed_steps == len(OPS)
        assert firing_sig(report.manager) == firing_sig(manager)
        assert report.engine.state.item("price") == adb.state.item("price")
        assert report.engine.state_count == adb.state_count
        assert report.engine.now == adb.now

    def test_checkpoint_bounds_replay(self, tmp_path):
        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:5])
        manager.flush()
        rm.checkpoint(adb, manager)
        drive(adb, OPS[5:])
        rm.stop()

        report = recover(tmp_path, setup=lambda e: setup_rules(e))
        assert report.checkpoint_used
        # recovery never re-evaluates history older than the WAL tail
        assert report.replayed_steps == len(OPS) - 5
        assert firing_sig(report.manager) == firing_sig(manager)

    def test_recovered_system_keeps_running(self, tmp_path):
        oracle = make_engine()
        oracle_m = setup_rules(oracle)
        drive(oracle, OPS)

        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:5])
        manager.flush()
        rm.checkpoint(adb, manager)
        rm.stop()

        report = recover(tmp_path, setup=lambda e: setup_rules(e))
        drive(report.engine, OPS[5:])
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert (
            report.engine.state.item("price")
            == oracle.state.item("price")
        )

    def test_subclass_restores_a_rule_manager_checkpoint(self, tmp_path):
        """The manager section does not name the class that wrote it: a
        subclass that leaves evaluation alone restores it."""

        class Audited(RuleManager):
            pass

        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:5])
        manager.flush()
        rm.checkpoint(adb, manager)
        drive(adb, OPS[5:])
        rm.stop()

        report = recover(
            tmp_path, setup=lambda e: register_rules(Audited(e))
        )
        assert type(report.manager) is Audited
        assert firing_sig(report.manager) == firing_sig(manager)

    def test_nothing_to_recover(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover(tmp_path / "void")

    def test_history_less_recovery(self, tmp_path):
        """``keep_history=False`` rebuilds the same system as default
        recovery — report, firings, executed store, items, clock, last
        state, manager state, and the run that follows — minus the
        history."""
        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:5])
        manager.flush()
        rm.checkpoint(adb, manager)
        drive(adb, OPS[5:])
        rm.stop()

        def rebuilt(**kw):
            report = RecoveryManager(tmp_path).recover(
                setup=setup_rules, **kw
            )
            engine, manager = report.engine, report.manager
            head = (
                report.replayed_steps, report.wal_records, report.truncated,
                report.checkpoint_used, report.rule_drift,
                engine.state_count, engine.now, engine.last_state.index,
                engine.last_state.timestamp, manager.to_state(),
            )
            drive(engine, OPS[:3])
            manager.flush()
            return engine, head + (
                firing_sig(manager), executed_sig(manager), store_sig(engine)
            )

        full, full_sig = rebuilt()
        bare, bare_sig = rebuilt(keep_history=False)
        assert len(full.history) == len(OPS) - 5 + 3
        assert bare.history is None
        assert bare_sig == full_sig

    def test_history_less_recovery_restores_tiers(self, tmp_path):
        """A checkpoint that carries tiers brings its tiered history back
        whether or not the recovering engine asked for a history."""
        from repro.history.spill import TieredHistory

        adb = make_engine()
        manager = setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        attach_tiered_history(
            adb, tmp_path / "segments", budget_bytes=1, hot_window=2,
            segment_records=2, spill_check_every=1, manager=manager,
        )
        drive(adb, OPS)
        manager.flush()
        rm.checkpoint(adb, manager)
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=setup_rules, keep_history=False
        )
        assert isinstance(report.engine.history, TieredHistory)
        assert report.engine.tiered is not None
        assert len(report.engine.history) == len(OPS)
        assert firing_sig(report.manager) == firing_sig(manager)

    def test_recovery_metrics(self, tmp_path):
        adb = make_engine()
        setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:4])
        rm.stop()
        report = recover(
            tmp_path, setup=lambda e: setup_rules(e), metrics=True
        )
        registry = report.engine.metrics
        assert registry.counter("recovery_runs_total").value == 1
        assert registry.gauge("recovery_replayed_steps").value == 4


class TestDurableWrites:
    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no temp litter

    def test_crash_before_rename_keeps_old_file(self, tmp_path):
        path = tmp_path / "f.json"
        atomic_write_text(path, "old")

        def boom(tmp):
            raise RuntimeError("crash between write and rename")

        with pytest.raises(RuntimeError):
            atomic_write_text(path, "new", before_replace=boom)
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]


class TestChangeLogStreaming:
    def _recorded(self):
        adb = make_engine()
        log = ChangeLog.attach(adb)
        drive(adb, OPS[:4])
        return adb, log

    def test_append_jsonl_is_incremental(self, tmp_path):
        adb, log = self._recorded()
        path = tmp_path / "log.jsonl"
        assert log.append_jsonl(path) == 5  # base + 4 states
        assert log.append_jsonl(path) == 0
        drive(adb, OPS[4:6])
        assert log.append_jsonl(path) == 2
        restored = ChangeLog.from_jsonl(path)
        assert len(restored.records) == len(log.records)

    def test_stream_to_appends_as_recorded(self, tmp_path):
        adb, log = self._recorded()
        path = tmp_path / "log.jsonl"
        log.stream_to(path)
        drive(adb, OPS[4:])
        log.detach()
        restored = ChangeLog.from_jsonl(path)
        assert len(restored.records) == len(log.records)
        replayed = restored.replay()
        assert replayed.last.timestamp == adb.last_state.timestamp

    def test_torn_trailing_record_skipped_with_warning(self, tmp_path):
        _, log = self._recorded()
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        with open(path, "a") as fp:
            fp.write('{"ts": 99, "events": [], "chan')  # torn append
        with pytest.warns(UserWarning, match="torn trailing"):
            restored = ChangeLog.from_jsonl(path)
        assert len(restored.records) == len(log.records)

    def test_mid_file_corruption_rejected(self, tmp_path):
        _, log = self._recorded()
        path = tmp_path / "log.jsonl"
        log.to_jsonl(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(StorageError):
            ChangeLog.from_jsonl(path)
