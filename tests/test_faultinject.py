"""Differential crash-consistency tests and action failure isolation.

For every crash point (pre-commit, post-commit, torn WAL append,
mid-checkpoint), both evaluator backends, with and without a checkpoint:
crash a workload at a deterministic step, recover from the durable
directory, finish the remaining operations, and require the recovered
run to be indistinguishable from an uninterrupted oracle — same firings
(rule, bindings, state index, timestamp), same database, same executed
store.  Recovery must also replay *only* the WAL tail past the
checkpoint (``replayed_steps``), never re-evaluating older history.

Action failure isolation: a rule whose action raises must neither lose
nor duplicate the firings of other rules, is retried by the bounded
policy, and is quarantined after repeated failures.

The crash matrix runs under both recurrence backends
(``REPRO_PTL_COMPILE`` off and on): recovery must rebuild the compiled
chains' slot vectors bit-identically from the WAL tail, and refuse a
checkpoint whose slot layout no longer matches the compiled chain.
"""

import json
from contextlib import contextmanager

import pytest

from repro.engine import ActiveDatabase
from repro.errors import ActionError, RecoveryError, StorageDegradedError
from repro.events import user_event
from repro.obs.trace import ACTION_FAILURE
from repro.recovery import (
    CRASH_POINTS,
    DISK_FULL,
    MID_CHECKPOINT,
    MID_GROUP_COMMIT,
    MID_SEGMENT_WRITE,
    MID_WAL,
    POST_COMMIT,
    PRE_COMMIT,
    TORN_SEGMENT,
    FaultInjector,
    RecoveryManager,
    SimulatedCrash,
    load_wal,
)
from repro.ptl.compiled import set_ptl_compile
from repro.rules.actions import Action, RecordingAction
from repro.rules.rule import CouplingMode, FireMode
from repro.serve import ReproServer, StockProfile

from tests.helpers import (
    ROW_OPS,
    VersionRecorder,
    assert_versions_invisible,
    drive,
    make_orders,
    op_body,
    serve_batch,
    served_sig,
    stock_twin,
    twin_replay,
    update_stmt,
)


@contextmanager
def ptl_mode(compiled: bool):
    prev = set_ptl_compile(compiled)
    try:
        yield
    finally:
        set_ptl_compile(prev)


def make_engine():
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    make_orders(adb)
    return adb


def setup_rules(adb, shared=True):
    manager = adb.rule_manager(shared_plan=shared)
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


def firing_sig(manager):
    return [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]


def oracle_run(ops=OPS):
    adb = make_engine()
    manager = setup_rules(adb)
    drive(adb, ops)
    return adb, manager


class TestCrashMatrix:
    """Crash at a deterministic point, recover, finish; compare against
    the uninterrupted oracle."""

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    @pytest.mark.parametrize("shared", [True, False])
    @pytest.mark.parametrize("checkpoint_at", [None, 4])
    @pytest.mark.parametrize(
        "point", [PRE_COMMIT, POST_COMMIT, MID_WAL]
    )
    def test_crash_recover_differential(
        self, tmp_path, shared, checkpoint_at, point, compiled
    ):
        with ptl_mode(compiled):
            self._crash_recover(tmp_path, shared, checkpoint_at, point, OPS)

    @pytest.mark.parametrize("checkpoint_at", [None, 4])
    @pytest.mark.parametrize(
        "point", [PRE_COMMIT, POST_COMMIT, MID_WAL]
    )
    def test_row_delta_wal_tail_recovers(self, tmp_path, checkpoint_at, point):
        """The same matrix over a workload that writes relation rows:
        the WAL tail past the checkpoint image is row deltas."""
        self._crash_recover(tmp_path, True, checkpoint_at, point, ROW_OPS)
        records, _ = load_wal(tmp_path / RecoveryManager.WAL_NAME)
        kinds = [
            payload["kind"]
            for record in records[1:]
            for payload in record["changes"].values()
        ]
        assert "rows" in kinds and "relation" not in kinds

    @pytest.mark.parametrize("checkpoint_at", [None, 4])
    @pytest.mark.parametrize(
        "point", [PRE_COMMIT, POST_COMMIT, MID_WAL]
    )
    def test_recovered_versions_read_as_committed(
        self, tmp_path, checkpoint_at, point
    ):
        """The crash row of ``tests/test_relation_versions.py``: WAL-tail
        replay supersedes versions as commits do, and every replayed
        state — then every state of the finished run — reads as the flat
        copy an uninterrupted twin took at commit time."""
        oracle = make_engine()
        setup_rules(oracle)
        recorder = VersionRecorder(oracle)
        drive(oracle, ROW_OPS)

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb)
        rm.start(adb)
        injector.arm(point, after=5)
        with pytest.raises(SimulatedCrash):
            for done, op in enumerate(ROW_OPS, 1):
                drive(adb, [op])
                if done == checkpoint_at:
                    manager.flush()
                    rm.checkpoint(adb, manager)
        rm.stop()

        report = RecoveryManager(tmp_path).recover(setup=setup_rules)
        assert report.replayed_steps == report.engine.state_count - (
            checkpoint_at or 0
        )
        assert_versions_invisible(report.engine, recorder)
        replayed_past = [
            s.db.raw_item("ORDERS").superseded for s in report.engine.history
        ]
        if checkpoint_at is None:
            assert replayed_past[0] and not replayed_past[-1]
        drive(report.engine, ROW_OPS[report.engine.state_count :])
        assert report.engine.state_count == oracle.state_count
        assert_versions_invisible(report.engine, recorder)

    def _crash_recover(self, tmp_path, shared, checkpoint_at, point, ops):
        oracle_adb, oracle_m = oracle_run(ops)

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb, shared)
        rm.start(adb)
        injector.arm(point, after=5)  # crash during the 6th state
        done = 0
        with pytest.raises(SimulatedCrash):
            for op in ops:
                drive(adb, [op])
                done += 1
                if checkpoint_at is not None and done == checkpoint_at:
                    manager.flush()
                    rm.checkpoint(adb, manager)
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e, shared)
        )
        survived = report.engine.state_count
        # pre-commit / torn-write crashes lose the in-flight state;
        # post-commit keeps it (durable before the action ran)
        assert survived == (6 if point == POST_COMMIT else 5)
        assert report.truncated == (point == MID_WAL)
        if checkpoint_at is not None:
            assert report.checkpoint_used
            # never re-evaluates history older than the WAL tail
            assert report.replayed_steps == survived - checkpoint_at
        else:
            assert report.replayed_steps == survived
        # checkpoint image + (row-delta) WAL tail rebuild every
        # replayed database state, relations included
        replayed = [s.db for s in report.engine.history]
        assert replayed == [s.db for s in oracle_adb.history][
            survived - len(replayed) : survived
        ]

        drive(report.engine, ops[survived:])
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert report.engine.state == oracle_adb.state
        assert (
            report.manager.executed.to_state()
            == oracle_m.executed.to_state()
        )
        assert report.engine.state_count == oracle_adb.state_count

    @pytest.mark.parametrize("checkpoint_at", [None, 4])
    @pytest.mark.parametrize(
        "point", [PRE_COMMIT, POST_COMMIT, MID_WAL]
    )
    def test_wal_replay_rebuilds_slot_vectors(
        self, tmp_path, checkpoint_at, point
    ):
        """Under the compiled backend, recovery must leave the shared
        plan — including the chain's slot vector and layout fingerprint —
        bit-identical to the uninterrupted oracle's."""
        with ptl_mode(True):
            oracle_adb, oracle_m = oracle_run()

            injector = FaultInjector()
            rm = RecoveryManager(tmp_path, injector=injector)
            adb = make_engine()
            manager = setup_rules(adb)
            rm.start(adb)
            injector.arm(point, after=5)
            done = 0
            with pytest.raises(SimulatedCrash):
                for op in OPS:
                    drive(adb, [op])
                    done += 1
                    if checkpoint_at is not None and done == checkpoint_at:
                        manager.flush()
                        rm.checkpoint(adb, manager)
            rm.stop()

            report = RecoveryManager(tmp_path).recover(
                setup=lambda e: setup_rules(e)
            )
            drive(report.engine, OPS[report.engine.state_count:])
            report.manager.flush()
            oracle_m.flush()
            recovered = report.manager.plan.to_state()
            assert "compiled" in recovered, "slot vector missing"
            assert recovered == oracle_m.plan.to_state()

    def test_checkpoint_slot_layout_drift_rejected(self, tmp_path):
        """A checkpoint whose compiled-section fingerprint no longer
        matches the chain the recovering process built must be refused —
        loading slots positionally into a drifted layout would silently
        scramble recurrence state."""
        with ptl_mode(True):
            rm = RecoveryManager(tmp_path)
            adb = make_engine()
            manager = setup_rules(adb)
            rm.start(adb)
            drive(adb, OPS[:4])
            manager.flush()
            rm.checkpoint(adb, manager)
            drive(adb, OPS[4:])
            rm.stop()

            payload = json.loads(rm.checkpoint_path.read_text())
            payload["manager"]["plan"]["compiled"]["fingerprint"] = "0" * 16
            rm.checkpoint_path.write_text(json.dumps(payload))

            with pytest.raises(RecoveryError, match="slot-layout drift"):
                RecoveryManager(tmp_path).recover(
                    setup=lambda e: setup_rules(e)
                )

    @pytest.mark.parametrize("shared", [True, False])
    def test_mid_checkpoint_crash_keeps_previous_checkpoint(
        self, tmp_path, shared
    ):
        self._mid_checkpoint_crash(tmp_path, shared, OPS)

    def test_row_delta_mid_checkpoint_crash(self, tmp_path):
        self._mid_checkpoint_crash(tmp_path, True, ROW_OPS)

    def _mid_checkpoint_crash(self, tmp_path, shared, ops):
        oracle_adb, oracle_m = oracle_run(ops)

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb, shared)
        rm.start(adb)
        drive(adb, ops[:3])
        manager.flush()
        rm.checkpoint(adb, manager)
        drive(adb, ops[3:6])
        manager.flush()
        injector.arm(MID_CHECKPOINT)
        with pytest.raises(SimulatedCrash):
            rm.checkpoint(adb, manager)
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e, shared)
        )
        assert report.checkpoint_used
        # the surviving checkpoint is the *old* one: 3 states replayed
        assert report.replayed_steps == 3
        assert report.engine.state_count == 6
        drive(report.engine, ops[6:])
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert report.engine.state == oracle_adb.state

    def test_repeated_crashes_converge(self, tmp_path):
        """Crash, recover, crash again on the very next state, recover —
        the second recovery still matches the oracle."""
        oracle_adb, oracle_m = oracle_run()

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb)
        rm.start(adb)
        injector.arm(PRE_COMMIT, after=3)
        with pytest.raises(SimulatedCrash):
            drive(adb, OPS)
        rm.stop()

        injector2 = FaultInjector()
        rm2 = RecoveryManager(tmp_path, injector=injector2)
        report = rm2.recover(setup=lambda e: setup_rules(e))
        survived = report.engine.state_count
        rm2.start(report.engine)
        injector2.arm(MID_WAL, after=1)
        with pytest.raises(SimulatedCrash):
            drive(report.engine, OPS[survived:])
        rm2.stop()

        final = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        survived2 = final.engine.state_count
        assert survived2 > survived
        drive(final.engine, OPS[survived2:])
        assert firing_sig(final.manager) == firing_sig(oracle_m)
        assert (
            final.engine.state.item("price")
            == oracle_adb.state.item("price")
        )


class TestServedCrashMatrix:
    """A served tenant crashed at every fault-injection point reopens
    history-less and finishes its stream exactly like an uninterrupted
    twin.  The stream is served in group commits of two, with an
    eviction (checkpoint) after the fourth transaction; a crash loses
    at most the group in flight, which the client sends again."""

    OPS = [
        ("stmts", update_stmt(p))
        for p in (20.0, 45.0, 60.0, 100.0, 210.0, -5.0,
                  30.0, 70.0, 150.0, 40.0, 90.0, 200.0)
    ]
    BATCH = 2
    EVICT_AT = 4
    #: Passes survived before the crash: the 7th state record (the WAL's
    #: base record counts as a line for the torn write), the 4th group
    #: marker, the eviction's checkpoint.
    AFTER = {MID_WAL: 7, MID_GROUP_COMMIT: 3, MID_CHECKPOINT: 0}
    #: What each crash leaves durable: the first three groups; plus the
    #: post-commit record (durable by then, and the unwinding batch still
    #: writes its group marker); the four states the failed checkpoint
    #: was to cover; everything, where nothing crashes.
    SURVIVED = {
        POST_COMMIT: 7,
        MID_CHECKPOINT: 4,
        MID_SEGMENT_WRITE: 12,
        TORN_SEGMENT: 12,
    }

    @pytest.mark.parametrize("point", CRASH_POINTS)
    async def test_crash_reopen_matches_twin(self, tmp_path, point):
        injector = FaultInjector()
        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0,
            injector=injector,
        )
        injector.arm(point, after=self.AFTER.get(point, 6))
        tenant = await server.registry.get("t1")
        try:
            for start in range(0, len(self.OPS), self.BATCH):
                if start == self.EVICT_AT:
                    await server.registry.evict("t1")
                    tenant = await server.registry.get("t1")
                serve_batch(server, tenant, self.OPS[start : start + self.BATCH])
        except SimulatedCrash:
            assert injector.fired == [point]
        else:
            # A served tenant writes no segments, so a segment crash
            # point is never reached; the process dies all the same.
            assert injector.fired == []
            assert not (tenant.directory / "segments").exists()
        tenant.recovery.stop()

        server = ReproServer(
            tmp_path, StockProfile(), fsync=False, sweep_interval=0
        )
        tenant = await server.registry.get("t1")
        survived = tenant.engine.state_count
        assert tenant.recovered and tenant.engine.history is None
        assert survived == self.SURVIVED.get(point, 6)
        for start in range(survived, len(self.OPS), self.BATCH):
            serve_batch(server, tenant, self.OPS[start : start + self.BATCH])
        tenant.manager.flush()
        assert tenant.engine.history is None
        assert served_sig(tenant.engine, tenant.manager) == served_sig(
            *twin_replay(stock_twin, self.OPS)
        )
        await server.registry.close_all()


class TestWalFile:
    def test_torn_tail_truncated_on_load(self, tmp_path):
        adb = make_engine()
        setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:4])
        rm.stop()
        size_before = rm.wal_path.stat().st_size
        with open(rm.wal_path, "a") as fp:
            fp.write('{"seq": 4, "ts": 5, "ev')  # torn append
        records, torn = load_wal(rm.wal_path)
        assert torn
        assert len(records) == 5  # base + 4 states
        assert rm.wal_path.stat().st_size == size_before  # truncated back

    def test_mid_file_corruption_rejected(self, tmp_path):
        adb = make_engine()
        setup_rules(adb)
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:4])
        rm.stop()
        lines = rm.wal_path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        rm.wal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError):
            load_wal(rm.wal_path)

    def test_reattach_appends_after_truncation(self, tmp_path):
        adb = make_engine()
        manager = setup_rules(adb)
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        rm.start(adb)
        injector.arm(MID_WAL, after=3)
        with pytest.raises(SimulatedCrash):
            drive(adb, OPS)
        rm.stop()

        rm2 = RecoveryManager(tmp_path)
        report = rm2.recover(setup=lambda e: setup_rules(e))
        rm2.start(report.engine)
        drive(report.engine, OPS[report.engine.state_count:])
        rm2.stop()
        records, torn = load_wal(rm2.wal_path)
        assert not torn
        seqs = [r["seq"] for r in records if r["seq"] is not None]
        assert seqs == list(range(len(OPS)))  # clean, gap-free log


def _enqueue_ops(adb, ops):
    for op in ops:
        adb.enqueue(op_body(op))


class TestGroupCommitCrash:
    """Update batching with WAL group commit: a crash mid-batch-fsync
    must replay or drop the *whole* batch on recovery — never a prefix
    of it."""

    KINDS = ["shared", "perrule"]

    def _setup_for(self, kind):
        return lambda e: setup_rules(e, shared=(kind == "shared"))

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "point", [MID_GROUP_COMMIT, MID_WAL], ids=["fsync", "torn-record"]
    )
    def test_crash_mid_batch_drops_whole_batch(
        self, tmp_path, kind, point, compiled
    ):
        with ptl_mode(compiled):
            self._run_mid_batch_crash(tmp_path, kind, point, OPS)

    @pytest.mark.parametrize(
        "point", [MID_GROUP_COMMIT, MID_WAL], ids=["fsync", "torn-record"]
    )
    def test_row_delta_batch_dropped_whole(self, tmp_path, point):
        """A dropped unmarked group is a *suffix* of the log: the row
        deltas that survive still chain from the base record."""
        self._run_mid_batch_crash(tmp_path, "shared", point, ROW_OPS)

    def test_row_delta_batch_replays_whole(self, tmp_path):
        self._run_durable_batch(tmp_path, "shared", ROW_OPS)

    def test_marker_before_a_reattach_closes_no_later_group(self, tmp_path):
        """Group ids restart with every WAL attach: a group written after
        a reopen that never got its marker is dropped even though a group
        with the same id was committed before the reopen."""
        adb = make_engine()
        rm = RecoveryManager(tmp_path, fsync=False)
        rm.start(adb)
        for op in [("set", 1), ("set", 2)]:  # groups 0 and 1
            _enqueue_ops(adb, [op])
            adb.drain()
        rm.stop()

        engine = RecoveryManager(tmp_path).recover().engine
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, fsync=False, injector=injector)
        rm.start(engine)
        _enqueue_ops(engine, [("set", 3)])  # group 0 again
        engine.drain()
        _enqueue_ops(engine, [("set", 4), ("set", 5)])  # group 1 again
        injector.arm(MID_GROUP_COMMIT)
        with pytest.raises(SimulatedCrash):
            engine.drain()
        rm.stop()

        final = RecoveryManager(tmp_path).recover().engine
        assert final.state_count == 3
        assert final.state.item("price") == 3

    def _run_mid_batch_crash(self, tmp_path, kind, point, ops):
        oracle_adb = make_engine()
        oracle_m = self._setup_for(kind)(oracle_adb)
        drive(oracle_adb, ops)
        oracle_m.flush()

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        self._setup_for(kind)(adb)
        rm.start(adb)
        drive(adb, ops[:3])  # individually durable states
        _enqueue_ops(adb, ops[3:6])
        if point == MID_GROUP_COMMIT:
            injector.arm(point)  # crash before the batch fsync
        else:
            injector.arm(point, after=1)  # torn record inside the batch
        with pytest.raises(SimulatedCrash):
            adb.drain()
        rm.stop()

        records, torn = load_wal(rm.wal_path)
        seqs = [r["seq"] for r in records if r.get("seq") is not None]
        # All-or-nothing: the unmarked group is gone as a unit.
        assert seqs == [0, 1, 2]
        assert torn

        report = RecoveryManager(tmp_path).recover(
            setup=self._setup_for(kind)
        )
        assert report.engine.state_count == 3  # no batch prefix survived
        # Redo the lost batch and the rest; end state matches the oracle.
        drive(report.engine, ops[3:])
        report.manager.flush()
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert report.engine.state == oracle_adb.state
        assert (
            report.manager.executed.to_state()
            == oracle_m.executed.to_state()
        )

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_durable_batch_replays_whole_batch(self, tmp_path, kind, compiled):
        """Once the group fsync lands, recovery replays the entire
        batch."""
        with ptl_mode(compiled):
            self._run_durable_batch(tmp_path, kind, OPS)

    def _run_durable_batch(self, tmp_path, kind, ops):
        oracle_adb = make_engine()
        oracle_m = self._setup_for(kind)(oracle_adb)
        drive(oracle_adb, ops)
        oracle_m.flush()

        rm = RecoveryManager(tmp_path)
        adb = make_engine()
        manager = self._setup_for(kind)(adb)
        rm.start(adb)
        drive(adb, ops[:3])
        _enqueue_ops(adb, ops[3:])
        adb.drain()
        manager.flush()
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=self._setup_for(kind)
        )
        assert report.engine.state_count == len(ops)
        assert report.replayed_steps == len(ops)
        report.manager.flush()
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert report.engine.state == oracle_adb.state

    def test_triggers_deferred_until_batch_durable(self, tmp_path):
        """Rule actions must not observe a state whose batch never
        became durable."""
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb)
        rm.start(adb)
        action = RecordingAction()
        manager.add_trigger("watch", "price > 70", action)
        _enqueue_ops(adb, [("set", 80), ("set", 90)])
        injector.arm(MID_GROUP_COMMIT)
        with pytest.raises(SimulatedCrash):
            adb.drain()
        rm.stop()
        assert action.calls == []  # never ran against undurable states


class FlakyAction(Action):
    """Fails the first ``failures`` calls, then succeeds."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.successes = 0

    def execute(self, ctx):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"flaky failure #{self.calls}")
        self.successes += 1


class TestActionFailureIsolation:
    def _system(self, **manager_kwargs):
        adb = ActiveDatabase(metrics=True)
        adb.declare_item("price", 0)
        manager = adb.rule_manager(trace=True, **manager_kwargs)
        return adb, manager

    def test_default_propagates(self):
        """Without isolation an action failure surfaces as a typed
        ActionError (the commit itself is already durable)."""
        adb, manager = self._system()
        manager.add_trigger("bad", "@go", FlakyAction(99))
        with pytest.raises(ActionError):
            adb.post_event(user_event("go"))

    def test_isolated_failure_spares_other_rules(self):
        """The acceptance property: a failing action neither loses nor
        duplicates other rules' firings.  Nothing reads ``bad``'s
        executions, so its failures are on the record as the
        ``action_failures_total`` counter and ``action_failure`` trace
        events, not as execution records."""
        oracle_adb, oracle_m = self._system()
        good_o = RecordingAction()
        oracle_m.add_trigger("good", "@go", good_o)

        adb, manager = self._system(isolate_action_failures=True)
        good = RecordingAction()
        manager.add_trigger("bad", "@go", FlakyAction(99), priority=1)
        manager.add_trigger("good", "@go", good)

        for _ in range(3):
            oracle_adb.post_event(user_event("go"))
            adb.post_event(user_event("go"))
        assert good.calls == good_o.calls
        assert [f for f in firing_sig(manager) if f[0] == "good"] == \
            firing_sig(oracle_m)
        # the failing rule still *fired*, and each failure is on record
        assert len(manager.firings_of("bad")) == 3
        assert (
            adb.metrics.counter("action_failures_total", rule="bad").value
            == 3
        )
        failures = manager.trace.events(ACTION_FAILURE)
        assert [e.data["rule"] for e in failures] == ["bad"] * 3
        assert [e.data["failures"] for e in failures] == [1, 2, 3]
        assert manager.executed.records(rule="bad") == []

    def test_failed_status_of_a_read_rule(self):
        """A rule some condition reads keeps its execution records, and
        an isolated failure marks its record ``"failed"`` — which still
        satisfies ``executed``: the rule fired, only the effect was
        lost."""
        adb, manager = self._system(isolate_action_failures=True)
        manager.add_trigger("bad", "@go", FlakyAction(1), priority=1)
        audit = RecordingAction()
        manager.add_trigger(
            "audit", "executed(bad, t) & time = t + 1", audit
        )
        adb.post_event(user_event("go"))
        adb.post_event(user_event("go"))
        assert [r.status for r in manager.executed.records(rule="bad")] \
            == ["failed", "ok"]
        assert len(audit.calls) == 1  # the failed execution is read

    def test_bounded_retry_then_success(self):
        adb, manager = self._system(
            isolate_action_failures=True, action_retries=2
        )
        flaky = FlakyAction(2)  # fails twice, third attempt succeeds
        manager.add_trigger("flaky", "@go", flaky)
        # a reader, so that the execution is recorded with its status
        manager.add_trigger(
            "audit", "executed(flaky, t) & time = t + 1", RecordingAction()
        )
        adb.post_event(user_event("go"))
        assert flaky.successes == 1
        assert flaky.calls == 3
        assert (
            adb.metrics.counter("action_retries_total", rule="flaky").value
            == 2
        )
        assert [r.status for r in manager.executed.records(rule="flaky")] \
            == ["ok"]

    def test_quarantine_after_repeated_failures(self):
        adb, manager = self._system(
            isolate_action_failures=True, quarantine_after=2
        )
        flaky = FlakyAction(99)
        manager.add_trigger("bad", "@go", flaky)
        for _ in range(4):
            adb.post_event(user_event("go"))
        assert manager.quarantined_rules() == ["bad"]
        assert flaky.calls == 2  # not called once quarantined
        assert len(manager.firings_of("bad")) == 4  # firings still recorded
        assert adb.metrics.gauge("rules_quarantined").value == 1
        assert (
            adb.metrics.counter("action_failures_total", rule="bad").value
            == 2
        )
        failures = manager.trace.events("action_failure")
        assert failures and failures[-1].data["quarantined"]

        manager.reinstate_rule("bad")
        assert manager.quarantined_rules() == []
        adb.post_event(user_event("go"))
        assert flaky.calls == 3

    def test_ic_abort_unaffected_by_isolation(self):
        from repro.errors import TransactionAborted

        adb, manager = self._system(isolate_action_failures=True)
        manager.add_integrity_constraint("cap", "!(price > 100)")
        with pytest.raises(TransactionAborted):
            adb.execute(lambda t: t.set_item("price", 200))
        assert adb.state.item("price") == 0

    def test_crash_tears_through_isolation(self, tmp_path):
        """SimulatedCrash is a BaseException: isolation and retries must
        not absorb it."""
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb, manager = self._system(
            isolate_action_failures=True, action_retries=5
        )
        rm.start(adb)
        manager.add_trigger("t", "@go", RecordingAction())
        injector.arm(POST_COMMIT)
        with pytest.raises(SimulatedCrash):
            adb.post_event(user_event("go"))
        rm.stop()

    def test_failed_db_action_wrapped_as_action_error(self):
        """Engine-level: a subscriber exception surfaces as ActionError
        with the transaction already committed."""
        from repro.rules.actions import DbAction

        adb, manager = self._system()

        def explode(txn, bindings):
            raise RuntimeError("boom")

        manager.add_trigger(
            "bad", "price > 10", DbAction(explode)
        )
        with pytest.raises(ActionError):
            adb.execute(lambda t: t.set_item("price", 20))
        # the durable point was reached before the action ran
        assert adb.state.item("price") == 20
        assert not adb.txns.active


def _attach_tiers(adb, directory, manager=None, injector=None):
    from repro.history.spill import attach_tiered_history

    return attach_tiered_history(
        adb,
        directory,
        budget_bytes=1_500,
        hot_window=4,
        segment_records=16,
        spill_check_every=1,
        manager=manager,
        injector=injector,
    )


class TestTieredStorageFaults:
    """The tiered-history rows of the crash/fault matrix: a crash or
    torn write mid-spill never corrupts what recovery loads, and a full
    disk degrades the engine instead of diverging memory from the WAL."""

    LONG_OPS = [
        ("upd", i % 6, i) if i % 3 == 0 else ("set", (i * 31) % 97)
        for i in range(40)
    ] + [("ins", 50, 5), ("del", 3), ("ev", "go")]

    @pytest.mark.parametrize(
        "point",
        [MID_SEGMENT_WRITE, TORN_SEGMENT],
        ids=["mid-segment", "torn-segment"],
    )
    def test_crash_mid_spill_differential(self, tmp_path, point):
        oracle_adb = make_engine()
        oracle_m = setup_rules(oracle_adb)
        drive(oracle_adb, self.LONG_OPS)

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        rm.start(adb)
        manager = setup_rules(adb)
        _attach_tiers(adb, tmp_path / "segments", manager, injector)
        injector.arm(point, after=1)
        with pytest.raises(SimulatedCrash):
            drive(adb, self.LONG_OPS)
        rm.stop()
        assert point in injector.fired

        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        # finish on a fresh tiered attachment: the partial segment left
        # by the crash is never loaded as data
        _attach_tiers(report.engine, tmp_path / "segments", report.manager)
        drive(report.engine, self.LONG_OPS[report.engine.state_count :])
        assert firing_sig(report.manager) == firing_sig(oracle_m)
        assert report.engine.state == oracle_adb.state
        assert [s.db for s in report.engine.history] == [
            s.db for s in oracle_adb.history
        ]

    def test_disk_full_degrades_and_recovers_clean(self, tmp_path):
        """DISK_FULL on the WAL: the commit is refused (memory and log
        stay consistent), and what recovery rebuilds matches everything
        the engine acknowledged before degrading."""
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        manager = setup_rules(adb)
        rm.start(adb)
        drive(adb, OPS[:5])
        acknowledged = adb.state_count
        price = adb.state.item("price")
        firings = firing_sig(manager)
        injector.arm_io(DISK_FULL, times=None)
        with pytest.raises(StorageDegradedError):
            drive(adb, OPS[5:])
        assert adb.degraded
        assert adb.state_count == acknowledged
        assert adb.state.item("price") == price
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        assert report.engine.state_count == acknowledged
        assert report.engine.state.item("price") == price
        assert firing_sig(report.manager) == firings
        # the recovered engine is healthy and keeps running
        assert not report.engine.degraded
        drive(report.engine, OPS[5:])


class TestFaultInjector:
    def test_arm_counts_down(self):
        injector = FaultInjector()
        injector.arm(PRE_COMMIT, after=2)
        injector.hit(PRE_COMMIT)
        injector.hit(PRE_COMMIT)
        with pytest.raises(SimulatedCrash) as exc:
            injector.hit(PRE_COMMIT)
        assert exc.value.point == PRE_COMMIT
        injector.hit(PRE_COMMIT)  # disarmed after firing
        assert injector.fired == [PRE_COMMIT]

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().arm("quantum-bitflip")
