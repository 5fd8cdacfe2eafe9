"""Tiered history spill: the memory governor, checksummed segments,
transparent deep-past faulting, I/O fault hardening, and degraded mode.

The headline property is a differential one: an engine whose history
spills to disk under a tiny memory budget — including with transient I/O
faults injected mid-run — must be observationally identical to an
all-in-RAM oracle: same firings (rule, bindings, state index,
timestamp), same states under random access / ``as_of`` / iteration,
same executed store.  On top of that: no torn or corrupted segment is
ever loaded (fingerprints), a disk that stays broken flips the engine
into degraded read-only mode deterministically (and back out), a
checkpoint of a spilled run recovers bit-identically across the
per-rule / shared-plan and interpreted / compiled backends, and a
checkpoint written while execution records still spilled restores.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.errors import RecoveryError, StorageDegradedError
from repro.history.history import SystemHistory
from repro.history.spill import (
    MemoryGovernor,
    TieredHistory,
    attach_tiered_history,
)
from repro.ptl.compiled import set_ptl_compile
from repro.recovery import (
    DISK_FULL,
    FSYNC_FAIL,
    MID_SEGMENT_WRITE,
    TORN_SEGMENT,
    FaultInjector,
    RecoveryManager,
    SimulatedCrash,
)
from repro.rules.actions import RecordingAction
from repro.rules.rule import CouplingMode, FireMode
from repro.storage.tiers import SegmentStore, retry_io

from tests.helpers import drive, firing_sig, make_orders


# -- shared workload ---------------------------------------------------------


def make_engine(metrics=False):
    adb = ActiveDatabase(metrics=metrics)
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
        "watch",
        "price > 10 since @go",
        RecordingAction(),
        coupling=CouplingMode.T_C_A,
    )
    return manager


def long_ops(n=120):
    ops = []
    for i in range(n):
        ops.append(("set", (i * 37) % 97))
        if i % 7 == 0:
            ops.append(("ev", "go"))
    return ops


def row_ops(n=80):
    """``long_ops`` with ``ORDERS`` row inserts, updates and deletes
    mixed in: the tiers must carry relations as row deltas."""
    ops = []
    for i, op in enumerate(long_ops(n)):
        ops.append(op)
        if i % 3 == 0:
            ops.append(("upd", i % 6, i))
        if i % 10 == 4:
            ops.append(("ins", 100 + i, i))
        if i % 10 == 9:
            ops.append(("del", 100 + i - 5))
    return ops


def assert_same_states(history, oracle_history):
    """Every position, through every access path, against the in-RAM
    oracle: indexing, iteration, slices and ``as_of`` — whole database
    states, relations included."""
    n = len(oracle_history)
    assert len(history) == n
    want = [(s.index, s.timestamp, s.events, s.db) for s in oracle_history]
    sig = lambda s: (s.index, s.timestamp, s.events, s.db)
    assert [sig(s) for s in history] == want
    assert [sig(history[i]) for i in range(n)] == want
    assert [sig(history[i]) for i in reversed(range(n))] == want[::-1]
    for cut in (slice(0, n, 3), slice(n // 3, 2 * n // 3), slice(-5, None)):
        # a slice is a fresh history: it re-indexes from 0 in both
        assert [sig(s) for s in history[cut]] == [
            sig(s) for s in oracle_history[cut]
        ]
    for state in oracle_history:
        assert sig(history.as_of(state.timestamp)) == sig(state)
    assert history.as_of(oracle_history[0].timestamp - 1) is None


def assert_faulted_states_share_rows(history):
    """Two consecutive faulted states hold the *same* ``Row`` objects for
    every row that did not change between them (and the same relation
    when none did): a fault costs its deltas, not a copy per state."""
    for pos in range(1, history.spilled_states):
        if history._segment_for(pos) != history._segment_for(pos - 1):
            continue
        older = history[pos - 1].db.relation("ORDERS")
        newer = history[pos].db.relation("ORDERS")
        if older == newer:
            assert newer is older
            continue
        mine = {row: row for row in older}
        assert all(mine[row] is row for row in newer if row in mine)


def attach(adb, directory, manager=None, injector=None, **kw):
    kw.setdefault("budget_bytes", 2_000)
    kw.setdefault("hot_window", 8)
    kw.setdefault("segment_records", 16)
    kw.setdefault("spill_check_every", 1)
    return attach_tiered_history(
        adb, directory, manager=manager, injector=injector, **kw
    )


# -- SegmentStore ------------------------------------------------------------


class TestSegmentStore:
    def test_roundtrip_and_fingerprint(self, tmp_path):
        store = SegmentStore(tmp_path)
        rows = [{"i": i, "v": "x" * i} for i in range(10)]
        info = store.write_segment("history", rows, meta={"first_pos": 0})
        assert info["count"] == 10
        assert list(store.load_segment(info)) == rows
        assert list(store.load_segment(info["name"])) == rows  # header self-check

    def test_rewritten_segment_is_byte_identical(self, tmp_path):
        """Each history segment of a durable directory an earlier commit
        wrote, fed back to ``write_segment`` as a one-shot generator of
        its records, is the same file with the same descriptor."""
        segments = V4_EXECUTED_TIER / "segments"
        manifest = {
            info["name"]: info
            for info in json.loads((segments / "MANIFEST.json").read_text())[
                "segments"
            ]
        }
        originals = sorted(segments.glob("seg-history-*.jsonl"))
        assert originals
        for original in originals:
            data = original.read_bytes()
            header, *lines = data.splitlines(keepends=True)
            header = json.loads(header)
            store = SegmentStore(tmp_path / original.stem, fsync=False)
            info = store.write_segment(
                header["tier"],
                (json.loads(line) for line in lines),
                meta=header["meta"],
            )
            assert store.segment_path(info["name"]).read_bytes() == data
            want = dict(manifest[original.name], name=info["name"])
            assert info == want
            assert info["bytes"] == len(data)

    def test_tampered_payload_refused(self, tmp_path):
        store = SegmentStore(tmp_path)
        info = store.write_segment("history", [{"i": 1}, {"i": 2}])
        path = store.segment_path(info["name"])
        lines = path.read_text().splitlines()
        lines[1] = '{"i": 999}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError, match="verification"):
            store.load_segment(info)

    def test_torn_tail_refused_not_half_read(self, tmp_path):
        """A crash mid-write leaves a torn final record: load truncates
        it from the parse and then refuses the unsealed segment."""
        store = SegmentStore(tmp_path)
        info = store.write_segment("history", [{"i": 1}, {"i": 2}])
        path = store.segment_path(info["name"])
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 6])  # tear the final record
        with pytest.raises(RecoveryError):
            store.load_segment(info)

    def test_mid_file_corruption_refused(self, tmp_path):
        store = SegmentStore(tmp_path)
        info = store.write_segment("history", [{"i": i} for i in range(3)])
        path = store.segment_path(info["name"])
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecoveryError):
            store.load_segment(info)

    def test_fingerprint_mismatch_refused(self, tmp_path):
        store = SegmentStore(tmp_path)
        info = store.write_segment("history", [{"i": 1}])
        stale = dict(info, sha256="0" * 64)
        with pytest.raises(RecoveryError, match="fingerprint"):
            store.load_segment(stale)

    def test_quarantine_orphans(self, tmp_path):
        store = SegmentStore(tmp_path)
        live = store.write_segment("history", [{"i": 1}])
        (tmp_path / "seg-history-000099.jsonl").write_text("debris")
        quarantined = store.quarantine_orphans([live["name"]])
        assert quarantined == ["seg-history-000099.jsonl"]
        assert (tmp_path / "seg-history-000099.jsonl.orphan").exists()
        assert list(store.load_segment(live)) == [{"i": 1}]

    def test_transient_fault_retried(self, tmp_path):
        injector = FaultInjector()
        store = SegmentStore(
            tmp_path, injector=injector, metrics=True, sleep=lambda s: None
        )
        injector.arm_io(FSYNC_FAIL, times=2)
        info = store.write_segment("history", [{"i": 1}])
        assert list(store.load_segment(info)) == [{"i": 1}]
        assert store.metrics.counter("io_retries_total").value == 2

    def test_disk_full_not_retried(self, tmp_path):
        injector = FaultInjector()
        store = SegmentStore(
            tmp_path, injector=injector, metrics=True, sleep=lambda s: None
        )
        injector.arm_io(DISK_FULL, times=None)
        with pytest.raises(OSError):
            store.write_segment("history", [{"i": 1}])
        # ENOSPC is non-transient: exactly one attempt, no partial file
        assert injector.fired.count(DISK_FULL) == 1
        assert list(tmp_path.glob("seg-*.jsonl")) == []
        assert store.metrics.counter("segment_faults_total").value >= 1

    def test_retry_exhaustion_propagates(self, tmp_path):
        injector = FaultInjector()
        store = SegmentStore(
            tmp_path,
            injector=injector,
            retries=2,
            sleep=lambda s: None,
        )
        injector.arm_io(FSYNC_FAIL, times=None)
        with pytest.raises(OSError):
            store.write_segment("history", [{"i": 1}])
        assert injector.fired.count(FSYNC_FAIL) == 3  # 1 try + 2 retries

    def test_retry_io_backoff_doubles(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 4:
                import errno

                raise OSError(errno.EIO, "transient")
            return "ok"

        assert (
            retry_io(flaky, retries=3, backoff=1.0, sleep=sleeps.append)
            == "ok"
        )
        assert sleeps == [1.0, 2.0, 4.0]


# -- TieredHistory vs the in-RAM oracle -------------------------------------


class TestTieredHistoryEquivalence:
    def _pair(self, tmp_path, ops):
        oracle = make_engine()
        oracle_m = setup_rules(oracle)
        drive(oracle, ops)

        adb = make_engine()
        manager = setup_rules(adb)
        attach(adb, tmp_path / "segments", manager=manager)
        drive(adb, ops)
        return oracle, oracle_m, adb, manager

    def test_spilled_run_matches_oracle(self, tmp_path):
        ops = long_ops()
        oracle, oracle_m, adb, manager = self._pair(tmp_path, ops)
        assert adb.history.spilled_states > 0, "budget never tripped"
        assert firing_sig(manager) == firing_sig(oracle_m)
        assert len(adb.history) == len(oracle.history)
        # iteration covers the spilled prefix transparently
        assert [
            (s.index, s.timestamp, s.db.item("price"))
            for s in adb.history
        ] == [
            (s.index, s.timestamp, s.db.item("price"))
            for s in oracle.history
        ]
        # random access faults segments as needed
        for pos in (0, 1, len(ops) // 2, len(adb.history) - 1, -1):
            a, b = adb.history[pos], oracle.history[pos]
            assert (a.index, a.timestamp) == (b.index, b.timestamp)
            assert a.db.item("price") == b.db.item("price")
        assert adb.history.commit_points() == oracle.history.commit_points()

    def test_as_of_and_up_to_time(self, tmp_path):
        ops = long_ops()
        oracle, _, adb, _ = self._pair(tmp_path, ops)
        for ts in (0, 1, 5, 17, 60, oracle.history.last.timestamp + 10):
            a, b = adb.as_of(ts), oracle.as_of(ts)
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.index, a.timestamp) == (b.index, b.timestamp)
        cut = oracle.history[40].timestamp
        assert len(adb.history.up_to_time(cut)) == len(
            oracle.history.up_to_time(cut)
        )

    def test_hot_window_bounds_memory(self, tmp_path):
        adb = make_engine()
        attach(adb, tmp_path / "segments", hot_window=8)
        peak = 0
        for i in range(200):
            adb.execute(lambda t, i=i: t.set_item("price", i % 90))
            peak = max(peak, adb.history.hot_states)
        # spill checks run per state: hot states never exceed the window
        # by more than the states appended between two checks
        assert peak <= 8 + 2
        assert adb.history.spilled_states >= 190
        assert len(adb.history) == 200

    def test_slicing_and_prefix(self, tmp_path):
        ops = long_ops(60)
        oracle, _, adb, _ = self._pair(tmp_path, ops)
        a = [s.index for s in adb.history[10:20]]
        b = [s.index for s in oracle.history[10:20]]
        assert a == b
        assert len(adb.history.prefix(15)) == 15

    def test_metrics_exported(self, tmp_path):
        adb = ActiveDatabase(metrics=True)
        adb.declare_item("price", 0)
        attach(adb, tmp_path / "segments")
        for i in range(120):
            adb.execute(lambda t, i=i: t.set_item("price", i))
        m = adb.metrics
        assert m.counter("history_spilled_bytes").value > 0
        assert m.gauge("history_spilled_states").value > 0
        assert m.gauge("governor_bytes").value >= 0
        assert m.gauge("governor_budget_bytes").value == 2_000
        assert m.gauge("segments_total").value > 0
        # the history's own account, live at append and at eviction
        history = adb.history
        assert m.gauge("history_hot_states").value == history.hot_states
        assert (
            m.gauge("history_hot_bytes").value
            == history.estimated_hot_bytes()
            > 0
        )
        assert m.gauge("governor_bytes").value >= history.estimated_hot_bytes()
        # deep-past read faults at least one segment: the fault cache
        # holds that segment's records, not its states
        assert m.gauge("history_faulted_records").value == 0
        history[0]
        assert m.counter("history_faults_total").value >= 1
        assert (
            m.gauge("history_faulted_records").value
            == history._catalog[0]["count"]
        )


class TestGovernor:
    def test_accounts_and_budget(self):
        gov = MemoryGovernor(budget_bytes=100)
        gov.register("a", lambda: 60)
        assert not gov.over_budget()
        gov.register("b", lambda: 50)
        assert gov.over_budget()
        assert gov.usage() == {"a": 60, "b": 50}
        gov.unregister("b")
        assert not gov.over_budget()


# -- hypothesis differential: spill + mid-run transient faults ---------------


OP = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 100)),
    st.tuples(st.just("ev"), st.just("go")),
    st.tuples(st.just("ins"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("upd"), st.integers(0, 9), st.integers(0, 3)),
    st.tuples(st.just("del"), st.integers(0, 9)),
)


class TestSpillDifferential:
    @settings(max_examples=25)
    @given(
        ops=st.lists(OP, min_size=5, max_size=50),
        budget=st.integers(200, 4_000),
        hot=st.integers(1, 12),
        fault_at=st.one_of(st.none(), st.integers(0, 40)),
        fault_times=st.integers(1, 3),
    )
    def test_spilled_engine_matches_ram_oracle(
        self, ops, budget, hot, fault_at, fault_times
    ):
        """The tentpole property: tiny budget, arbitrary workload,
        transient I/O faults injected mid-run — the spilled engine is
        observationally identical to the all-in-RAM oracle."""
        oracle = make_engine()
        oracle_m = setup_rules(oracle)
        drive(oracle, ops)

        directory = tempfile.mkdtemp(prefix="tiers-hyp-")
        try:
            injector = FaultInjector()
            adb = make_engine()
            manager = setup_rules(adb)
            attach(
                adb,
                directory,
                manager=manager,
                injector=injector,
                budget_bytes=budget,
                hot_window=hot,
            )
            for i, op in enumerate(ops):
                if fault_at == i:
                    injector.arm_io(FSYNC_FAIL, times=fault_times)
                drive(adb, [op])
            assert not adb.degraded
            assert firing_sig(manager) == firing_sig(oracle_m)
            assert adb.state == oracle.state
            assert_same_states(adb.history, oracle.history)
            assert_faulted_states_share_rows(adb.history)
            key = lambda r: (r.time, r.rule, r.params)
            assert sorted(manager.executed.records(), key=key) == sorted(
                oracle_m.executed.records(), key=key
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)


# -- degraded read-only mode -------------------------------------------------


class TestDegradedMode:
    def _spilling_engine(self, tmp_path, injector):
        adb = ActiveDatabase(metrics=True)
        adb.declare_item("price", 0)
        rm = RecoveryManager(tmp_path, injector=injector)
        rm.start(adb)
        manager = setup_rules(adb)
        attach(
            adb, tmp_path / "segments", manager=manager, injector=injector
        )
        return adb, manager, rm

    def test_wal_disk_full_refuses_commit_cleanly(self, tmp_path):
        injector = FaultInjector()
        adb, manager, rm = self._spilling_engine(tmp_path, injector)
        drive(adb, long_ops(30))
        count = adb.state_count
        price = adb.state.item("price")
        injector.arm_io(DISK_FULL, times=None)
        with pytest.raises(StorageDegradedError):
            adb.execute(lambda t: t.set_item("price", 7))
        # memory untouched: the refused commit never half-applied
        assert adb.degraded
        assert adb.state_count == count
        assert adb.state.item("price") == price
        assert adb.metrics.gauge("storage_degraded").value == 1
        # reads and rule evaluation over committed states still work
        assert adb.as_of(adb.last_state.timestamp).index == count - 1
        assert len(list(adb.history)) == count
        rm.stop()

    def test_spill_failure_degrades_not_raises(self, tmp_path):
        """An OSError surviving the spill's retries must not surface in
        the committing transaction (already durable) — it degrades."""
        injector = FaultInjector()
        adb = ActiveDatabase(metrics=True)
        adb.declare_item("price", 0)
        runtime = attach(
            adb, tmp_path / "segments", injector=injector, hot_window=4
        )
        for i in range(30):
            adb.execute(lambda t, i=i: t.set_item("price", i))
        assert adb.history.spilled_states > 0
        injector.arm_io(DISK_FULL, times=None)
        # the commit that trips the governor still succeeds...
        for i in range(12):
            if adb.degraded:
                break
            adb.execute(lambda t, i=i: t.set_item("price", 50 + i))
        assert adb.degraded
        assert "spill failed" in adb.degraded_reason
        # ...and nothing was lost: the in-memory copy is authoritative
        assert len(adb.history) == adb.state_count

    def test_deterministic_exit_and_reentry(self, tmp_path):
        injector = FaultInjector()
        adb, manager, rm = self._spilling_engine(tmp_path, injector)
        drive(adb, long_ops(20))
        injector.arm_io(DISK_FULL, times=None)
        with pytest.raises(StorageDegradedError):
            adb.execute(lambda t: t.set_item("price", 7))
        # exit is refused while the disk is still sick
        with pytest.raises(OSError):
            adb.exit_degraded()
        assert adb.degraded
        # disk heals: probe passes, appends flow again
        injector.disarm(DISK_FULL)
        adb.exit_degraded()
        assert not adb.degraded
        assert adb.metrics.gauge("storage_degraded").value == 0
        adb.execute(lambda t: t.set_item("price", 7))
        assert adb.state.item("price") == 7
        rm.stop()

    def test_degraded_entry_is_deterministic(self, tmp_path):
        """Same workload, same fault schedule -> degraded mode entered at
        the same state count, twice."""
        counts = []
        for run in range(2):
            directory = tmp_path / f"run{run}"
            injector = FaultInjector()
            adb, manager, rm = self._spilling_engine(directory, injector)
            drive(adb, long_ops(15))
            injector.arm_io(DISK_FULL, times=None)
            with pytest.raises(StorageDegradedError):
                drive(adb, long_ops(15))
            counts.append(adb.state_count)
            rm.stop()
        assert counts[0] == counts[1]


# -- crash-mid-spill: no corrupted segment is ever loaded --------------------


class TestSpillCrash:
    @pytest.mark.parametrize("point", [MID_SEGMENT_WRITE, TORN_SEGMENT])
    def test_crash_mid_spill_never_loads_partial_segment(
        self, tmp_path, point
    ):
        oracle = make_engine()
        oracle_m = setup_rules(oracle)
        ops = long_ops(60)
        drive(oracle, ops)

        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        rm.start(adb)
        manager = setup_rules(adb)
        attach(
            adb, tmp_path / "segments", manager=manager, injector=injector
        )
        injector.arm(point, after=2)
        with pytest.raises(SimulatedCrash):
            drive(adb, ops)
        rm.stop()

        # the partial segment the crash left behind must never be loaded:
        # recovery replays the WAL, reattaches fresh tiers, and the
        # spilled run still matches the oracle
        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        adb2, manager2 = report.engine, report.manager
        runtime = attach(
            adb2, tmp_path / "segments", manager=manager2
        )
        drive(adb2, ops[adb2.state_count :])
        assert firing_sig(manager2) == firing_sig(oracle_m)
        assert adb2.state.item("price") == oracle.state.item("price")
        # deep-past reads only ever touch sealed, verified segments
        for pos in (0, 10, 30, len(adb2.history) - 1):
            assert (
                adb2.history[pos].db.item("price")
                == oracle.history[pos].db.item("price")
            )

    def test_checkpoint_quarantines_crash_debris(self, tmp_path):
        """After a crash mid-spill, a checkpointed restore quarantines
        the unreferenced partial segment file."""
        injector = FaultInjector()
        rm = RecoveryManager(tmp_path, injector=injector)
        adb = make_engine()
        rm.start(adb)
        manager = setup_rules(adb)
        attach(
            adb, tmp_path / "segments", manager=manager, injector=injector
        )
        ops = long_ops(60)
        injector.arm(MID_SEGMENT_WRITE, after=2)
        with pytest.raises(SimulatedCrash):
            drive(adb, ops)
        rm.stop()
        debris = sorted(p.name for p in (tmp_path / "segments").glob("*.jsonl"))

        report = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        adb2, manager2 = report.engine, report.manager
        rm2 = RecoveryManager(tmp_path)
        rm2.start(adb2)
        attach(adb2, tmp_path / "segments", manager=manager2)
        drive(adb2, ops[adb2.state_count :])
        manager2.flush()
        rm2.checkpoint(adb2, manager2)
        rm2.stop()

        report2 = RecoveryManager(tmp_path).recover(
            setup=lambda e: setup_rules(e)
        )
        orphans = list((tmp_path / "segments").glob("*.orphan"))
        live = {
            info["name"]
            for info in report2.engine.history.tier_state()["segments"]
        }
        assert all(p.name.removesuffix(".orphan") not in live for p in orphans)
        # every pre-crash debris file either became live (rewritten name)
        # or is quarantined — none is silently loadable as data
        for name in debris:
            seg = tmp_path / "segments" / name
            assert seg.name in live or not seg.exists()


# -- checkpoint + recovery of a spilled run across backends ------------------


class TestSpilledRecovery:
    KINDS = ["shared", "perrule"]

    def _setup_for(self, kind):
        return lambda e: setup_rules(e, shared=(kind == "shared"))

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_spilled_checkpoint_recovers_bit_identically(
        self, tmp_path, kind, compiled
    ):
        prev = set_ptl_compile(compiled)
        try:
            self._run(tmp_path, kind)
        finally:
            set_ptl_compile(prev)

    def _run(self, tmp_path, kind):
        ops = row_ops(60)
        oracle = make_engine()
        oracle_m = self._setup_for(kind)(oracle)
        drive(oracle, ops)
        oracle_m.flush()

        rm = RecoveryManager(tmp_path)
        adb = make_engine()
        rm.start(adb)
        manager = self._setup_for(kind)(adb)
        attach(adb, tmp_path / "segments", manager=manager)
        cut = 60
        drive(adb, ops[:cut])
        assert adb.history.spilled_states > 0, "checkpoint must cover spill"
        manager.flush()
        ck = rm.checkpoint(adb, manager)
        assert ck.get("tiers"), "checkpoint must reference live segments"
        drive(adb, ops[cut:])
        manager.flush()
        rm.stop()

        report = RecoveryManager(tmp_path).recover(
            setup=self._setup_for(kind)
        )
        adb2, manager2 = report.engine, report.manager
        assert report.checkpoint_used
        assert report.replayed_steps == len(adb2.history) - len(
            adb.history
        ) + (len(ops) - cut)
        manager2.flush()
        assert firing_sig(manager2)[-5:] == firing_sig(oracle_m)[-5:]
        assert adb2.state == oracle.state
        # the restored history covers the whole run bit-identically:
        # segments below the checkpoint, the row-delta WAL tail above it
        assert_same_states(adb2.history, oracle.history)
        assert_faulted_states_share_rows(adb2.history)
        # ...and keeps running + spilling
        drive(adb2, [("set", 60), ("set", 40)])
        assert len(adb2.history) == len(oracle.history) + 2


# -- execution records under a tiered history --------------------------------


def setup_chained(adb):
    manager = adb.rule_manager()
    manager.add_trigger("base", "price > 20", RecordingAction())
    manager.add_trigger(
        "chained", "executed(base, t) & time = t + 5", RecordingAction()
    )
    return manager


class TestExecutedUnderTiers:
    def test_read_rules_are_kept_in_ram_and_nothing_spills(self, tmp_path):
        """Execution records are not a tier: the manager keeps exactly
        the records of rules some condition reads (``base``, read by
        ``chained``), in memory, however small the budget — no
        ``seg-executed-*`` segment is written and no checkpoint section
        describes one."""
        oracle = make_engine()
        oracle_m = setup_chained(oracle)
        adb = make_engine()
        manager = setup_chained(adb)
        runtime = attach(
            adb, tmp_path / "segments", manager=manager, budget_bytes=500
        )

        ops = long_ops(80)
        drive(oracle, ops)
        drive(adb, ops)
        assert adb.history.spilled_states > 0
        assert firing_sig(manager) == firing_sig(oracle_m)
        assert manager.executed.records() == oracle_m.executed.records()
        assert {r.rule for r in manager.executed.records()} == {"base"}
        assert len(manager.executed) == len(manager.firings_of("base"))
        assert list((tmp_path / "segments").glob("seg-executed-*")) == []
        assert set(runtime.archive()) == {"history", "budget_bytes"}
        assert "executed" not in runtime.governor.usage()


#: A durable directory written by commit 9cbc0b7, the last to spill
#: execution records: a format-4 checkpoint whose ``tiers.executed``
#: section lists two ``seg-executed-*`` segments, and a WAL tail past it.
#: It ran ``setup_v4_fixture`` over ``long_ops(24)`` with a
#: checkpoint after the first 18 ops (see the fixture's README.md).
V4_EXECUTED_TIER = Path(__file__).parent / "fixtures" / "ckpt_v4_executed_tier"


def setup_v4_fixture(adb):
    manager = adb.rule_manager()
    manager.add_trigger("base", "price > 20", RecordingAction())
    manager.add_trigger(
        "rise", "price > 50 & lasttime price <= 50", RecordingAction()
    )
    manager.add_trigger(
        "chained", "executed(rise, t) & time <= t + 3", RecordingAction(),
        params=("t",),
    )
    return manager


class TestOldExecutedTierCheckpoint:
    def test_restores_and_replays_like_its_twin(self, tmp_path):
        """A checkpoint that carries ``tiers.executed`` still restores.
        Its spilled records were, by construction, records of rules no
        condition read (``base``, ``chained``), which are no longer kept:
        their segment files are quarantined as ``*.orphan`` like any
        segment the history does not list.  The restored run then equals
        a twin fed the same operations from scratch."""
        root = tmp_path / "durable"
        shutil.copytree(V4_EXECUTED_TIER, root)
        checkpoint = json.loads((root / "checkpoint.json").read_text())
        assert checkpoint["format"] == 4
        spilled = [
            info["name"] for info in checkpoint["tiers"]["executed"]["segments"]
        ]
        assert spilled and all(n.startswith("seg-executed-") for n in spilled)

        report = RecoveryManager(root).recover(setup=setup_v4_fixture)
        adb, manager = report.engine, report.manager
        assert report.checkpoint_used and report.replayed_steps > 0
        manager.flush()

        twin = ActiveDatabase()
        twin.declare_item("price", 0)
        twin_m = setup_v4_fixture(twin)
        ops = long_ops(24)
        drive(twin, ops)
        twin_m.flush()
        assert adb.state_count == twin.state_count == len(ops)
        assert firing_sig(manager) == firing_sig(twin_m)
        assert manager.executed.records() == twin_m.executed.records()
        assert {r.rule for r in manager.executed.records()} == {"rise"}
        assert_same_states(adb.history, twin.history)

        segments = root / "segments"
        assert list(segments.glob("seg-executed-*.jsonl")) == []
        orphans = {p.name for p in segments.glob("*.orphan")}
        assert {f"{name}.orphan" for name in spilled} <= orphans
        for info in checkpoint["tiers"]["history"]["segments"]:
            assert (segments / info["name"]).exists()


class TestAuxSpill:
    def test_value_at_faults_spilled_versions(self, tmp_path):
        from repro.ptl.auxrel import AuxiliaryRelation
        from repro.query.parser import parse_query

        store = SegmentStore(tmp_path)
        rel = AuxiliaryRelation("v", parse_query("price"))

        class FakeState:
            def __init__(self, p):
                self.p = p

            def item(self, name):
                return self.p

            def raw_item(self, name):
                return self.p

        from repro.storage.snapshot import DatabaseState

        adb = make_engine()
        for t in range(10):
            adb.execute(lambda t_, v=t: t_.set_item("price", v * 10))
        for s in adb.history:
            rel.observe(s.db, s.timestamp)
        full = {t: rel.value_at(t) for t in range(1, 11)}
        moved = rel.spill_cold(horizon=6, store=store)
        assert moved > 0
        assert len(rel) < 10
        for t in range(1, 11):
            assert rel.value_at(t) == full[t], f"t={t}"
