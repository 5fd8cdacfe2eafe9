"""Sharded parallel rule evaluation (``repro.parallel``).

Covers the pieces the conformance matrix cannot localize when it fails:

* shard assignment — ``executed``-coupled rules and rules with
  overlapping write-sets land in the same shard, explicit couplings are
  honoured, the packing is deterministic;
* deterministic merge — firing records and action effects follow
  priority-then-registration order regardless of which shard finishes
  first;
* worker crashes — a dead pool worker is rebuilt from its baseline
  payload plus a deterministic tail replay, without losing evaluator
  state (both the process and the thread runtimes);
* the sealed lifecycle — no registration changes once workers hold
  compiled plans;
* sharded checkpoints — recovery restores per-shard state, verifies
  rule fingerprints and the shard layout, and refuses a checkpoint
  taken by a different manager kind.
"""

import pytest

from repro.engine import ActiveDatabase
from repro.errors import RecoveryError, RuleError, TransactionAborted
from repro.events import user_event
from repro.parallel import (
    ShardedRuleManager,
    partition_rules,
    rule_profile,
)
from repro.ptl import parse_formula
from repro.recovery import RecoveryManager
from repro.rules.actions import RecordingAction
from repro.rules.rule import CouplingMode, FireMode


def profile(name, text, writes=()):
    return rule_profile(name, parse_formula(text), writes)


class TestPartition:
    def test_executed_reference_couples_both_directions(self):
        profiles = [
            profile("spike", "price > 50"),
            profile("follow", "executed(spike, t) & time <= t + 4"),
            profile("lone_a", "@go"),
            profile("lone_b", "@halt"),
        ]
        part = partition_rules(profiles, shards=2)
        assert part.shard_of("spike") == part.shard_of("follow")
        # The reverse direction — the *referenced* rule registered later.
        part2 = partition_rules(list(reversed(profiles)), shards=2)
        assert part2.shard_of("spike") == part2.shard_of("follow")
        assert ("spike", "follow") in [
            tuple(sorted(g)) for g in part.groups if len(g) > 1
        ] or any("spike" in g and "follow" in g for g in part.groups)

    def test_unknown_executed_reference_couples_nothing(self):
        profiles = [
            profile("a", "executed(ghost, t) & time <= t + 1"),
            profile("b", "@go"),
        ]
        part = partition_rules(profiles, shards=2)
        assert sorted(part.assignment) == ["a", "b"]
        assert all(len(g) == 1 for g in part.groups)

    def test_write_set_overlap_couples(self):
        profiles = [
            profile("w1", "@go", writes=("cash", "audit")),
            profile("w2", "@halt", writes=("cash",)),
            profile("w3", "@go", writes=("other",)),
        ]
        part = partition_rules(profiles, shards=2)
        assert part.shard_of("w1") == part.shard_of("w2")
        assert part.shard_of("w3") != part.shard_of("w1")

    def test_explicit_coupling_and_unknown_name(self):
        profiles = [profile("a", "@go"), profile("b", "@halt")]
        part = partition_rules(profiles, shards=2, coupled=[("a", "b")])
        assert part.shard_of("a") == part.shard_of("b")
        with pytest.raises(ValueError):
            partition_rules(profiles, shards=2, coupled=[("a", "ghost")])

    def test_deterministic_and_balanced(self):
        profiles = [profile(f"r{i}", "@go") for i in range(8)]
        part = partition_rules(profiles, shards=4)
        again = partition_rules(profiles, shards=4)
        assert part.assignment == again.assignment
        sizes = sorted(len(part.rules_of(s)) for s in range(4))
        assert sizes == [2, 2, 2, 2]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError):
            partition_rules([profile("a", "@go")], shards=0)
        with pytest.raises(ValueError):
            partition_rules(
                [profile("a", "@go"), profile("a", "@go")], shards=2
            )


# ---------------------------------------------------------------------------
# Manager-level behaviour (thread runtime unless a test says otherwise —
# identical code path through the worker, no process startup cost)
# ---------------------------------------------------------------------------

OPS = [
    ("set", "price", 20), ("ev", "go"), ("set", "price", 60),
    ("set", "price", 40), ("ev", "go"), ("set", "price", 80),
    ("set", "price", 55), ("ev", "go"), ("set", "price", 90),
    ("set", "price", 30),
]


def make_engine(metrics=None):
    adb = ActiveDatabase(metrics=metrics)
    adb.declare_item("price", 0)
    return adb


def register_mixed(manager):
    """A rule set that exercises every coupling the merge must preserve."""
    manager.add_trigger(
        "spike", "price > 50", RecordingAction(),
        fire_mode=FireMode.RISING_EDGE,
    )
    manager.add_trigger(
        "follow", "executed(spike, t) & time <= t + 4", RecordingAction(),
        params=("t",),
    )
    manager.add_trigger("on_go", "@go & price > 10", RecordingAction())
    manager.add_trigger(
        "since_go", "@go & (price > 10 since @go)", RecordingAction(),
        coupling=CouplingMode.T_C_A,
    )
    return manager


def drive(adb, ops):
    for op in ops:
        if op[0] == "set":
            adb.execute(lambda t, o=op: t.set_item(o[1], o[2]))
        else:
            adb.post_event(user_event(op[1]))


def firing_sig(manager):
    return [
        (f.rule, f.bindings, f.state_index, f.timestamp)
        for f in manager.firings
    ]


def serial_oracle(register=register_mixed, ops=OPS):
    adb = make_engine()
    manager = register(adb.rule_manager(shared_plan=True))
    drive(adb, ops)
    manager.flush()
    return adb, manager


class TestShardedManager:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @pytest.mark.parametrize(
        "options",
        [{}, {"batch_size": 8, "relevance_filtering": True}],
        ids=["plain", "batched+gated"],
    )
    def test_matches_serial_oracle(self, shards, options):
        """Shard count, batched dispatch and shard-level relevance gating
        change when work happens, never which rules fire or in what order."""
        _, oracle = serial_oracle()
        adb = make_engine()
        manager = register_mixed(
            ShardedRuleManager(
                adb, shards=shards, runtime="thread", **options
            )
        )
        drive(adb, OPS)
        manager.flush()
        assert firing_sig(manager) == firing_sig(oracle)
        assert manager.executed.to_state() == oracle.executed.to_state()

    def test_executed_coupled_rules_co_sharded(self):
        adb = make_engine()
        manager = register_mixed(
            ShardedRuleManager(adb, shards=4, runtime="thread")
        )
        assert manager.shard_of("spike") == manager.shard_of("follow")

    def test_merge_order_is_priority_then_registration(self):
        """Firing/action order within a state must not depend on shard
        completion order: higher priority first, ties by registration."""
        order = []

        def appender(tag):
            return lambda ctx: order.append(tag)

        adb = make_engine()
        manager = ShardedRuleManager(adb, shards=4, runtime="thread")
        manager.add_trigger("low_first", "@go", appender("low_first"))
        manager.add_trigger("high", "@go", appender("high"), priority=5)
        manager.add_trigger("low_second", "@go", appender("low_second"))
        manager.add_trigger("mid", "@go", appender("mid"), priority=1)
        # The four rules are spread over four shards.
        assert len({manager.shard_of(n) for n in
                    ("low_first", "high", "low_second", "mid")}) == 4
        for _ in range(3):
            adb.post_event(user_event("go"))
        expected = ["high", "mid", "low_first", "low_second"]
        assert order == expected * 3
        assert [f.rule for f in manager.firings] == expected * 3

    def test_integrity_constraints_stay_serial_commit_vetoes(self):
        adb = make_engine()
        manager = ShardedRuleManager(adb, shards=2, runtime="thread")
        manager.add_trigger("spike", "price > 50", RecordingAction())
        manager.add_integrity_constraint("cap", "!(price > 1000)")
        drive(adb, OPS[:3])
        with pytest.raises(TransactionAborted):
            adb.execute(lambda t: t.set_item("price", 2000))
        assert adb.state.item("price") == 60  # veto rolled back

    def test_relevance_gating_skips_shards(self):
        """A shard whose rules are all stateless and event-gated never
        sees states without its events."""
        adb = make_engine(metrics=True)
        manager = ShardedRuleManager(
            adb, shards=2, runtime="thread", relevance_filtering=True
        )
        manager.add_trigger("on_go", "@go", RecordingAction())
        manager.add_trigger("on_halt", "@halt", RecordingAction())
        drive(adb, [("set", "price", 10), ("ev", "go"), ("set", "price", 20),
                    ("ev", "go"), ("set", "price", 30)])
        manager.flush()
        gated = adb.metrics.counter("shard_gated_states_total").value
        assert gated > 0
        # Gating must not lose firings.
        assert [f.rule for f in manager.firings] == ["on_go", "on_go"]

    def test_post_seal_registration_goes_live(self):
        """Hot add/remove on a sealed manager reaches the resident
        workers: the late rule fires only for post-registration states,
        and a removed rule stops firing."""
        adb = make_engine()
        manager = ShardedRuleManager(adb, shards=2, runtime="thread")
        manager.add_trigger("spike", "price > 50", RecordingAction())
        drive(adb, OPS[:3])  # first flush seals
        manager.add_trigger("late", "@go", RecordingAction())
        assert manager.shard_of("late") in (0, 1)
        drive(adb, [("ev", "go"), ("set", "price", 80)])
        manager.flush()
        assert [f.rule for f in manager.firings if f.rule == "late"] == ["late"]
        manager.remove_rule("spike")
        before = len(manager.firings)
        drive(adb, [("set", "price", 90)])
        manager.flush()
        assert [f.rule for f in manager.firings[before:]] == []

    def test_rewrite_aggregates_rejected_up_front(self):
        adb = make_engine()
        manager = ShardedRuleManager(adb, shards=2, runtime="thread")
        with pytest.raises(RuleError):
            manager.add_trigger(
                "agg", "price > 50", RecordingAction(),
                rewrite_aggregates=True,
            )


class TestWorkerCrash:
    @pytest.mark.parametrize("runtime", ["thread", "process"])
    def test_crash_rebuild_preserves_state(self, runtime):
        """Kill every shard worker mid-stream; the rebuilt workers must
        carry the temporal state accumulated before the crash."""
        _, oracle = serial_oracle()
        adb = make_engine()
        manager = register_mixed(
            ShardedRuleManager(adb, shards=2, runtime=runtime)
        )
        drive(adb, OPS[:5])
        manager.flush()
        manager.kill_worker(0)
        manager.kill_worker(1)
        drive(adb, OPS[5:])
        manager.flush()
        assert manager.worker_rebuilds == 2
        assert firing_sig(manager) == firing_sig(oracle)
        assert manager.executed.to_state() == oracle.executed.to_state()
        manager.detach()

    def test_repeated_crashes_converge(self):
        _, oracle = serial_oracle()
        adb = make_engine()
        manager = register_mixed(
            ShardedRuleManager(adb, shards=2, runtime="thread")
        )
        for i, op in enumerate(OPS):
            drive(adb, [op])
            if i in (2, 5, 7):
                manager.kill_worker(i % 2)
        manager.flush()
        assert manager.worker_rebuilds == 3
        assert firing_sig(manager) == firing_sig(oracle)


class TestShardedCheckpoint:
    def _run(self, tmp_path, shards=2):
        adb = make_engine()
        manager = register_mixed(
            ShardedRuleManager(adb, shards=shards, runtime="thread")
        )
        rm = RecoveryManager(tmp_path)
        rm.start(adb)
        drive(adb, OPS[:6])
        manager.flush()
        rm.checkpoint(adb, manager)
        drive(adb, OPS[6:])
        rm.stop()
        return adb, manager

    def _sharded_setup(self, shards=2):
        def setup(engine):
            return register_mixed(
                ShardedRuleManager(engine, shards=shards, runtime="thread")
            )

        return setup

    def test_recover_restores_per_shard_state(self, tmp_path):
        _, oracle = serial_oracle()
        self._run(tmp_path)
        report = RecoveryManager(tmp_path).recover(
            setup=self._sharded_setup()
        )
        assert report.checkpoint_used
        assert report.replayed_steps == len(OPS) - 6
        manager = report.manager
        manager.flush()
        assert firing_sig(manager) == firing_sig(oracle)
        assert manager.executed.to_state() == oracle.executed.to_state()
        # The recovered system keeps evaluating correctly.
        drive(report.engine, [("set", "price", 95)])
        manager.flush()
        assert firing_sig(manager)[-1][0] == "spike"

    def test_cross_kind_recovery_rejected(self, tmp_path):
        self._run(tmp_path)
        with pytest.raises(RecoveryError, match="manager kind"):
            RecoveryManager(tmp_path).recover(
                setup=lambda e: register_mixed(
                    e.rule_manager(shared_plan=True)
                )
            )

    def test_changed_shard_layout_rejected(self, tmp_path):
        self._run(tmp_path, shards=2)
        with pytest.raises(RecoveryError):
            RecoveryManager(tmp_path).recover(
                setup=self._sharded_setup(shards=3)
            )

    def test_changed_rule_condition_rejected(self, tmp_path):
        self._run(tmp_path)

        def tampered(engine):
            manager = ShardedRuleManager(engine, shards=2, runtime="thread")
            manager.add_trigger(
                "spike", "price > 99", RecordingAction(),
                fire_mode=FireMode.RISING_EDGE,
            )
            manager.add_trigger(
                "follow", "executed(spike, t) & time <= t + 4",
                RecordingAction(), params=("t",),
            )
            manager.add_trigger("on_go", "@go & price > 10",
                                RecordingAction())
            manager.add_trigger(
                "since_go", "@go & (price > 10 since @go)",
                RecordingAction(), coupling=CouplingMode.T_C_A,
            )
            return manager

        with pytest.raises(RecoveryError):
            RecoveryManager(tmp_path).recover(setup=tampered)
