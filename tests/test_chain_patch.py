"""Incremental chain patching + compiled aggregate maintenance.

PR 6's chain was rebuilt from scratch whenever the rule set changed and
left aggregate maintenance interpreted.  This suite locks down the two
extensions:

* **patching** — hot add compiles only the new rule's unshared suffix
  into an appended segment (``chain_patches`` counts, ``chain_builds``
  stays at one); hot remove refcounts slots out, swaps dead temporal
  slots inert, drops empty segments, and compacts lazily once enough
  dead slots pile up.  The canonical layout fingerprint of a patched
  chain equals a fresh rebuild's for the same rule set, so checkpoint
  drift detection keeps working across churn;
* **aggregate maintenance** — windowed log append/expire and running
  sum/count/min/max deltas run inside the generated function (the
  ``maintained`` map), with the interpreted objects holding the state;
  releasing the last reader turns the maintenance block off via its
  flag without regenerating code;
* **lifecycle differential** — hypothesis scripts of states and
  add/remove/replace/promote ops on twin shared-plan managers (one per
  mode) must agree on firings and the whole serialized plan state after
  every op, with the slot vector checked against the interpreted twin's
  node states; a mid-churn checkpoint of the *patched* chain restores
  bit-identically into a fresh manager.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.obs import MetricsRegistry
from repro.ptl import EvalContext, SharedPlan, parse_formula
from repro.ptl.compiled import CompiledChain, set_ptl_compile
from repro.rules.actions import RecordingAction
from repro.rules.rule import FireMode
from repro.rules.manager import RuleManager

from tests.helpers import apply_op, drive, firing_sig
from tests.test_ptl_compile import (
    TEMPLATES,
    assert_vector_matches_nodes,
    make_manager,
    mode,
    strip_compiled,
)

#: Aggregate-bearing conditions exercisable at plan level: a windowed
#: sum over the trailing 5 time units, a running average anchored at a
#: ground start, and a windowed count (no value read — count of samples).
AGG_TEMPLATES = [
    "[u := time] (sum(price; time <= u - 5; @go) > 200)",
    "avg(price; time >= 0; @go) > 55",
    "[u := time] (count(price; time <= u - 3; @go) >= 2)",
]

OPS = [
    ("set", 20), ("ev", "go"), ("set", 70), ("ev", "go"), ("set", 65),
    ("set", 90), ("ev", "go"), ("set", 30), ("ev", "go"), ("set", 75),
    ("ev", "go"), ("set", 55), ("set", 85), ("ev", "go"), ("set", 60),
]


def chain_of(plan) -> CompiledChain:
    chain = plan._chain
    assert isinstance(chain, CompiledChain), chain
    return chain


# ---------------------------------------------------------------------------
# Patch mechanics
# ---------------------------------------------------------------------------


class TestChainPatching:
    def test_hot_add_appends_a_segment(self):
        with mode(True):
            adb, manager = make_manager([(3, FireMode.ALWAYS), (6, FireMode.ALWAYS)])
            drive(adb, OPS[:5])
            plan = manager.plan
            chain = chain_of(plan)
            assert plan.chain_builds == 1 and plan.chain_patches == 0
            segs, nodes = len(chain.segments), chain.n_nodes
            fp_two = chain.fingerprint
            manager.add_trigger("dyn", TEMPLATES[4], RecordingAction())
            drive(adb, OPS[5:8])
            assert plan.chain_patches == 1 and plan.chain_builds == 1
            assert chain_of(plan) is chain  # same object, patched
            assert len(chain.segments) == segs + 1
            assert chain.n_nodes > nodes
            assert chain.fingerprint != fp_two
            manager.detach()

            # A fresh plan over the same three rules fingerprints equal —
            # the canonical layout is a function of the rule set, not of
            # the patch history.
            adb2, m2 = make_manager([(3, FireMode.ALWAYS), (6, FireMode.ALWAYS)])
            m2.add_trigger("dyn", TEMPLATES[4], RecordingAction())
            drive(adb2, OPS[:1])
            fresh = chain_of(m2.plan)
            assert m2.plan.chain_builds == 1
            assert fresh.fingerprint == chain.fingerprint
            m2.detach()

    def test_hot_remove_releases_and_drops_segment(self):
        with mode(True):
            adb, manager = make_manager([(3, FireMode.ALWAYS)])
            drive(adb, OPS[:3])
            plan = manager.plan
            chain = chain_of(plan)
            base = (len(chain.segments), chain.n_nodes, chain.n_query_slots)
            fp_one = chain.fingerprint
            manager.add_trigger("dyn", TEMPLATES[4], RecordingAction())
            drive(adb, OPS[3:6])
            assert chain.n_temporal > 1
            manager.remove_rule("dyn")
            drive(adb, OPS[6:9])
            # The dyn-only segment lost all its slots and was dropped;
            # the layout is back to the single-rule shape, fingerprint
            # included (remove + re-add of the same rule is a no-op for
            # drift detection — the plan remains the state authority).
            assert (
                len(chain.segments), chain.n_nodes, chain.n_query_slots
            ) == base
            assert chain.fingerprint == fp_one
            assert plan.chain_patches == 2
            manager.detach()

    def test_shared_suffix_survives_remove_with_state(self):
        """Removing one of two rules sharing a ``lasttime`` subformula
        keeps the shared slot live and its temporal state intact."""
        with mode(True):
            adb = ActiveDatabase()
            adb.declare_item("price", 0)
            manager = RuleManager(adb, shared_plan=True)
            manager.add_trigger("keep", TEMPLATES[3], RecordingAction())
            manager.add_trigger(
                "transient",
                "lasttime price <= 50 & previously[3] (price > 60)",
                RecordingAction(),
            )
            drive(adb, [("set", 20), ("set", 70), ("set", 40)])
            plan = manager.plan
            chain = chain_of(plan)
            nodes_before = chain.n_nodes
            manager.remove_rule("transient")
            drive(adb, [("set", 55)])
            assert chain_of(plan) is chain
            assert chain.n_nodes < nodes_before
            assert chain.dead_slots > 0
            # "keep" still sees the crossing 40 -> 55 through the shared
            # lasttime slot.
            assert [f.rule for f in manager.firings][-1] == "keep"
            manager.detach()

    def test_compaction_rebuilds_after_mass_removal(self):
        with mode(True):
            adb = ActiveDatabase()
            adb.declare_item("price", 0)
            manager = RuleManager(adb, shared_plan=True)
            manager.add_trigger("keep", "price > 50", RecordingAction())
            for i in range(70):
                manager.add_trigger(
                    f"bulk{i}", f"price > {100 + i}", RecordingAction()
                )
            drive(adb, [("set", 60)])
            plan = manager.plan
            chain = chain_of(plan)
            assert plan.chain_builds == 1
            for i in range(70):
                manager.remove_rule(f"bulk{i}")
            drive(adb, [("set", 70)])
            # 70 dead slots against 1 live one crosses the compaction
            # threshold: the next ensure is a fresh build, not a patch.
            assert plan.chain_builds == 2
            new_chain = chain_of(plan)
            assert new_chain is not chain
            assert new_chain.dead_slots == 0
            assert [f.rule for f in manager.firings][-1] == "keep"
            manager.detach()

    def test_patch_metrics_observable(self):
        registry = MetricsRegistry()
        with mode(True):
            from repro.history.state import SystemState
            from repro.storage.snapshot import DatabaseState

            plan = SharedPlan(EvalContext(), metrics=registry)
            plan.add_rule(
                "a",
                parse_formula("previously[3] (price > 60)", None, {"price"}),
            )
            plan.step(SystemState(DatabaseState({"price": 70}), [], 0))
            plan.add_rule(
                "b", parse_formula("price > 10", None, {"price"})
            )
            plan.step(SystemState(DatabaseState({"price": 20}), [], 1))
            assert (
                registry.counter("plan_chain_patches_total").value
                == plan.chain_patches
                == 1
            )
            hist = registry.histogram("plan_chain_build_seconds")
            assert hist.count == plan.chain_builds == 1
            assert hist.total > 0


# ---------------------------------------------------------------------------
# Compiled aggregate maintenance
# ---------------------------------------------------------------------------


def run_agg_managed(compiled, churn=False):
    with mode(compiled):
        adb, manager = make_manager([])
        for i, text in enumerate(AGG_TEMPLATES):
            manager.add_trigger(f"agg{i}", text, RecordingAction())
        plan = manager.plan
        for j, op in enumerate(OPS):
            if churn and j == 6:
                manager.add_trigger(
                    "late", AGG_TEMPLATES[2].replace(">= 2", ">= 3"),
                    RecordingAction(),
                )
            if churn and j == 11:
                manager.remove_rule("late")
            apply_op(adb, op)
            manager.flush()
        sig = firing_sig(manager)
        final = strip_compiled(plan.to_state())
        aggs = sorted(
            (str(term), repr(agg.get_state()))
            for (term, _, _), agg in plan._aggregates.items()
        )
        info = None
        if compiled:
            chain = chain_of(plan)
            info = {
                "maintained": len(chain.maintained),
                "patches": plan.chain_patches,
                "builds": plan.chain_builds,
            }
        manager.detach()
        return sig, final, aggs, info


class TestCompiledAggregateMaintenance:
    def test_plan_aggregates_maintained_in_chain(self):
        sig_i, final_i, aggs_i, _ = run_agg_managed(False)
        sig_c, final_c, aggs_c, info = run_agg_managed(True)
        assert info["maintained"] == len(AGG_TEMPLATES)
        assert sig_c == sig_i
        assert final_c == final_i
        assert aggs_c == aggs_i
        assert any(fired for _, fired in [(s[0], True) for s in sig_i]), (
            "workload never fired — weak differential"
        )

    def test_declined_accumulator_rolls_back_to_a_slot_fed_call(
        self, monkeypatch
    ):
        """An accumulator the inliner declines keeps its interpreted
        ``advance`` — called from the chain with φ/ψ read off their slots,
        so no node is stepped twice and the rest stays compiled."""
        from repro.ptl import compiled

        sig_i, final_i, aggs_i, _ = run_agg_managed(False)
        monkeypatch.setattr(compiled, "_RUNNING_FUNCS", ("sum", "count"))
        with mode(True):
            adb, manager = make_manager([])
            manager.add_trigger("avg", AGG_TEMPLATES[1], RecordingAction())
            drive(adb, OPS[:2])
            source = chain_of(manager.plan).source
            manager.detach()
        assert ".advance(state, " in source and "._sum +=" not in source
        sig_c, final_c, aggs_c, info = run_agg_managed(True)
        assert info["maintained"] == len(AGG_TEMPLATES)
        assert (sig_c, final_c, aggs_c) == (sig_i, final_i, aggs_i)

    def test_maintenance_survives_churn(self):
        sig_i, final_i, aggs_i, _ = run_agg_managed(False, churn=True)
        sig_c, final_c, aggs_c, info = run_agg_managed(True, churn=True)
        assert sig_c == sig_i
        assert final_c == final_i
        assert aggs_c == aggs_i
        assert info["patches"] >= 2 and info["builds"] == 1

    def test_release_clears_maintenance_flag(self):
        with mode(True):
            adb, manager = make_manager([(0, FireMode.ALWAYS)])
            manager.add_trigger("agg", AGG_TEMPLATES[0], RecordingAction())
            drive(adb, OPS[:4])
            plan = manager.plan
            chain = chain_of(plan)
            assert len(chain.maintained) == 1
            entry = next(iter(chain.maintained.values()))
            assert entry.flag[0] is True
            manager.remove_rule("agg")
            drive(adb, OPS[4:7])
            assert chain_of(plan) is chain
            assert not chain.maintained
            assert entry.flag[0] is False
            manager.detach()

    def test_minmax_running_aggregates_differential(self):
        for text in (
            "max(price; time >= 0; @go) >= 70",
            "min(price; time >= 0; @go) < 30",
        ):
            results = {}
            for compiled in (False, True):
                with mode(compiled):
                    adb, manager = make_manager([])
                    manager.add_trigger("m", text, RecordingAction())
                    drive(adb, OPS)
                    results[compiled] = (
                        firing_sig(manager),
                        strip_compiled(manager.plan.to_state()),
                    )
                    if compiled:
                        assert len(chain_of(manager.plan).maintained) == 1
                    manager.detach()
            assert results[True] == results[False], text


# ---------------------------------------------------------------------------
# Lifecycle differential with per-op slot-vector checks
# ---------------------------------------------------------------------------

#: add/remove/replace/promote interleaved with states; indices resolve
#: modulo the live dynamic-rule list at execution time.
patch_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 100)),
        st.tuples(st.just("ev"), st.sampled_from(["go", "halt"])),
        st.tuples(
            st.just("add"),
            st.integers(0, len(TEMPLATES) - 1),
            st.booleans(),
        ),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(
            st.just("replace"),
            st.integers(0, 7),
            st.integers(0, len(TEMPLATES) - 1),
        ),
        st.tuples(st.just("promote"), st.integers(0, 7)),
    ),
    min_size=8,
    max_size=16,
)


def apply_lifecycle_op(manager, op, defs, counter):
    kind = op[0]
    if kind == "add":
        name = f"dyn{counter[0]}"
        counter[0] += 1
        manager.add_trigger(
            name, TEMPLATES[op[1]], RecordingAction(), shadow=op[2]
        )
        defs.append([name, op[1], op[2]])
    elif kind == "remove":
        if defs:
            i = op[1] % len(defs)
            manager.remove_rule(defs[i][0])
            del defs[i]
    elif kind == "replace":
        if defs:
            i = op[1] % len(defs)
            name = defs[i][0]
            manager.replace_rule(name, TEMPLATES[op[2]], RecordingAction())
            del defs[i]
            defs.append([name, op[2], False])
    elif kind == "promote":
        if defs:
            i = op[1] % len(defs)
            manager.promote_rule(defs[i][0])
            defs[i][2] = False


@given(script=patch_scripts)
@settings(max_examples=15, deadline=None)
def test_lifecycle_differential_with_slot_vectors(script):
    with mode(False):
        adb_i, m_interp = make_manager([(1, FireMode.ALWAYS), (3, FireMode.ALWAYS)])
    with mode(True):
        adb_c, m_comp = make_manager([(1, FireMode.ALWAYS), (3, FireMode.ALWAYS)])
    defs_i, defs_c = [], []
    counter_i, counter_c = [0], [0]
    for op in script:
        with mode(False):
            if op[0] in ("set", "ev"):
                apply_op(adb_i, op)
            else:
                apply_lifecycle_op(m_interp, op, defs_i, counter_i)
            m_interp.flush()
            si = m_interp.plan.to_state()
        with mode(True):
            if op[0] in ("set", "ev"):
                apply_op(adb_c, op)
            else:
                apply_lifecycle_op(m_comp, op, defs_c, counter_c)
            m_comp.flush()
            sc = m_comp.plan.to_state()
        compiled_section = sc.pop("compiled", None)
        assert strip_compiled(sc) == strip_compiled(si), (
            f"plan state diverged after {op}"
        )
        assert firing_sig(m_comp) == firing_sig(m_interp)
        chain = m_comp.plan._chain
        if isinstance(chain, CompiledChain):
            assert_vector_matches_nodes(chain, si)
            if compiled_section is not None:
                assert compiled_section["fingerprint"] == chain.fingerprint
    lifecycle_ops = sum(1 for op in script if op[0] not in ("set", "ev"))
    stepped = sum(1 for op in script if op[0] in ("set", "ev"))
    if lifecycle_ops and stepped:
        assert m_comp.plan.chain_builds <= 1
    m_interp.detach()
    m_comp.detach()


CHURN_PREFIX = [
    ("set", 20), ("set", 70), ("ev", "go"), ("set", 65),
    ("add", 4), ("set", 40), ("set", 90), ("remove-first-dyn",),
    ("add", 6), ("ev", "go"), ("set", 30),
]
CHURN_SUFFIX = [
    ("set", 75), ("ev", "go"), ("set", 55), ("set", 85), ("ev", "halt"),
    ("set", 60), ("ev", "go"), ("set", 95),
]


def _drive_churn(adb, manager, ops, defs):
    counter = [len(defs)]
    for op in ops:
        if op[0] == "add":
            name = f"dyn{counter[0]}"
            counter[0] += 1
            manager.add_trigger(name, TEMPLATES[op[1]], RecordingAction())
            defs.append((name, op[1]))
        elif op[0] == "remove-first-dyn":
            name, _ = defs.pop(0)
            manager.remove_rule(name)
        else:
            apply_op(adb, op)
            manager.flush()


def test_midchurn_checkpoint_restores_over_patched_chain():
    """A checkpoint taken after the chain has been patched (add + remove
    mid-stream) restores into a freshly built chain bit-identically:
    same fingerprint, same continuation."""
    with mode(True):
        adb, manager = make_manager([(3, FireMode.ALWAYS), (6, FireMode.ALWAYS)])
        defs = []
        _drive_churn(adb, manager, CHURN_PREFIX, defs)
        assert manager.plan.chain_patches >= 2
        snap = manager.plan.to_state()
        assert "compiled" in snap
        fired_at_ckpt = len(manager.firings)

        # Twin engine replays the same commits (identical indices and
        # timestamps) with no manager attached, then a fresh manager
        # restores the patched chain's checkpoint.
        adb2 = ActiveDatabase()
        adb2.declare_item("price", 0)
        for op in CHURN_PREFIX:
            if op[0] in ("set", "ev"):
                apply_op(adb2, op)
        m2 = RuleManager(adb2, shared_plan=True)
        m2.add_trigger("r0", TEMPLATES[3], RecordingAction())
        m2.add_trigger("r1", TEMPLATES[6], RecordingAction())
        for name, template in defs:
            m2.add_trigger(name, TEMPLATES[template], RecordingAction())
        m2.plan.from_state(snap)
        # The restored plan rebuilt its chain fresh; the canonical
        # fingerprint matches the patched original, so the round trip
        # re-serializes identically.
        assert m2.plan.chain_builds == 1
        snap2 = m2.plan.to_state()
        assert snap2 == snap

        for op in CHURN_SUFFIX:
            apply_op(adb, op)
            manager.flush()
            apply_op(adb2, op)
            m2.flush()
            assert m2.plan.to_state() == manager.plan.to_state()
        post = [
            (f.rule, f.bindings, f.state_index, f.timestamp)
            for f in manager.firings[fired_at_ckpt:]
        ]
        assert post and firing_sig(m2) == post
        manager.detach()
        m2.detach()
