"""Compiled-vs-interpreted differential suite for the PTL recurrence
chains (:mod:`repro.ptl.compiled`).

The compiled backend lowers each rule's ``Since``/``Lasttime``/bounded
window/aggregate recurrences into one flat generated function over the
shared plan's slot layout; the interpreted node graph stays in the tree as
the oracle.  These tests hold the two together:

* **step-by-step differential** — hypothesis-generated rule sets
  (negation, windows, ``since``, assignments) run on twin managers, one
  per mode, comparing firings, the whole serialized plan state, *and* the
  chain's slot vector against the interpreted twin's temporal-node states
  after every single commit;
* **executed()-coupling** — the `spike`/`follow` pair whose second rule
  reads the executed relation the first one writes;
* **windowed aggregates** — the paper's running-average rule differenced
  through :class:`~repro.ptl.aggregates.RewrittenEvaluator`;
* **checkpoint/restore** — a mid-run compiled checkpoint restored into a
  fresh plan continues bit-identically, and a tampered slot-layout
  fingerprint raises :class:`~repro.errors.RecoveryError`;
* **accounting** — ``stored_size`` traces, prune behaviour, and the
  ``plan_compiled*`` / ``evaluator_compiled_ops`` gauges are pinned so the
  bounded-memory guarantees cannot silently change under the chains.
"""

import json
import re
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ActiveDatabase
from repro.errors import RecoveryError
from repro.obs import MetricsRegistry
from repro.ptl import EvalContext, IncrementalEvaluator, SharedPlan, parse_formula
from repro.ptl.aggregates import RewrittenEvaluator
from repro.ptl.compiled import (
    CompiledChain,
    ptl_compile_enabled,
    set_ptl_compile,
)
from repro.ptl.incremental import _encode_node_state
from repro.rules.actions import RecordingAction
from repro.rules.manager import RuleManager
from repro.rules.rule import FireMode

from tests.helpers import (
    apply_op,
    firing_sig,
    run_evaluator,
    stock_history,
    stock_registry,
)


def strip_compiled(payload):
    """Drop every ``compiled`` slot-vector section, at any nesting level —
    what remains is the node-state part both backends must agree on."""
    if isinstance(payload, dict):
        return {
            k: strip_compiled(v)
            for k, v in payload.items()
            if k != "compiled"
        }
    if isinstance(payload, list):
        return [strip_compiled(v) for v in payload]
    return payload


def canon_agg_names(payload):
    """Renumber ``AGG_<n>`` rewrite names by order of first appearance.

    The aggregate rewriter draws names from a process-global counter, so
    two evaluator instances for the same formula never serialize with the
    same numbers; the numbering is an instance-order artifact, not part of
    the semantics either backend computes."""
    text = json.dumps(payload, sort_keys=True)
    mapping = {}

    def repl(m):
        return mapping.setdefault(m.group(0), f"AGG#{len(mapping)}")

    return re.sub(r"AGG_\d+", repl, text)


def rewritten_state(ev):
    """Everything a :class:`RewrittenEvaluator` carries between steps:
    its condition plan's state plus the maintenance plan's — the r1/r2
    rules, their φ/ψ temporal nodes and the accumulators."""
    return {
        "evaluator": ev.to_state(),
        "maintenance": ev.maintenance.to_state(),
    }


@contextmanager
def mode(compiled: bool):
    prev = set_ptl_compile(compiled)
    try:
        yield
    finally:
        set_ptl_compile(prev)


def test_toggle_mechanics():
    prev = set_ptl_compile(True)
    try:
        assert ptl_compile_enabled()
        assert set_ptl_compile(False) is True
        assert not ptl_compile_enabled()
    finally:
        set_ptl_compile(prev)


# -- step-by-step differential ----------------------------------------------

#: Condition templates over a scalar ``price`` item and user events,
#: spanning negation, both temporal recurrences, bounded windows (positive
#: and negated), and assignment binding.
TEMPLATES = [
    "price > 50",
    "price > 30 & !@halt",
    "!(price > 50) & @go",
    "price > 50 & lasttime price <= 50",
    "previously[3] (price > 60)",
    "!previously[2] (price < 20)",
    "@go & (price > 10 since @go)",
    "throughout_past[4] (price < 90)",
    "[x := price] (x > 50 & @go)",
]

rule_sets = st.lists(
    st.tuples(
        st.integers(0, len(TEMPLATES) - 1),
        st.sampled_from([FireMode.ALWAYS, FireMode.RISING_EDGE]),
    ),
    min_size=1,
    max_size=4,
)

op_streams = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 100)),
        st.tuples(st.just("ev"), st.sampled_from(["go", "halt"])),
    ),
    min_size=4,
    max_size=12,
)


def make_manager(rules):
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    manager = RuleManager(adb, shared_plan=True)
    for i, (template, fire_mode) in enumerate(rules):
        manager.add_trigger(
            f"r{i}", TEMPLATES[template], RecordingAction(),
            fire_mode=fire_mode,
        )
    return adb, manager


def assert_vector_matches_nodes(chain, interp_plan_state):
    """The chain's slot vector must mirror, label for label, the temporal
    node states the *interpreted* twin holds after the same commit."""
    by_label: dict = {}
    for label, _prune, _birth, encoded in interp_plan_state["temporal"]:
        by_label.setdefault(label, []).append(encoded)
    for kind, label, snap in chain.slot_values():
        assert kind in ("since", "last")
        candidates = by_label.get(label)
        assert candidates, f"chain slot {label!r} missing from node states"
        candidates.remove(_encode_node_state(snap))


@given(rules=rule_sets, ops=op_streams)
@settings(max_examples=20, deadline=None)
def test_differential_stepping(rules, ops):
    adb_i, m_interp = None, None
    with mode(False):
        adb_i, m_interp = make_manager(rules)
    with mode(True):
        adb_c, m_comp = make_manager(rules)
    for op in ops:
        with mode(False):
            apply_op(adb_i, op)
            m_interp.flush()
            si = m_interp.plan.to_state()
        with mode(True):
            apply_op(adb_c, op)
            m_comp.flush()
            sc = m_comp.plan.to_state()
        compiled_section = sc.pop("compiled", None)
        assert strip_compiled(sc) == strip_compiled(si), (
            "plan state diverged between backends"
        )
        assert firing_sig(m_comp) == firing_sig(m_interp)
        chain = m_comp.plan._chain
        if isinstance(chain, CompiledChain):
            assert_vector_matches_nodes(chain, si)
            if compiled_section is not None:
                assert compiled_section["fingerprint"] == chain.fingerprint
    m_interp.detach()
    m_comp.detach()


# -- executed()-coupling -----------------------------------------------------

EXEC_OPS = [
    ("set", 20), ("set", 60), ("ev", "go"), ("set", 40),
    ("set", 80), ("set", 55), ("ev", "go"), ("set", 90),
]


def run_exec_coupled(compiled: bool):
    with mode(compiled):
        adb = ActiveDatabase()
        adb.declare_item("price", 0)
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger(
            "spike", "price > 50", RecordingAction(),
            fire_mode=FireMode.RISING_EDGE,
        )
        manager.add_trigger(
            "follow", "executed(spike, t) & time <= t + 4",
            RecordingAction(), params=("t",),
        )
        states = []
        for op in EXEC_OPS:
            apply_op(adb, op)
            manager.flush()
            states.append(strip_compiled(manager.plan.to_state()))
        sig = (firing_sig(manager), manager.executed.to_state())
        manager.detach()
        return sig, states


def test_executed_coupling_differential():
    sig_i, states_i = run_exec_coupled(False)
    sig_c, states_c = run_exec_coupled(True)
    assert any(r[0] == "follow" for r in sig_i[0])  # coupling exercised
    assert sig_c == sig_i
    assert states_c == states_i


# -- windowed aggregates -----------------------------------------------------

AGG_RULES = [
    "avg(price(IBM); time = 540; @update_stocks) > 70",
    "avg(price(IBM); time = 540; @update_stocks) > 70"
    " & previously[2] (price(IBM) > 60)",
    "sum(1; time = 540; @update_stocks) >= 3 & lasttime price(IBM) < 80",
]


@pytest.mark.parametrize("text", AGG_RULES)
def test_aggregate_differential(text):
    registry = stock_registry()
    prices = [60, 90, 50, 95, 72, 88, 40, 66]
    history = stock_history(
        [(p, 540 + i * 60) for i, p in enumerate(prices)]
    )
    f = parse_formula(text, registry)
    with mode(False):
        ev_i = RewrittenEvaluator(f)
        fired_i = [(r.fired, r.bindings) for r in run_evaluator(ev_i, history)]
        final_i = rewritten_state(ev_i)
    with mode(True):
        ev_c = RewrittenEvaluator(f)
        fired_c = [(r.fired, r.bindings) for r in run_evaluator(ev_c, history)]
        final_c = rewritten_state(ev_c)
        assert ev_c.compiled_ops() > 0
    assert fired_c == fired_i
    assert canon_agg_names(strip_compiled(final_c)) == canon_agg_names(
        strip_compiled(final_i)
    )


# -- mid-run checkpoint / restore -------------------------------------------

CKPT_TEMPLATES = [
    "previously[3] (price > 60)",
    "price > 50 & lasttime price <= 50",
    "@go & (price > 10 since @go)",
]

CKPT_OPS = [
    ("set", 20), ("set", 70), ("ev", "go"), ("set", 65), ("set", 40),
    ("set", 90), ("ev", "go"), ("set", 30), ("set", 75), ("set", 55),
]


def test_midrun_checkpoint_restore_roundtrip():
    with mode(True):
        adb, manager = make_manager(
            [(TEMPLATES.index(t), FireMode.ALWAYS) for t in CKPT_TEMPLATES]
        )
        for op in CKPT_OPS[:5]:
            apply_op(adb, op)
        manager.flush()
        snap = manager.plan.to_state()
        assert "compiled" in snap, "compiled section missing from checkpoint"

        # Fresh plan, same rules: restore must verify the fingerprint and
        # rebuild the slot vector bit-identically.
        plan2 = SharedPlan(EvalContext(executed=manager.executed))
        for name, entry in manager.plan._rules.items():
            plan2.add_rule(name, entry.formula, entry.ctx)
        plan2.from_state(snap)
        snap2 = plan2.to_state()
        assert snap2 == snap

        # Both plans continue in lockstep over the remaining operations.
        for op in CKPT_OPS[5:]:
            apply_op(adb, op)
        manager.flush()
        # Replay the same post-checkpoint states into the restored plan;
        # it must reproduce exactly the firings the live plan produced.
        replayed = []
        for state in adb.history.states[5:]:
            plan2.step(state)
            for name in manager.plan.rule_names():
                res = plan2.result_of(name)
                if res.fired:
                    for b in res.bindings:
                        replayed.append(
                            (name, state.index, tuple(sorted(dict(b).items())))
                        )
        live = sorted(
            (f.rule, f.state_index, tuple(sorted(f.bindings)))
            for f in manager.firings
            if f.state_index >= 5
        )
        assert sorted(replayed) == live
        assert plan2.to_state() == manager.plan.to_state()
        manager.detach()


def test_restore_refuses_fingerprint_drift():
    with mode(True):
        adb, manager = make_manager([(4, FireMode.ALWAYS)])
        for op in CKPT_OPS[:4]:
            apply_op(adb, op)
        manager.flush()
        snap = manager.plan.to_state()
        snap["compiled"]["fingerprint"] = "0" * 16
        plan2 = SharedPlan(EvalContext(executed=manager.executed))
        for name, entry in manager.plan._rules.items():
            plan2.add_rule(name, entry.formula, entry.ctx)
        with pytest.raises(RecoveryError, match="slot-layout drift"):
            plan2.from_state(snap)
        manager.detach()


def test_restore_refuses_wrong_slot_count():
    with mode(True):
        f = parse_formula("previously[3] (price > 60)", None, {"price"})
        payload = IncrementalEvaluator(f).to_state()
        section = payload["plan"]["compiled"]
        assert section["slots"] > 0
        section["slots"] += section["slots"]
        with pytest.raises(RecoveryError, match="temporal slots"):
            IncrementalEvaluator(f).from_state(payload)


def test_interpreted_checkpoint_loads_into_compiled_mode():
    """A checkpoint written with the interpreted backend (no ``compiled``
    section) restores fine under REPRO_PTL_COMPILE=1 — the chain rebuilds
    its vector from the restored node states."""
    with mode(False):
        adb, manager = make_manager([(4, FireMode.ALWAYS), (6, FireMode.ALWAYS)])
        for op in CKPT_OPS[:6]:
            apply_op(adb, op)
        manager.flush()
        snap = manager.plan.to_state()
        assert "compiled" not in snap
        tops = {
            name: manager.plan.result_of(name).fired
            for name in manager.plan.rule_names()
        }
    with mode(True):
        plan2 = SharedPlan(EvalContext(executed=manager.executed))
        for name, entry in manager.plan._rules.items():
            plan2.add_rule(name, entry.formula, entry.ctx)
        plan2.from_state(snap)
        for name, fired in tops.items():
            assert plan2.result_of(name).fired == fired
        # Continue a step to prove the chain runs off the restored nodes.
        plan2.step(adb.history.states[-1])
    manager.detach()


# -- stored-size / prune accounting and gauges ------------------------------

def test_stored_size_and_prune_identical_across_modes():
    """Bounded-memory accounting (PR 2) must be invariant under the
    compiled backend: identical stored_size trace, flat once the window
    has filled."""
    f = parse_formula("previously[4] (price > 60)", None, {"price"})
    values = [70, 20, 80, 90, 10, 75, 30, 85, 65, 50, 95, 40]

    def trace(compiled):
        from repro.storage.snapshot import DatabaseState
        from repro.history.state import SystemState

        with mode(compiled):
            ev = IncrementalEvaluator(f)
            sizes = []
            for i, v in enumerate(values):
                st_ = SystemState(DatabaseState({"price": v}), [], i)
                ev.step(st_)
                sizes.append(ev.state_size())
            return sizes

    interp = trace(False)
    comp = trace(True)
    assert comp == interp
    # Flat tail: pruning holds the window bounded in both modes.
    tail = comp[6:]
    assert max(tail) <= max(comp[:6]) + 2


def test_gauges_pinned_under_compiled_backend():
    registry = MetricsRegistry()
    with mode(True):
        plan = SharedPlan(EvalContext(), metrics=registry)
        plan.add_rule(
            "w", parse_formula("previously[3] (price > 60)", None, {"price"})
        )
        from repro.storage.snapshot import DatabaseState
        from repro.history.state import SystemState

        for i, v in enumerate([70, 40, 80]):
            plan.step(SystemState(DatabaseState({"price": v}), [], i))
        assert registry.value("plan_compiled") == 1
        assert registry.value("plan_compiled_ops") == plan.compiled_ops()
        assert plan.compiled_ops() > 0
        assert registry.value("plan_rules") == 1
        assert registry.value("plan_state_size") == plan.state_size()
    with mode(False):
        plan.step(
            SystemState(DatabaseState({"price": 90}), [], 3)
        )
        assert registry.value("plan_compiled") == 0


def test_evaluator_gauge_pinned():
    registry = MetricsRegistry()
    from repro.storage.snapshot import DatabaseState
    from repro.history.state import SystemState

    with mode(True):
        ev = IncrementalEvaluator(
            parse_formula("previously[3] (price > 60)", None, {"price"}),
            metrics=registry, name="w",
        )
        ev.step(SystemState(DatabaseState({"price": 70}), [], 0))
        assert ev.compiled_ops() > 0
        assert registry.value("evaluator_compiled_ops", rule="w") == ev.compiled_ops()
    with mode(False):
        ev.step(SystemState(DatabaseState({"price": 30}), [], 1))
        assert registry.value("evaluator_compiled_ops", rule="w") == 0
