"""SharedPlan: common-subformula elimination across rules.

THEOREM 1 must survive sharing: a rule evaluated off the shared plan fires
at exactly the states, with exactly the bindings, that its own private
one-rule plan (:class:`IncrementalEvaluator`) produces — and both fire
exactly where the reference semantics (:func:`repro.ptl.semantics.answers`)
says.  Shared and unshared are the same code grouped differently, so the
first comparison is the CSE-soundness check and the second is what keeps
the plan from being graded against itself.  The differential tests check
that step-by-step over random rule sets built to share subformulas
(including ``executed(...)``-coupled rules, so plan sharing doesn't break
Section 7 composite actions), and the manager-level test replays a stock
workload under ``shared_plan=True`` and ``False`` and compares the firing
logs.
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.events import user_event
from repro.obs import MetricsRegistry
from repro.ptl import (
    EvalContext,
    ExecutedStore,
    IncrementalEvaluator,
    SharedPlan,
)
from repro.ptl import answers, ast, parse_formula
from repro.ptl import constraints as cs
from repro.query.parser import parse_query
from repro.rules import RecordingAction, RuleManager
from repro.workloads import apply_tick, make_stock_db
from repro.workloads.generator import (
    FormulaGenerator,
    random_executed_store,
    random_history,
)
from tests.helpers import stock_history, stock_registry
from tests.test_ptl_compile import mode


def overlapping_formulas(rng, allow_executed=False):
    """Three rule conditions guaranteed to share subformulas: the second
    and third embed the first two as operands."""
    gen = FormulaGenerator(rng, max_depth=3, allow_executed=allow_executed)
    f1, f2 = gen.formula(), gen.formula()
    return [f1, ast.And((f1, f2)), ast.Or((f2, ast.Not(f1)))]


def canon(bindings):
    """Order-insensitive form of a firing's bindings."""
    return sorted(
        (tuple(sorted(b.items(), key=lambda kv: kv[0])) for b in bindings),
        key=repr,
    )


def assert_equivalent(formulas, history, store):
    plan = SharedPlan(EvalContext(executed=store))
    views = [
        plan.add_rule(f"r{i}", f) for i, f in enumerate(formulas)
    ]
    independents = [
        IncrementalEvaluator(f, EvalContext(executed=store))
        for f in formulas
    ]
    oracle_ctx = EvalContext(executed=store)
    for pos, state in enumerate(history):
        for i, (view, ev) in enumerate(zip(views, independents)):
            shared = view.step(state)
            alone = ev.step(state)
            expected = bool(
                answers(history.states, pos, formulas[i], oracle_ctx)
            )
            assert shared.fired == expected, (
                f"rule r{i} diverged from the reference semantics at "
                f"position {pos}: plan={shared.fired} "
                f"reference={expected}\nformula: {formulas[i]}"
            )
            assert shared.fired == alone.fired, (
                f"rule r{i} diverged at position {pos}: "
                f"shared={shared.fired} independent={alone.fired}\n"
                f"formula: {formulas[i]}"
            )
            assert canon(shared.bindings) == canon(alone.bindings), (
                f"rule r{i} bindings diverged at position {pos}\n"
                f"formula: {formulas[i]}"
            )
    return plan


class TestSharedPlanDifferential:
    @given(seed=st.integers(0, 10_000))
    def test_plan_matches_per_rule_evaluators(self, seed):
        rng = random.Random(seed)
        formulas = overlapping_formulas(rng)
        history = random_history(rng, 12)
        assert_equivalent(formulas, history, ExecutedStore())

    @given(seed=st.integers(0, 10_000))
    def test_plan_matches_with_executed_atoms(self, seed):
        """Rules coupled through the Section 7 ``executed`` predicate share
        the one execution store; sharing their subformulas must not change
        what they see."""
        rng = random.Random(seed)
        formulas = overlapping_formulas(rng, allow_executed=True)
        history = random_history(rng, 10)
        assert_equivalent(formulas, history, random_executed_store(seed))


class TestSharedPlanSharing:
    def test_identical_rules_add_no_nodes(self):
        rng = random.Random(7)
        gen = FormulaGenerator(rng, max_depth=3)
        f = gen.formula()
        plan = SharedPlan()
        plan.add_rule("a", f)
        nodes_after_first = plan.distinct_nodes()
        plan.add_rule("b", f)
        assert plan.distinct_nodes() == nodes_after_first
        assert plan.dedup_ratio() > 0.0

    def test_overlapping_rules_share(self):
        rng = random.Random(11)
        formulas = overlapping_formulas(rng)
        plan = SharedPlan()
        for i, f in enumerate(formulas):
            plan.add_rule(f"r{i}", f)
        # f1 appears in all three rules, f2 in two: strictly fewer distinct
        # nodes than compile requests.
        assert plan.compile_shared > 0
        assert plan.distinct_nodes() < plan.compile_requests

    def test_late_rule_starts_fresh(self):
        """A rule registered mid-run must not inherit the history-laden
        temporal state of an identical earlier rule (birth-epoch guard):
        its firings match a fresh independent evaluator started at the
        same position."""
        from repro.ptl.parser import parse_formula

        f = parse_formula("previously @ping")
        rng = random.Random(3)
        history = list(random_history(rng, 10))
        # make some states carry the ping event
        from repro.events.model import Event
        from repro.history.state import SystemState

        states = [
            SystemState(
                s.db,
                [Event("ping", ())] if i in (1, 6) else [Event("e0", ())],
                s.timestamp,
                index=s.index,
            )
            for i, s in enumerate(history)
        ]
        plan = SharedPlan()
        early = plan.add_rule("early", f)
        for state in states[:4]:
            early.step(state)
        late = plan.add_rule("late", f)
        fresh = IncrementalEvaluator(f, EvalContext())
        for state in states[4:]:
            early.step(state)
            assert late.step(state).fired == fresh.step(state).fired
        # the early rule saw the ping at position 1, the late one did not
        # until position 6 re-fired it; both end up true, but the plan kept
        # them distinct until then.
        assert early.steps == len(states)
        assert late.steps == len(states) - 4

    def test_plan_metrics_exported(self):
        registry = MetricsRegistry()
        plan = SharedPlan(metrics=registry)
        rng = random.Random(5)
        formulas = overlapping_formulas(rng)
        for i, f in enumerate(formulas):
            plan.add_rule(f"r{i}", f)
        # One interned node that is alive whatever the formulas retain.
        held = cs.catom(">", cs.SVar("held"), cs.SConst(0))
        for state in random_history(rng, 6):
            plan.step(state)
        assert registry.value("plan_rules") == 3
        assert registry.value("plan_distinct_nodes") == plan.distinct_nodes()
        assert 0.0 < registry.value("plan_dedup_ratio") <= 1.0
        assert registry.value("plan_state_size") == plan.state_size()
        interned = cs.intern_stats()
        assert registry.value("plan_intern_hit_rate") == interned["hit_rate"]
        # Read inside the step, while its intermediate formulas were alive.
        live = interned["formulas"] + interned["terms"]
        assert 1 <= live <= registry.value("plan_intern_live_nodes")
        del held
        assert cs.intern_stats()["formulas"] == interned["formulas"] - 1


#: ψ of the aggregate rules below — also a plain subformula of SHARED_B.
PSI = "lasttime (price(IBM) > 50)"
#: A temporal ψ shared between an aggregate (A), another rule's own
#: condition (B) and a second aggregate (C).
SHARED_A = f"sum(price(IBM); time = 1; {PSI}) > 100"
SHARED_B = f"{PSI} & price(IBM) < 40"
SHARED_C = f"count(1; time = 1; {PSI}) >= 2"
#: An aggregate inside another aggregate's φ: the inner count must step
#: before the outer sum reads it.
NESTED = (
    f"sum(price(IBM); count(1; time = 1; {PSI}) = 1; @update_stocks) > 60"
)
AGG_PRICES = [40, 60, 70, 30, 55, 35, 80, 90, 20, 45]


def agg_history():
    return stock_history([(p, i + 1) for i, p in enumerate(AGG_PRICES)])


def parse_all(*texts):
    registry = stock_registry()
    return [parse_formula(text, registry) for text in texts]


def psi_nodes(plan):
    """Memo nodes compiled for ψ itself, one per birth epoch."""
    return sorted(
        key[3] for key in plan._nodes if str(key[0]) == str(parse_all(PSI)[0])
    )


@pytest.mark.parametrize("compiled", [False, True], ids=["interp", "compiled"])
class TestAggregateSubformulasInTheDag:
    """φ and ψ are formulas like any other: they compile into the owning
    plan's DAG, share nodes with every other occurrence, and are stepped
    by the plan — never by an engine of the aggregate's own."""

    def test_shared_psi_is_one_node_and_matches_reference(self, compiled):
        formulas = parse_all(SHARED_A, SHARED_B, SHARED_C)
        alone = []
        for f in formulas[:2]:
            plan = SharedPlan()
            plan.add_rule("r", f)
            alone.append(plan.distinct_nodes())
        with mode(compiled):
            plan = assert_equivalent(formulas, agg_history(), ExecutedStore())
        assert psi_nodes(plan) == [0]
        # A and B overlap in exactly ψ's subtree (lasttime + its atom); C
        # adds only its own comparison (φ and ψ are A's).
        assert plan.distinct_nodes() == sum(alone) - 2 + 1
        assert any(plan.result_of(f"r{i}").fired for i in range(3))

    def test_nested_aggregate_matches_reference(self, compiled):
        with mode(compiled):
            plan = assert_equivalent(
                parse_all(NESTED, SHARED_B), agg_history(), ExecutedStore()
            )
        inner, outer = plan._aggregates.values()
        assert inner.term.func == "count" and outer.term.func == "sum"
        assert psi_nodes(plan) == [0]

    def test_hot_added_psi_is_born_fresh_and_removal_keeps_sharers(
        self, compiled
    ):
        a, b, c = parse_all(SHARED_A, SHARED_B, SHARED_C)
        states = agg_history().states
        with mode(compiled):
            plan = SharedPlan()
            plan.add_rule("a", a)
            view_b = plan.add_rule("b", b)
            fresh_b = IncrementalEvaluator(b)
            for state in states[:4]:
                plan.step(state)
                fresh_b.step(state)
            late = plan.add_rule("late", c)
            fresh_c = IncrementalEvaluator(c)
            assert psi_nodes(plan) == [0, 4]  # same ψ, its own birth
            plan.remove_rule("a")
            assert psi_nodes(plan) == [0, 4]  # b still holds the old one
            assert [str(k[0]) for k in plan._aggregates] == [str(
                ast.aggregate_terms(c)[0]
            )]
            for state in states[4:]:
                plan.step(state)
                assert view_b.entry.result == fresh_b.step(state)
                assert late.entry.result == fresh_c.step(state)
            plan.remove_rule("b")
            assert psi_nodes(plan) == [4]

    def test_stored_state_under_psi_is_shown_and_counted_once(self, compiled):
        """The ``lasttime`` under ψ is plan state: listed by
        ``stored_formulas`` (per rule and per plan), shown by
        ``explain_firing``, and sized inside the one ``dag_size`` pass."""
        text = "sum(price(IBM); time = 1; lasttime (price(IBM) > 0)) > 0"
        (f,) = parse_all(text)
        label = str(parse_all("lasttime (price(IBM) > 0)")[0])
        with mode(compiled):
            ev = IncrementalEvaluator(f)
            for state in agg_history().states:
                ev.step(state)
            assert [lbl for lbl, _ in ev.stored_formulas()] == [label]
            assert ev.plan.stored_formulas() == ev.stored_formulas()
            ((_, stored),) = ev.stored_formulas()
            (agg,) = ev.plan._aggregates.values()
            assert ev.plan.state_size() == ev.state_size() == (
                cs.dag_size([stored]) + agg.state_size()
            )

            adb = make_stock_db([("IBM", 40.0)])
            manager = RuleManager(adb)
            manager.add_trigger("summed", text, RecordingAction())
            for ts, price in [(1, 42.0), (2, 50.0), (3, 44.0)]:
                apply_tick(adb, "IBM", price, at_time=ts)
            assert [lbl for lbl, _ in manager.plan.stored_formulas()] == [label]
            rendered = manager.explain_firing(manager.firings[-1], rendered=True)
        assert "lasttime" in rendered and "IBM" in rendered


STOCK_DOMAIN = {"s": parse_query("RETRIEVE (S.name) FROM STOCK S")}


class TestPlanTrialEvaluation:
    """``snapshot`` / step / ``restore`` is how integrity constraints are
    enforced: the abandoned step must leave nothing behind."""

    def test_restore_drops_the_trial_steps_memoized_values(self):
        """The memo cache is keyed on the epoch ``restore`` rolls back, so
        the step after a restore must recompute, not reuse the abandoned
        step's values."""
        plan = SharedPlan()
        plan.add_rule(
            "high", parse_formula("price('IBM') > 50", stock_registry())
        )
        trial, real = stock_history([(60, 1), (40, 2)]).states
        snap = plan.snapshot()
        plan.step(trial)
        assert plan.result_of("high").fired
        plan.restore(snap)
        plan.step(real)
        assert not plan.result_of("high").fired

    def test_restore_releases_instances_born_in_the_trial(self):
        """A query-parameter instance created by the abandoned step must
        leave with it — kept, its ``previously`` would remember the
        trial's price."""
        plan = SharedPlan()
        plan.add_rule(
            "was_high",
            parse_formula("previously (price($s) > 50)", stock_registry()),
            EvalContext(domains=STOCK_DOMAIN),
        )
        nodes_before = plan.distinct_nodes()
        trial, real = stock_history([(60, 1), (40, 2)]).states
        snap = plan.snapshot()
        plan.step(trial)
        assert plan.result_of("was_high").fired
        plan.restore(snap)
        assert plan.distinct_nodes() == nodes_before
        assert plan.state_size() == 0
        plan.step(real)
        assert not plan.result_of("was_high").fired

    @pytest.mark.parametrize(
        "compiled", [False, True], ids=["interp", "compiled"]
    )
    def test_vetoed_trial_does_not_advance_an_aggregates_psi(self, compiled):
        """An IC over an aggregate whose ψ has a ``lasttime``: the vetoed
        transaction's state must leave neither a sample nor ψ's stored
        formula behind — ψ's node is plan state, rolled back with it."""
        from repro.errors import TransactionAborted

        ic = "!(count(1; time = 1; lasttime (price(IBM) > 50)) >= 2)"
        with mode(compiled):
            adb = make_stock_db([("IBM", 40.0)])
            manager = RuleManager(adb)
            manager.add_integrity_constraint("twice", ic)
            reg = manager._ics["twice"]
            twin = IncrementalEvaluator(reg.rule.condition, name="twice")
            ticks = [(1, 60.0), (2, 70.0), (3, 30.0), (4, 80.0), (5, 20.0)]
            vetoed, seen = [], 0
            for ts, price in ticks:
                try:
                    apply_tick(adb, "IBM", price, at_time=ts)
                except TransactionAborted:
                    vetoed.append(ts)
                # Committed or vetoed, the IC holds exactly what a twin fed
                # only the history (commit states and abort markers — never
                # a vetoed candidate) holds.
                for state in adb.history.states[seen:]:
                    twin.step(state)
                seen = len(adb.history.states)
                assert reg.evaluator.to_state() == twin.to_state()
        # ψ holds at t=2 and t=3 (the previous price was above 50): the
        # commit at t=3 would be the second sample — the first violation —
        # and with 70 left in place every later commit samples again.
        assert vetoed == [3, 4, 5]

    def test_single_evaluator_steps_twice_on_one_state_object(self):
        """The plan skips a state object it has already stepped so that
        many views can share it; a standalone evaluator has one view, and
        every ``step`` call advances it."""
        (state,) = stock_history([(60, 1)]).states
        ev = IncrementalEvaluator(
            parse_formula("lasttime (price('IBM') > 50)", stock_registry())
        )
        assert not ev.step(state).fired
        assert ev.step(state).fired
        assert ev.steps == 2


def _run_stock_workload(shared_plan):
    adb = make_stock_db([("IBM", 40.0), ("ACME", 80.0)])
    manager = RuleManager(adb, shared_plan=shared_plan)
    manager.add_trigger(
        "spike",
        "(previously[6] (price(IBM) > 45)) & price(IBM) > 45",
        RecordingAction(),
    )
    manager.add_trigger(
        "spike_shadow",
        "previously[6] (price(IBM) > 45)",
        RecordingAction(),
    )
    manager.add_trigger(
        "followup",
        "executed(spike, t) & time <= t + 4",
        RecordingAction(),
    )
    manager.add_trigger(
        "any_high",
        "price($s) > 75",
        RecordingAction(),
        domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
    )
    for ts, price in [(1, 42.0), (2, 50.0), (4, 44.0), (6, 47.0), (9, 30.0), (12, 31.0)]:
        apply_tick(adb, "IBM", price, at_time=ts)
    adb.post_event(user_event("ping"), at_time=13)
    return manager


class TestManagerSharedPlan:
    def test_firings_match_per_rule_manager(self):
        with_plan = _run_stock_workload(shared_plan=True)
        without = _run_stock_workload(shared_plan=False)
        assert with_plan.firings == without.firings
        assert with_plan.firings  # the workload actually fires rules

    def test_total_state_size_counts_plan_once(self):
        with_plan = _run_stock_workload(shared_plan=True)
        without = _run_stock_workload(shared_plan=False)
        assert 0 < with_plan.total_state_size() <= without.total_state_size()

    def test_remove_rule_detaches_from_plan(self):
        manager = _run_stock_workload(shared_plan=True)
        manager.remove_rule("spike_shadow")
        assert "spike_shadow" not in manager.plan.rule_names()
        # remaining rules keep evaluating
        adb = manager.engine
        before = len(manager.firings)
        apply_tick(adb, "IBM", 60.0, at_time=20)
        apply_tick(adb, "IBM", 61.0, at_time=21)
        assert len(manager.firings) > before
