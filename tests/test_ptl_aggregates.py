"""Temporal aggregates (Section 6): direct pipeline, rewriting pipeline,
and their equivalence on the paper's examples."""

import pytest

from repro.errors import UnsafeFormulaError
from repro.events.model import user_event
from repro.ptl import EvalContext, IncrementalEvaluator, parse_formula, satisfies
from repro.ptl.aggregates import (
    OverlayState,
    RewrittenEvaluator,
    rewrite_condition,
)

from tests.helpers import run_evaluator, stock_history, stock_registry


@pytest.fixture
def registry():
    return stock_registry()


def hourly_history(prices, start=540, step=60):
    """One update_stocks tick per 'hour' starting at 9AM (time 540)."""
    return stock_history(
        [(p, start + i * step) for i, p in enumerate(prices)]
    )


#: "the average price of the IBM stock since 9AM is higher than 70" with
#: sampling at each stock update (the paper's rule r).
AVG_RULE = "avg(price(IBM); time = 540; @update_stocks) > 70"


class TestDirectAggregates:
    def test_running_average_fires(self, registry):
        f = parse_formula(AVG_RULE, registry)
        # prices 60, 90: avg 60 -> 75
        h = hourly_history([60, 90])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [False, True]

    def test_undefined_before_start(self, registry):
        f = parse_formula(AVG_RULE, registry)
        # history starts before 9AM; aggregate undefined -> no firing
        h = stock_history([(100, 500), (100, 520)])
        ev = IncrementalEvaluator(f)
        assert not any(r.fired for r in run_evaluator(ev, h))

    def test_reference_semantics_agree(self, registry):
        f = parse_formula(AVG_RULE, registry)
        h = hourly_history([60, 90, 50, 95])
        ev = IncrementalEvaluator(f)
        inc = [r.fired for r in run_evaluator(ev, h)]
        ref = [satisfies(h.states, i, f) for i in range(len(h))]
        assert inc == ref

    def test_count_and_sum(self, registry):
        f = parse_formula(
            "sum(1; time = 540; @update_stocks) >= 3", registry
        )
        h = hourly_history([10, 10, 10, 10])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [
            False,
            False,
            True,
            True,
        ]

    def test_min_max(self, registry):
        f = parse_formula(
            "max(price(IBM); time = 540; @update_stocks) - "
            "min(price(IBM); time = 540; @update_stocks) > 20",
            registry,
        )
        h = hourly_history([50, 60, 75])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [False, False, True]

    def test_restart_resets(self, registry):
        # start formula holds at every update: window collapses to one tick
        f = parse_formula(
            "avg(price(IBM); @update_stocks; @update_stocks) > 70", registry
        )
        h = hourly_history([100, 60, 80])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [True, False, True]

    def test_moving_window_average(self, registry):
        """The paper's moving hourly average (Section 6): the aggregate's
        starting formula references u, assigned from ``time`` outside —
        'the left side of the Since operator denotes the moving hourly
        average of the IBM stock price'."""
        f = parse_formula(
            "[u := time] avg(price(IBM); time <= u - 60; @update_stocks) > 70",
            registry,
        )
        # ticks every 30 minutes; the window starts at the latest state at
        # least an hour old (undefined during the first hour)
        h = stock_history([(100, 540), (100, 570), (80, 600), (10, 630)])
        ev = IncrementalEvaluator(f)
        ref = [satisfies(h.states, i, f) for i in range(len(h))]
        inc = [r.fired for r in run_evaluator(ev, h)]
        assert inc == ref
        assert inc == [False, False, True, False]

    def test_moving_window_log_is_pruned(self, registry):
        f = parse_formula(
            "[u := time] avg(price(IBM); time <= u - 60; @update_stocks) > 70",
            registry,
        )
        ticks = [(50 + (i % 5), 540 + 10 * i) for i in range(100)]
        h = stock_history(ticks)
        ev = IncrementalEvaluator(f)
        run_evaluator(ev, h)
        # only the last hour (plus the boundary entry) is retained
        assert ev.state_size() < 20

    def test_paper_hourly_average_since_formula(self, registry):
        """Section 6's closing formula: 'the hourly average of the IBM
        price has remained above 70 since 9AM'.  The paper writes the
        time assignment outside the Since but reads it as the *moving*
        average at each inner state; that reading needs the assignment
        inside the Since (each state rebinds u), which is how we state
        it — see EXPERIMENTS.md."""
        f = parse_formula(
            "([u := time] avg(price(IBM); time <= u - 60; @update_stocks) > 70) "
            "since time = 600",
            registry,
        )
        h = stock_history(
            [(90, 540), (90, 570), (95, 600), (80, 630), (20, 660), (20, 690)]
        )
        ref = [satisfies(h.states, i, f) for i in range(len(h))]
        ev = IncrementalEvaluator(f)
        inc = [r.fired for r in run_evaluator(ev, h)]
        assert inc == ref
        assert inc == [False, False, True, True, False, False]

    def test_outer_assignment_across_since_rejected(self, registry):
        """The literal outside-the-Since placement is not incrementally
        evaluable (u cannot be rebound per inner state); the evaluator
        rejects it instead of computing the wrong thing."""
        f = parse_formula(
            "[u := time] "
            "((avg(price(IBM); time <= u - 60; @update_stocks) > 70) "
            "since time = 540)",
            registry,
        )
        with pytest.raises(UnsafeFormulaError):
            IncrementalEvaluator(f)

    def test_nested_aggregate(self, registry):
        # sampling points where the running count since 540 is even
        f = parse_formula(
            "sum(price(IBM); time = 540; "
            "sum(1; time = 540; @update_stocks) mod 2 = 0) >= 20",
            registry,
        )
        h = hourly_history([10, 10, 10, 10])
        ev = IncrementalEvaluator(f)
        inc = [r.fired for r in run_evaluator(ev, h)]
        ref = [satisfies(h.states, i, f) for i in range(len(h))]
        assert inc == ref

    def test_free_variable_aggregate_with_domain(self, registry):
        f = parse_formula(
            "avg(price($s); time = 540; @update_stocks) > 70", registry
        )
        ctx = EvalContext(domains={"s": ["IBM"]})
        ev = IncrementalEvaluator(f, ctx)
        h = hourly_history([60, 90])
        results = run_evaluator(ev, h)
        assert [r.fired for r in results] == [False, True]
        assert results[1].bindings == ({"s": "IBM"},)

    def test_nonground_start_rejected(self, registry):
        f = parse_formula(
            "sum(price(IBM); @login(u); @update_stocks) > 0", registry
        )
        with pytest.raises(UnsafeFormulaError):
            IncrementalEvaluator(f)


class TestWindowedAggregateProperties:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 5000),
        window=st.integers(2, 30),
        threshold=st.integers(30, 70),
        func=st.sampled_from(["avg", "sum", "min", "max", "count"]),
    )
    def test_windowed_matches_reference(self, seed, window, threshold, func):
        """Moving-window aggregates (start formula over an outer time
        variable): incremental == reference on random tick streams."""
        from repro.workloads import random_walk_trace

        registry = stock_registry()
        f = parse_formula(
            f"[u := time] {func}(price(IBM); time <= u - {window}; "
            f"@update_stocks) > {threshold}",
            registry,
        )
        h = stock_history(random_walk_trace(seed, 25, max_step=10.0))
        ev = IncrementalEvaluator(f)
        for i, state in enumerate(h):
            inc = ev.step(state).fired
            ref = satisfies(h.states, i, f)
            assert inc == ref, (
                f"divergence at {i} (window={window}, func={func})"
            )


class TestRewriting:
    def test_rewrite_structure(self, registry):
        f = parse_formula(AVG_RULE, registry)
        rw = rewrite_condition(f)
        assert len(rw.rewritten) == 1
        assert len(rw.rewritten[0].item_names) == 2  # SUM and COUNT items
        assert rw.rule_count == 3  # r, r1, r2 — the paper's construction

    def test_rewritten_equals_direct(self, registry):
        f = parse_formula(AVG_RULE, registry)
        h = hourly_history([60, 90, 50, 95, 120])
        direct = IncrementalEvaluator(f)
        rewritten = RewrittenEvaluator(f)
        d = [r.fired for r in run_evaluator(direct, h)]
        w = [r.fired for r in run_evaluator(rewritten, h)]
        assert d == w

    #: One condition per aggregate function, plus an aggregate nested in
    #: another's φ (maintained by the rule that reads it).
    REWRITABLE = [
        "sum(price(IBM); time = 540; @update_stocks) > 200",
        "sum(1; time = 540; @update_stocks) >= 3",
        "min(price(IBM); time = 540; @update_stocks) < 55",
        "max(price(IBM); time = 540; @update_stocks) >= 95",
        "avg(price(IBM); time = 540; @update_stocks) > 70",
        "sum(price(IBM); count(1; time = 540; @update_stocks) = 1;"
        " @update_stocks) > 0",
    ]

    @pytest.mark.parametrize("cond", REWRITABLE)
    def test_rewritten_equals_direct_all_functions(self, registry, cond):
        f = parse_formula(cond, registry)
        h = hourly_history([60, 90, 50, 95, 120, 40])
        direct, rewritten = IncrementalEvaluator(f), RewrittenEvaluator(f)
        d = [r.fired for r in run_evaluator(direct, h)]
        w = [r.fired for r in run_evaluator(rewritten, h)]
        assert d == w
        # The §5 memory metric sees the maintenance rules' state: same
        # accumulators, same φ/ψ nodes, wherever they are read from.
        assert rewritten.state_size() == direct.state_size() > 0

    def test_maintenance_rules_are_real_and_checkpointable(self, registry):
        """r1/r2 exist in the maintenance plan under the generated names,
        and that plan round-trips like any other (the accumulator an r2
        roots is re-bound on replay) — item names are process-local, the
        maintenance state is not."""
        import json

        f = parse_formula(
            "sum(price(IBM); time = 540; lasttime (price(IBM) > 55)) > 100",
            registry,
        )
        states = hourly_history([60, 90, 50, 95, 120, 40]).states
        first, second = RewrittenEvaluator(f), RewrittenEvaluator(f)
        (rewritten,) = first.rewrite.rewritten
        assert first.maintenance.rule_names() == sorted(rewritten.rule_names)
        assert first.rewrite.rule_count == 1 + len(first.maintenance.rule_names())
        for state in states[:3]:
            first.step(state)
        payload = json.loads(json.dumps(first.maintenance.to_state()))
        second.maintenance.from_state(payload)
        assert second.maintenance.to_state() == payload
        for state in states[3:]:
            a = first.rewrite.executor.step(state)
            b = second.rewrite.executor.step(state)
            assert list(a.values()) == list(b.values()) != [None]

    def test_rewritten_undefined_before_start(self, registry):
        f = parse_formula(AVG_RULE, registry)
        h = stock_history([(100, 500), (100, 520)])
        rewritten = RewrittenEvaluator(f)
        assert not any(r.fired for r in run_evaluator(rewritten, h))

    def test_overlay_shadows_base(self, registry):
        h = hourly_history([60])
        state = h[0]
        overlay = OverlayState(state, {"X": 42})
        assert overlay.item("X") == 42
        assert overlay.item("time") == state.timestamp
        assert overlay.has_item("X")
        assert overlay.relation("STOCK") is state.relation("STOCK")

    def test_rewrite_rejects_unresolved_params(self, registry):
        f = parse_formula(
            "avg(price($s); time = 540; @update_stocks) > 70", registry
        )
        with pytest.raises(UnsafeFormulaError):
            rewrite_condition(f)
