"""E4 — "bounded temporal operators allow us to keep only bounded
information from the past history" (Section 5).

Three conditions over the same long event/tick stream:

* ``previously[20] cheap``   — bounded window, optimization on;
* ``previously[20] cheap``   — bounded window, optimization off;
* ``previously cheap``       — unbounded (memory need not be bounded, but
  our disjunct dedup keeps ground formulas small — the variable-carrying
  SHARP-INCREASE case is the one that truly grows, shown alongside).

Also measures the auxiliary-relation (R_x) row counts with and without
interval pruning.
"""

from conftest import report

from repro.bench import Table
from repro.obs import MetricsRegistry
from repro.ptl import AuxiliaryStore, IncrementalEvaluator, parse_formula
from repro.ptl.rewrite import normalize
from repro.workloads import (
    SHARP_INCREASE,
    random_walk_trace,
    stock_query_registry,
    trace_history,
)

CHECKPOINTS = (100, 200, 400, 800)


def sizes_over(history, formula, optimize):
    ev = IncrementalEvaluator(formula, optimize=optimize)
    out = {}
    for i, state in enumerate(history, start=1):
        ev.step(state)
        if i in CHECKPOINTS:
            out[i] = ev.state_size()
    return out


def compute(n=None):
    n = n or max(CHECKPOINTS)
    registry = stock_query_registry()
    history = trace_history(random_walk_trace(seed=21, n=n))
    bounded = parse_formula("previously[20] price(IBM) < 60", registry)
    unbounded = parse_formula("previously price(IBM) < 60", registry)
    sharp = parse_formula(SHARP_INCREASE, registry)
    return {
        "bounded+opt": sizes_over(history, bounded, True),
        "bounded-opt": sizes_over(history, bounded, False),
        "unbounded": sizes_over(history, unbounded, True),
        "sharp+opt": sizes_over(history, sharp, True),
        "sharp-opt": sizes_over(history, sharp, False),
    }


def aux_relation_growth(n=None):
    n = n or max(CHECKPOINTS)
    registry = stock_query_registry()
    history = trace_history(random_walk_trace(seed=21, n=n))
    formula = normalize(parse_formula(SHARP_INCREASE, registry))
    pruned = AuxiliaryStore.for_formula(formula)
    raw = AuxiliaryStore.for_formula(formula)
    out = {}
    for i, state in enumerate(history, start=1):
        pruned.observe(state, state.timestamp)
        raw.observe(state, state.timestamp)
        pruned.prune_before(state.timestamp - 10)  # the bounded window
        if i in CHECKPOINTS:
            out[i] = (pruned.total_rows(), raw.total_rows())
    return out


def test_e4_state_size_vs_updates(benchmark):
    results = benchmark.pedantic(compute, rounds=1, iterations=1)

    table = Table(
        "E4: evaluator state size vs number of updates",
        ["updates"] + list(results.keys()),
    )
    for cp in CHECKPOINTS:
        table.add_row(cp, *(results[k][cp] for k in results))
    report(table)

    # bounded + optimized: flat
    b = [results["bounded+opt"][cp] for cp in CHECKPOINTS]
    assert max(b) <= min(b) + 30
    s = [results["sharp-opt"][cp] for cp in CHECKPOINTS]
    so = [results["sharp+opt"][cp] for cp in CHECKPOINTS]
    # variable-carrying condition without optimization: linear growth
    assert s[-1] > 5 * s[0]
    # with optimization: flat
    assert max(so) <= 10 * min(so)
    assert max(so) < s[0]

    # re-run the optimized sharp case with live gauges: the registry's
    # final evaluator_state_size gauge must agree with the table's figure
    registry = MetricsRegistry()
    hist = trace_history(random_walk_trace(seed=21, n=max(CHECKPOINTS)))
    ev = IncrementalEvaluator(
        parse_formula(SHARP_INCREASE, stock_query_registry()),
        optimize=True,
        metrics=registry,
        name="sharp_increase",
    )
    for state in hist:
        ev.step(state)
    gauge = registry.value("evaluator_state_size", rule="sharp_increase")
    assert gauge == results["sharp+opt"][max(CHECKPOINTS)]


def test_e4_auxiliary_relation_rows(benchmark):
    results = benchmark.pedantic(aux_relation_growth, rounds=1, iterations=1)

    table = Table(
        "E4b: auxiliary relation R_x rows (T_start/T_end versions)",
        ["updates", "pruned (window 10)", "unpruned"],
    )
    for cp in CHECKPOINTS:
        table.add_row(cp, *results[cp])
    report(table)

    pruned_rows = [results[cp][0] for cp in CHECKPOINTS]
    raw_rows = [results[cp][1] for cp in CHECKPOINTS]
    assert max(pruned_rows) <= 20
    assert raw_rows[-1] > 20 * max(pruned_rows)
