"""E3 — incrementality (Sections 1 and 5).

"The algorithm only considers the changes in the new database state ...
instead of considering the whole database history."  We measure total and
per-update detection time for the incremental evaluator vs the naive
full-history re-evaluator, as history length grows.  The expected shape:
naive per-update cost grows with n (quadratic total), incremental stays
flat; both fire identically.
"""

import pytest
from conftest import report

from repro.baselines import NaiveDetector
from repro.bench import Table, per_update_micros, time_best
from repro.ptl import IncrementalEvaluator, parse_formula
from repro.workloads import (
    SHARP_INCREASE,
    spike_trace,
    stock_query_registry,
    trace_history,
)

SIZES = (50, 100, 200, 400)


def make_history(n):
    return trace_history(spike_trace(n, spike_every=25))


def run_detector(detector_factory, history):
    det = detector_factory()
    fired = 0
    for state in history:
        if det.step(state).fired:
            fired += 1
    return fired


@pytest.fixture(scope="module")
def formula():
    return parse_formula(SHARP_INCREASE, stock_query_registry())


def compute_scaling(formula):
    rows = []
    for n in SIZES:
        history = make_history(n)
        t_incr = time_best(
            lambda: run_detector(lambda: IncrementalEvaluator(formula), history),
            repeat=2,
        )
        t_naive = time_best(
            lambda: run_detector(lambda: NaiveDetector(formula), history),
            repeat=1,
        )
        f_incr = run_detector(lambda: IncrementalEvaluator(formula), history)
        f_naive = run_detector(lambda: NaiveDetector(formula), history)
        rows.append((n, t_incr, t_naive, f_incr, f_naive))
    return rows


def test_e3_scaling_table(benchmark, formula):
    rows = benchmark.pedantic(
        lambda: compute_scaling(formula), rounds=1, iterations=1
    )

    table = Table(
        "E3: incremental vs naive full-history detection (SHARP-INCREASE)",
        [
            "updates",
            "incr total (s)",
            "naive total (s)",
            "incr us/update",
            "naive us/update",
            "speedup",
        ],
    )
    incr_pu, naive_pu, ratios = [], [], []
    for n, t_incr, t_naive, f_incr, f_naive in rows:
        assert f_incr == f_naive, "both detectors must fire identically"
        incr_pu.append(per_update_micros(t_incr, n))
        naive_pu.append(per_update_micros(t_naive, n))
        ratios.append(t_naive / t_incr)
        table.add_row(
            n,
            t_incr,
            t_naive,
            round(incr_pu[-1], 1),
            round(naive_pu[-1], 1),
            f"{ratios[-1]:.1f}x",
        )
    report(table)

    # shape: naive per-update cost grows with n, incremental roughly flat,
    # so the gap widens
    assert naive_pu[-1] > 3 * naive_pu[0]
    assert incr_pu[-1] < 3 * incr_pu[0]
    assert ratios[-1] > ratios[0]


def test_e3_incremental_throughput(benchmark, formula):
    history = make_history(200)
    benchmark(lambda: run_detector(lambda: IncrementalEvaluator(formula), history))


def test_e3_naive_throughput(benchmark, formula):
    history = make_history(200)
    benchmark.pedantic(
        lambda: run_detector(lambda: NaiveDetector(formula), history),
        rounds=2,
        iterations=1,
    )
