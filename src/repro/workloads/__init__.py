"""Workload generators: stock traces, sessions, random formulas/histories.

Names are exported lazily: the random generators load the first time one
of them is read, so the stock profile of a served tenant loads only
:mod:`repro.workloads.stock`.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    **dict.fromkeys(
        (
            "FormulaGenerator",
            "random_formula",
            "random_future_formula",
            "random_executed_store",
            "random_history",
            "random_pair",
        ),
        "repro.workloads.generator",
    ),
    **dict.fromkeys(
        (
            "PAPER_TRACE_FIRING",
            "PAPER_TRACE_PRUNED",
            "SHARP_INCREASE",
            "make_stock_db",
            "apply_tick",
            "apply_trace",
            "random_walk_trace",
            "spike_trace",
            "login_session_events",
            "dow_jones_trace",
            "trace_history",
            "stock_query_registry",
        ),
        "repro.workloads.stock",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
