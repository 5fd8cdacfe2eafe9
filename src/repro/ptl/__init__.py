"""Past Temporal Logic: language, reference semantics, incremental algorithm.

Names are exported lazily: reading one imports only the module that
defines it, so an engine that evaluates conditions does not load the
reference semantics, the future-formula monitor or the compiler.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    **dict.fromkeys(
        (
            "Formula",
            "Term",
            "Var",
            "ConstT",
            "FuncT",
            "QueryT",
            "AggT",
            "BoolConst",
            "TRUE",
            "FALSE",
            "Comparison",
            "EventAtom",
            "InQuery",
            "ExecutedAtom",
            "Not",
            "And",
            "Or",
            "Since",
            "Lasttime",
            "Previously",
            "ThroughoutPast",
            "Assign",
            "free_variables",
            "assigned_variables",
        ),
        "repro.ptl.ast",
    ),
    "parse_formula": "repro.ptl.parser",
    "parse_future_formula": "repro.ptl.future_parser",
    "normalize": "repro.ptl.rewrite",
    "satisfies": "repro.ptl.semantics",
    "answers": "repro.ptl.semantics",
    "UNDEFINED": "repro.ptl.values",
    **dict.fromkeys(
        ("IncrementalEvaluator", "SharedPlan", "PlanBoundEvaluator"),
        "repro.ptl.plan",
    ),
    "FireResult": "repro.ptl.incremental",
    **dict.fromkeys(
        ("EvalContext", "ExecutedStore", "ExecutionRecord"),
        "repro.ptl.context",
    ),
    **dict.fromkeys(
        ("AuxiliaryRelation", "AuxiliaryStore"), "repro.ptl.auxrel"
    ),
    "CompiledChain": "repro.ptl.compiled",
    **dict.fromkeys(
        ("ptl_compile_enabled", "set_ptl_compile"), "repro.ptl.compile_toggle"
    ),
    **dict.fromkeys(("check_safety", "unsafe_variables"), "repro.ptl.safety"),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
