"""The rule system: triggers, integrity constraints, composite actions.

Names are exported lazily: the composite actions of Section 7 load the
first time one of them is read.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    **dict.fromkeys(
        (
            "Action",
            "ActionContext",
            "PyAction",
            "DbAction",
            "AbortAction",
            "RecordingAction",
            "as_action",
        ),
        "repro.rules.actions",
    ),
    **dict.fromkeys(
        (
            "Rule",
            "FiringRecord",
            "CouplingMode",
            "FireMode",
            "make_integrity_constraint",
        ),
        "repro.rules.rule",
    ),
    **dict.fromkeys(("RuleManager", "TemporalComponent"), "repro.rules.manager"),
    "infer_relevant_events": "repro.ptl.plan",
    **dict.fromkeys(
        ("CompositeStep", "add_sequence", "add_periodic", "add_composite"),
        "repro.rules.composite",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
