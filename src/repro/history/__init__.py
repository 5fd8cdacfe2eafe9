"""System states and histories (the paper's Section 2 model).

Names are exported lazily: the tiered history loads the first time one of
its names is read, so an engine that keeps no history never loads it.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "SystemState": "repro.history.state",
    "SystemHistory": "repro.history.history",
    **dict.fromkeys(
        (
            "MemoryGovernor",
            "TieredHistory",
            "TieredRuntime",
            "attach_tiered_history",
            "restore_tiers",
        ),
        "repro.history.spill",
    ),
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
