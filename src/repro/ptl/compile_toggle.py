"""The compiled-backend toggle, readable without loading the compiler.

:mod:`repro.ptl.plan` consults it on every step and imports
:mod:`repro.ptl.compiled` only once it is on (or a chain exists), so an
engine that never compiles never loads the code generator.  Set it with
``REPRO_PTL_COMPILE=1`` at process start (default off — the interpreted
path is the differential oracle) or :func:`set_ptl_compile`.
"""

from __future__ import annotations

import os

#: Whether evaluation steps run on compiled recurrence chains.
ENABLED = os.environ.get("REPRO_PTL_COMPILE", "0") != "0"


def ptl_compile_enabled() -> bool:
    """Whether evaluation steps run on compiled recurrence chains."""
    return ENABLED


def set_ptl_compile(flag: bool) -> bool:
    """Enable/disable the compiled backend; returns the previous setting
    (for ``try/finally`` toggling)."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(flag)
    return previous
