"""Chomicki-style "history-less" checking — the other Section 10 baseline.

"[1, 2] ... considers a first order temporal logic with past temporal
operators (FPTL) for specifying and maintaining Real-time Dynamic
Integrity Constraints ... FPTL uses first order quantifiers, whereas PTL
uses the assignment operator.  This operator can be viewed as a form of
quantification that naturally ensures safety.  For example, the trigger
condition SHARP-INCREASE ... is natural, but it is considered unsafe and
cannot be handled by the methods in [1, 2]."

This module reproduces that comparison *qualitatively*: a classifier for
the fragment a history-less FPTL checker handles (no assignment operator —
values cannot be captured at one state and compared at another — and no
temporal aggregates), plus a checker for that fragment which, like
Chomicki's method, stores only a bounded number of boolean registers (one
per temporal subformula) rather than any data values from past states.

The expressiveness gap the paper points out is then checkable in code:
``in_fragment(SHARP_INCREASE) is False`` while the PTL evaluator handles
it — see ``tests/test_expressiveness.py`` and benchmark E8.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import PTLError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.incremental import FireResult
from repro.ptl.plan import IncrementalEvaluator
from repro.ptl.rewrite import normalize


def in_fragment(formula: ast.Formula) -> bool:
    """Can a history-less FPTL checker handle this condition?

    The fragment excludes exactly what PTL's assignment operator adds:

    * value capture across states (``[x := q] ...`` with ``x`` used under
      a temporal operator) — the essence of SHARP-INCREASE;
    * temporal aggregates (values accumulated over time);
    * free variables (the paper's answer-producing rules).

    Ground temporal formulas over current-state atoms remain — those a
    boolean-register evaluation handles.
    """
    if ast.free_variables(formula):
        return False

    def visit(f: ast.Formula) -> bool:
        if isinstance(f, ast.Assign):
            # value capture: x escapes into the body
            if f.var in f.body.variables():
                return False
            return visit(f.body)
        if isinstance(f, ast.Comparison):
            return not ast.aggregate_terms(f)
        for child in f.children():
            if not visit(child):
                return False
        return True

    return visit(normalize(formula))


class HistorylessChecker:
    """Detector for the history-less fragment.

    Inside the fragment, our incremental evaluator already *is*
    history-less (every stored state formula folds to a boolean), so the
    checker wraps it and asserts that invariant after every step — the
    register count it reports is what a [1,2]-style implementation would
    materialize as auxiliary boolean relations.
    """

    def __init__(self, formula: ast.Formula, ctx: Optional[EvalContext] = None):
        if not in_fragment(formula):
            raise PTLError(
                "condition is outside the history-less fragment (value "
                f"capture, aggregates, or free variables): {formula}"
            )
        self.formula = formula
        self._evaluator = IncrementalEvaluator(formula, ctx)
        self.steps = 0

    def step(self, state: SystemState) -> FireResult:
        result = self._evaluator.step(state)
        self.steps += 1
        return result

    def register_count(self) -> int:
        """Stored booleans — one per temporal subformula."""
        return len(self._evaluator.stored_formulas())

    def state_size(self) -> int:
        return self._evaluator.state_size()
