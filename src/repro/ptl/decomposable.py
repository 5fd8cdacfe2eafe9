"""Decomposable formulas — the subclass behind the paper's prototype.

"Based on the work presented in this paper, a system for processing
trigger conditions specified by a subclass of PTL formulas called
decomposable formulas was implemented [8] ... When a trigger condition is
first entered, it automatically identifies and creates auxiliary
relations.  Later, whenever the database is updated, the temporal
component ... updates the auxiliary relations and checks for the
satisfaction of the condition.  This whole system was implemented on top
of Sybase using Sybase triggers."

We take *decomposable* to mean: a boolean combination of ground
current-state atoms and single-depth temporal atoms
``previously[w]? a`` / ``throughout_past[w]? a`` over ground atoms.  Each
temporal atom then decomposes into a constant-size auxiliary record —
the timestamps of the atom's latest satisfaction and latest violation —
updated by a per-update trigger, exactly the shape a SQL-trigger
implementation maintains:

* ``previously a``          holds iff a has ever held;
* ``previously[w] a``       holds iff a held at most w time units ago;
* ``throughout_past a``     holds iff a never failed;
* ``throughout_past[w] a``  holds iff a last failed more than w units ago.

:class:`DecomposableDetector` is a drop-in detector for this subclass with
O(1) state per temporal atom (no formula DAG at all) — the cheapest point
in the design space, covering many practical triggers.
"""

from __future__ import annotations

from typing import Optional

from repro._value import Value
from repro.errors import PTLError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.incremental import FireResult
from repro.ptl.semantics import satisfies


def _ground_atom(f: ast.Formula) -> bool:
    """A current-state atom without variables or aggregates."""
    if isinstance(f, ast.BoolConst):
        return True
    if isinstance(f, ast.Comparison):
        return not f.variables() and not ast.aggregate_terms(f)
    if isinstance(f, (ast.EventAtom, ast.InQuery)):
        return not f.variables()
    if isinstance(f, ast.Not):
        return _ground_atom(f.operand)
    if isinstance(f, (ast.And, ast.Or)):
        return all(_ground_atom(c) for c in f.operands)
    return False


def is_decomposable(f: ast.Formula) -> bool:
    """Boolean combinations of ground atoms and depth-1 temporal atoms."""
    if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
        return _ground_atom(f.operand)
    if isinstance(f, ast.Not):
        return is_decomposable(f.operand)
    if isinstance(f, (ast.And, ast.Or)):
        return all(is_decomposable(c) for c in f.operands)
    return _ground_atom(f)


class _AtomTracker(Value, frozen=False):
    """The auxiliary record for one temporal atom: latest satisfaction and
    latest violation timestamps (the decomposed state)."""

    atom: ast.Formula
    last_true: Optional[int] = None
    last_false: Optional[int] = None

    def update(self, holds: bool, timestamp: int) -> None:
        if holds:
            self.last_true = timestamp
        else:
            self.last_false = timestamp


class DecomposableDetector:
    """O(1)-state detector for decomposable conditions."""

    def __init__(self, formula: ast.Formula, ctx: Optional[EvalContext] = None):
        if not is_decomposable(formula):
            raise PTLError(f"formula is not decomposable: {formula}")
        self.formula = formula
        self.ctx = ctx or EvalContext()
        self._trackers: dict[ast.Formula, _AtomTracker] = {}
        self._collect(formula)
        self.steps = 0

    def _collect(self, f: ast.Formula) -> None:
        if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
            if f.operand not in self._trackers:
                self._trackers[f.operand] = _AtomTracker(f.operand)
            return
        if isinstance(f, ast.Not):
            self._collect(f.operand)
        elif isinstance(f, (ast.And, ast.Or)):
            for c in f.operands:
                self._collect(c)

    # -- stepping -----------------------------------------------------------

    def step(self, state: SystemState) -> FireResult:
        for atom, tracker in self._trackers.items():
            tracker.update(
                self._atom_holds(atom, state), state.timestamp
            )
        self.steps += 1
        fired = self._eval(self.formula, state)
        return FireResult(fired, ({},) if fired else ())

    def _atom_holds(self, atom: ast.Formula, state: SystemState) -> bool:
        # ground current-state atoms look no further than this state
        return satisfies([state], 0, atom, {}, self.ctx)

    def _eval(self, f: ast.Formula, state: SystemState) -> bool:
        now = state.timestamp
        if isinstance(f, ast.Previously):
            t = self._trackers[f.operand]
            if t.last_true is None:
                return False
            if f.window is None:
                return True
            return t.last_true >= now - f.window
        if isinstance(f, ast.ThroughoutPast):
            t = self._trackers[f.operand]
            if t.last_false is None:
                return True
            if f.window is None:
                return False
            return t.last_false < now - f.window
        if isinstance(f, ast.Not):
            return not self._eval(f.operand, state)
        if isinstance(f, ast.And):
            return all(self._eval(c, state) for c in f.operands)
        if isinstance(f, ast.Or):
            return any(self._eval(c, state) for c in f.operands)
        return self._atom_holds(f, state)

    # -- inspection -----------------------------------------------------------

    def state_size(self) -> int:
        """Two timestamps per temporal atom — constant."""
        return 2 * len(self._trackers)

    def auxiliary_records(self) -> list[tuple[str, Optional[int], Optional[int]]]:
        """The decomposed state, as the prototype's auxiliary relations
        would store it: (atom, last satisfied, last violated)."""
        return [
            (str(atom), t.last_true, t.last_false)
            for atom, t in self._trackers.items()
        ]
