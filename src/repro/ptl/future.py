"""Future temporal operators — the paper's future work, implemented.

"As part of the future work, it will be interesting to see if we can
extend the specification logic and the processing algorithm to include
both the future and past temporal operators (in our earlier paper [36], we
used only future temporal operators such as Until, Nexttime etc.)."

This module adds that extension as *monitors over the growing history*,
using formula progression: after each new system state, the pending
formula is rewritten into what must hold **from the next state on**::

    prog(next f)       = f
    prog(f until g)    = prog(g) | (prog(f) & (f until g))
    prog(eventually f) = prog(f) | eventually f     (bounded: minus elapsed)
    prog(always f)     = prog(f) & always f         (bounded likewise)

A monitor resolves to SATISFIED when the formula progresses to true, to
VIOLATED when it progresses to false, and stays PENDING otherwise.
Bounded operators carry a time budget decremented by the elapsed time
between states, so ``eventually[10] p`` fails once 10 time units pass.

Past and future compose: :class:`Past` embeds any ground past-PTL formula
as an atom whose per-state value is a root of a condition plan —
e.g. ``always (Past(alarm-condition) -> eventually[5] @ack)``.
"""

from __future__ import annotations

import enum
from typing import Optional, Union

from repro._value import Value
from repro.errors import PTLError, UnsafeFormulaError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.plan import SharedPlan

# ---------------------------------------------------------------------------
# Future-formula AST (wraps past-PTL formulas as atoms)
# ---------------------------------------------------------------------------


class FFormula:
    """Base class of future formulas."""

    __slots__ = ()

    def __and__(self, other):
        return FAnd((self, _coerce(other)))

    def __or__(self, other):
        return FOr((self, _coerce(other)))

    def __invert__(self):
        return FNot(self)


class FBool(FFormula, Value):
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


FTRUE = FBool(True)
FFALSE = FBool(False)


class Atom(FFormula, Value):
    """A present-state atom: any *ground* past-PTL formula (plain
    comparisons and event atoms included), evaluated per state as a root
    of the monitor's plan."""

    formula: ast.Formula

    def __str__(self):
        return f"[{self.formula}]"


#: Alias emphasizing past-embedding.
Past = Atom


class FNot(FFormula, Value):
    operand: FFormula

    def __str__(self):
        return f"!({self.operand})"


class FAnd(FFormula, Value):
    operands: tuple[FFormula, ...]

    def __str__(self):
        return "(" + " & ".join(map(str, self.operands)) + ")"


class FOr(FFormula, Value):
    operands: tuple[FFormula, ...]

    def __str__(self):
        return "(" + " | ".join(map(str, self.operands)) + ")"


class Next(FFormula, Value):
    """``next f`` — f holds at the next state."""

    operand: FFormula

    def __str__(self):
        return f"next ({self.operand})"


class Until(FFormula, Value):
    """``f until g`` — g holds at some future (or current) state and f
    holds at every state before it."""

    lhs: FFormula
    rhs: FFormula

    def __str__(self):
        return f"({self.lhs} until {self.rhs})"


class Eventually(FFormula, Value):
    """``eventually f`` / ``eventually[w] f`` (within w time units of the
    state where this operator instance is first evaluated).

    ``deadline`` is internal: the monitor anchors the window to an
    absolute timestamp on first progression (a fresh instance created by
    an unfolding anchors at *that* state, not at the monitor's start).
    """

    operand: FFormula
    window: Optional[int] = None
    deadline: Optional[int] = None

    def __str__(self):
        w = f"[{self.window}]" if self.window is not None else ""
        return f"eventually{w} ({self.operand})"


class Always(FFormula, Value):
    """``always f`` / ``always[w] f`` (throughout the next w time units
    from this instance's first evaluation; see Eventually on anchoring)."""

    operand: FFormula
    window: Optional[int] = None
    deadline: Optional[int] = None

    def __str__(self):
        w = f"[{self.window}]" if self.window is not None else ""
        return f"always{w} ({self.operand})"


def _coerce(value: Union[FFormula, ast.Formula, bool]) -> FFormula:
    if isinstance(value, FFormula):
        return value
    if isinstance(value, ast.Formula):
        return Atom(value)
    if isinstance(value, bool):
        return FTRUE if value else FFALSE
    raise PTLError(f"not a future formula: {value!r}")


# smart constructors -----------------------------------------------------------


def fnot(f: FFormula) -> FFormula:
    if isinstance(f, FBool):
        return FFALSE if f.value else FTRUE
    if isinstance(f, FNot):
        return f.operand
    return FNot(f)


def fand(operands) -> FFormula:
    flat: list[FFormula] = []
    for f in operands:
        if isinstance(f, FBool):
            if not f.value:
                return FFALSE
            continue
        if isinstance(f, FAnd):
            flat.extend(f.operands)
        else:
            flat.append(f)
    out: list[FFormula] = []
    for f in flat:
        if f not in out:
            out.append(f)
    if not out:
        return FTRUE
    if len(out) == 1:
        return out[0]
    return FAnd(tuple(out))


def for_(operands) -> FFormula:
    flat: list[FFormula] = []
    for f in operands:
        if isinstance(f, FBool):
            if f.value:
                return FTRUE
            continue
        if isinstance(f, FOr):
            flat.extend(f.operands)
        else:
            flat.append(f)
    out: list[FFormula] = []
    for f in flat:
        if f not in out:
            out.append(f)
    if not out:
        return FFALSE
    if len(out) == 1:
        return out[0]
    return FOr(tuple(out))


# ---------------------------------------------------------------------------
# Monitor
# ---------------------------------------------------------------------------


class Verdict(enum.Enum):
    PENDING = "pending"
    SATISFIED = "satisfied"
    VIOLATED = "violated"


class FutureMonitor:
    """Monitors one future formula from the state of its first ``step``.

    Each atom (an embedded past formula) is a root of a :class:`SharedPlan`
    — a private one, or the ``plan`` of the rule manager that hosts the
    monitor, named ``(name, atom formula)`` so that no rule name can equal
    it — and is registered at the plan's current epoch: its temporal
    operators start with the monitor.  A resolved monitor releases its
    atoms.  Only a private plan is stepped by :meth:`step`.
    """

    def __init__(
        self,
        formula: FFormula,
        ctx: Optional[EvalContext] = None,
        plan: Optional[SharedPlan] = None,
        name: str = "",
    ):
        self.hosted = plan is not None
        self.plan = plan if plan is not None else SharedPlan(ctx)
        self.initial = _coerce(formula)
        self.current: FFormula = self.initial
        self.verdict = Verdict.PENDING
        self.steps = 0
        #: atom formula -> its root's name on the plan (empty once the
        #: monitor has resolved and released them).
        self.atoms: dict[ast.Formula, tuple] = {}
        self._atom_values: dict[ast.Formula, bool] = {}
        atoms = [atom.formula for atom in _collect_atoms(self.initial)]
        for f in atoms:
            if ast.free_variables(f):
                raise UnsafeFormulaError(
                    f"future-monitor atoms must be ground: {f}"
                )
        for f in atoms:
            self.plan.add_rule((name, f), f, ctx)
            self.atoms[f] = (name, f)

    # -- stepping ---------------------------------------------------------------

    def step(self, state: SystemState) -> Verdict:
        """Step the private plan through ``state`` and progress over it."""
        if self.hosted:
            raise PTLError("a hosted monitor is advanced by its host's plan")
        if self.verdict is Verdict.PENDING:
            self.plan.step(state)
            self.advance(state)
        return self.verdict

    def advance(self, state: SystemState) -> Optional[Verdict]:
        """Progress over ``state``, which the plan has just stepped (a host
        reads the atoms before the step completes); returns the verdict
        the monitor resolves to here, else None."""
        if self.verdict is not Verdict.PENDING:
            return None
        self._atom_values = {
            f: self.plan.result_of(key).fired for f, key in self.atoms.items()
        }
        self.current = self._progress(self.current, state.timestamp)
        self.steps += 1
        if isinstance(self.current, FBool):
            self.verdict = (
                Verdict.SATISFIED if self.current.value else Verdict.VIOLATED
            )
            self.release()
            return self.verdict
        return None

    def release(self) -> None:
        """Drop the atoms' roots from the plan."""
        for key in self.atoms.values():
            self.plan.remove_rule(key)
        self.atoms = {}

    def _progress(self, f: FFormula, now: int) -> FFormula:
        if isinstance(f, FBool):
            return f
        if isinstance(f, Atom):
            return FTRUE if self._atom_values[f.formula] else FFALSE
        if isinstance(f, FNot):
            return fnot(self._progress(f.operand, now))
        if isinstance(f, FAnd):
            return fand(self._progress(c, now) for c in f.operands)
        if isinstance(f, FOr):
            return for_(self._progress(c, now) for c in f.operands)
        if isinstance(f, Next):
            return f.operand
        if isinstance(f, Until):
            now_rhs = self._progress(f.rhs, now)
            now_lhs = self._progress(f.lhs, now)
            return for_([now_rhs, fand([now_lhs, f])])
        if isinstance(f, Eventually):
            if f.window is not None:
                # anchor the window at this instance's first evaluation
                deadline = (
                    now + f.window if f.deadline is None else f.deadline
                )
                if now > deadline:
                    return FFALSE
                rest: FFormula = Eventually(f.operand, f.window, deadline)
            else:
                rest = f
            return for_([self._progress(f.operand, now), rest])
        if isinstance(f, Always):
            if f.window is not None:
                deadline = (
                    now + f.window if f.deadline is None else f.deadline
                )
                if now > deadline:
                    return FTRUE  # the window closed: obligation discharged
                rest: FFormula = Always(f.operand, f.window, deadline)
                return fand([self._progress(f.operand, now), rest])
            return fand([self._progress(f.operand, now), f])
        raise PTLError(f"cannot progress {f!r}")

    # -- inspection -----------------------------------------------------------------

    def state_size(self) -> int:
        """The pending formula's size, plus a private plan's state."""
        plan = 0 if self.hosted else self.plan.state_size()
        return _fsize(self.current) + plan


def satisfies_finite(
    history,
    k: int,
    formula: FFormula,
    ctx: Optional[EvalContext] = None,
) -> bool:
    """Finite-trace reference semantics, treating the history as complete:
    ``eventually`` must witness within the trace, ``always`` is checked on
    the remaining states only, ``next`` at the last position is false.

    Ground truth for the monitor's *resolved* verdicts: if
    :class:`FutureMonitor` reports SATISFIED after consuming a trace, the
    formula holds here; if VIOLATED, it fails here (PENDING makes no
    claim either way) — property-tested in the test suite.
    """
    ctx = ctx or EvalContext()
    states = list(history)
    n = len(states)

    from repro.ptl.semantics import satisfies as past_satisfies

    def sat(j: int, f: FFormula) -> bool:
        if isinstance(f, FBool):
            return f.value
        if isinstance(f, Atom):
            return past_satisfies(states, j, f.formula, {}, ctx)
        if isinstance(f, FNot):
            return not sat(j, f.operand)
        if isinstance(f, FAnd):
            return all(sat(j, c) for c in f.operands)
        if isinstance(f, FOr):
            return any(sat(j, c) for c in f.operands)
        if isinstance(f, Next):
            return j + 1 < n and sat(j + 1, f.operand)
        if isinstance(f, Until):
            for m in range(j, n):
                if sat(m, f.rhs):
                    return True
                if not sat(m, f.lhs):
                    return False
            return False
        if isinstance(f, Eventually):
            deadline = (
                None if f.window is None else states[j].timestamp + f.window
            )
            for m in range(j, n):
                if deadline is not None and states[m].timestamp > deadline:
                    return False
                if sat(m, f.operand):
                    return True
            return False
        if isinstance(f, Always):
            deadline = (
                None if f.window is None else states[j].timestamp + f.window
            )
            for m in range(j, n):
                if deadline is not None and states[m].timestamp > deadline:
                    return True
                if not sat(m, f.operand):
                    return False
            return True
        raise PTLError(f"cannot evaluate {f!r}")

    if not (0 <= k < n):
        raise PTLError(f"position {k} outside history of length {n}")
    return sat(k, _coerce(formula))


def _collect_atoms(f: FFormula) -> list[Atom]:
    out: list[Atom] = []
    seen: set[ast.Formula] = set()

    def rec(g: FFormula) -> None:
        if isinstance(g, Atom):
            if g.formula not in seen:
                seen.add(g.formula)
                out.append(g)
        elif isinstance(g, FNot):
            rec(g.operand)
        elif isinstance(g, (FAnd, FOr)):
            for c in g.operands:
                rec(c)
        elif isinstance(g, Next):
            rec(g.operand)
        elif isinstance(g, Until):
            rec(g.lhs)
            rec(g.rhs)
        elif isinstance(g, (Eventually, Always)):
            rec(g.operand)

    rec(f)
    return out


def _fsize(f: FFormula) -> int:
    if isinstance(f, (FBool, Atom)):
        return 1
    if isinstance(f, FNot):
        return 1 + _fsize(f.operand)
    if isinstance(f, (FAnd, FOr)):
        return 1 + sum(_fsize(c) for c in f.operands)
    if isinstance(f, Next):
        return 1 + _fsize(f.operand)
    if isinstance(f, Until):
        return 1 + _fsize(f.lhs) + _fsize(f.rhs)
    if isinstance(f, (Eventually, Always)):
        return 1 + _fsize(f.operand)
    return 1
