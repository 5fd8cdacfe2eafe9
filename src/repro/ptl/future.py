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
as an atom whose per-state value comes from an incremental evaluator —
e.g. ``always (Past(alarm-condition) -> eventually[5] @ack)``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import PTLError, UnsafeFormulaError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.plan import IncrementalEvaluator

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


@dataclass(frozen=True)
class FBool(FFormula):
    value: bool

    def __str__(self):
        return "true" if self.value else "false"


FTRUE = FBool(True)
FFALSE = FBool(False)


@dataclass(frozen=True)
class Atom(FFormula):
    """A present-state atom: any *ground* past-PTL formula (plain
    comparisons and event atoms included), evaluated per state by an
    incremental evaluator."""

    formula: ast.Formula

    def __str__(self):
        return f"[{self.formula}]"


#: Alias emphasizing past-embedding.
Past = Atom


@dataclass(frozen=True)
class FNot(FFormula):
    operand: FFormula

    def __str__(self):
        return f"!({self.operand})"


@dataclass(frozen=True)
class FAnd(FFormula):
    operands: tuple[FFormula, ...]

    def __str__(self):
        return "(" + " & ".join(map(str, self.operands)) + ")"


@dataclass(frozen=True)
class FOr(FFormula):
    operands: tuple[FFormula, ...]

    def __str__(self):
        return "(" + " | ".join(map(str, self.operands)) + ")"


@dataclass(frozen=True)
class Next(FFormula):
    """``next f`` — f holds at the next state."""

    operand: FFormula

    def __str__(self):
        return f"next ({self.operand})"


@dataclass(frozen=True)
class Until(FFormula):
    """``f until g`` — g holds at some future (or current) state and f
    holds at every state before it."""

    lhs: FFormula
    rhs: FFormula

    def __str__(self):
        return f"({self.lhs} until {self.rhs})"


@dataclass(frozen=True)
class Eventually(FFormula):
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


@dataclass(frozen=True)
class Always(FFormula):
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

    Atoms (embedded past formulas) are evaluated by shared incremental
    evaluators, so the full past+future logic is processed with the same
    per-state incremental discipline as pure-past conditions.
    """

    def __init__(self, formula: FFormula, ctx: Optional[EvalContext] = None):
        self.ctx = ctx or EvalContext()
        self.initial = _coerce(formula)
        self.current: FFormula = self.initial
        self.verdict = Verdict.PENDING
        self.steps = 0
        self._last_ts: Optional[int] = None
        self._atoms: dict[ast.Formula, IncrementalEvaluator] = {}
        self._atom_values: dict[ast.Formula, bool] = {}
        for atom in _collect_atoms(self.initial):
            if ast.free_variables(atom.formula):
                raise UnsafeFormulaError(
                    f"future-monitor atoms must be ground: {atom.formula}"
                )
            self._atoms[atom.formula] = IncrementalEvaluator(
                atom.formula, self.ctx
            )

    # -- stepping ---------------------------------------------------------------

    def step(self, state: SystemState) -> Verdict:
        """Progress through one new system state."""
        if self.verdict is not Verdict.PENDING:
            # keep atom evaluators current anyway (cheap, and a monitor
            # pool may share them), but the verdict is final.
            for ev in self._atoms.values():
                ev.step(state)
            return self.verdict
        self._last_ts = state.timestamp
        self._atom_values = {
            f: ev.step(state).fired for f, ev in self._atoms.items()
        }
        self.current = self._progress(self.current, state.timestamp)
        self.steps += 1
        if isinstance(self.current, FBool):
            self.verdict = (
                Verdict.SATISFIED if self.current.value else Verdict.VIOLATED
            )
        return self.verdict

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

    @property
    def pending_formula(self) -> FFormula:
        return self.current

    def state_size(self) -> int:
        return _fsize(self.current) + sum(
            ev.state_size() for ev in self._atoms.values()
        )


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
