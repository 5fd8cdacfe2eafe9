"""Abstract syntax of Past Temporal Logic (Section 4 of the paper).

Terms
-----
* :class:`Var` — a variable.  Bound if some enclosing assignment operator
  ``[x := q]`` assigns it; otherwise *free* (any satisfying assignment fires
  the rule, with the values passed to the action part).
* :class:`ConstT` — a literal.
* :class:`FuncT` — application of a scalar function to terms.
* :class:`QueryT` — a database query used as a term; evaluated at the state
  where the enclosing atom is evaluated.  The paper's "function symbols ...
  used to denote queries".
* :class:`AggT` — a temporal aggregate ``f(q, phi, psi)`` (Section 6):
  aggregate of query ``q`` since the latest state satisfying the *starting
  formula* ``phi``, sampled at states satisfying the *sampling formula*
  ``psi``.  ``phi``/``psi`` are full PTL formulas and may themselves contain
  aggregates (nesting).

Formulas
--------
Comparisons between terms, event atoms (``@name(args)``), membership atoms
(tuple-in-query), the ``executed`` predicate (Section 7), boolean
connectives, and the past temporal operators ``Since`` and ``Lasttime``
(primitive) plus ``Previously`` and ``ThroughoutPast`` (derived, Section
4.1), the assignment operator ``[x := q] f``, and bounded sugar
``previously[w] f`` / ``throughout_past[w] f``.

Nodes are canonical (:class:`repro._intern.Canonical`): building a node
whose fields are a live node's returns that node, so every rule that
holds a subformula holds the same one.  Leaves compare type-exactly
(``x > 1`` is not ``x > 1.0``), so two nodes are equal only when they are
the same node.  They are slotted and hold their hash; a formula holds its
free variables once computed.
"""

from __future__ import annotations

from typing import Optional

from repro._intern import EMPTY, Canonical, singleton, small
from repro._value import Value
from repro.query.ast import Query

_set = object.__setattr__

# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term(metaclass=Canonical):
    __slots__ = ("_hash", "__weakref__")

    def variables(self) -> frozenset[str]:
        return EMPTY


class Var(Term, Value):
    __slots__ = ("name",)

    name: str

    def variables(self) -> frozenset[str]:
        return singleton(self.name)

    def __str__(self) -> str:
        return self.name


class ConstT(Term, Value):
    __slots__ = ("value",)
    _leaves = ("value",)

    value: object

    def __str__(self) -> str:
        return repr(self.value)


class FuncT(Term, Value):
    __slots__ = ("func", "args")

    func: str
    args: tuple[Term, ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        if self.func in ("+", "-", "*", "/", "mod") and len(self.args) == 2:
            return f"({self.args[0]} {self.func} {self.args[1]})"
        return f"{self.func}({', '.join(map(str, self.args))})"


class QueryT(Term, Value):
    """A database query as a term.  Query parameters (``$v``) refer to PTL
    variables; they must be *domain-instantiated free variables* (the
    evaluators ground them before any query runs)."""

    __slots__ = ("query",)

    query: Query

    def variables(self) -> frozenset[str]:
        return frozenset(self.query.params())

    def __str__(self) -> str:
        return f"{{{self.query}}}"


class AggT(Term, Value):
    """Temporal aggregate ``func(query; start; sample)`` (Section 6)."""

    __slots__ = ("func", "query", "start", "sample")

    func: str
    query: Query
    start: "Formula"
    sample: "Formula"

    def variables(self) -> frozenset[str]:
        return (
            frozenset(self.query.params())
            | self.start.variables()
            | self.sample.variables()
        )

    def __str__(self) -> str:
        from repro.query.ast import Retrieve

        # A RETRIEVE body needs its braces back to re-parse in aggregate
        # position (scalar query parts — item refs, constants, query-symbol
        # expansions — re-parse bare).
        query = (
            f"{{{self.query}}}"
            if isinstance(self.query, Retrieve)
            else str(self.query)
        )
        return f"{self.func}({query}; {self.start}; {self.sample})"


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class Formula(metaclass=Canonical):
    #: ``_free``: :func:`free_variables`, once computed.
    __slots__ = ("_free", "_hash", "__weakref__")

    def variables(self) -> frozenset[str]:
        """All variable names appearing in the formula."""
        return EMPTY

    def children(self) -> tuple["Formula", ...]:
        return ()

    # Convenience combinators -------------------------------------------------

    def __and__(self, other: "Formula") -> "Formula":
        return And((self, other))

    def __or__(self, other: "Formula") -> "Formula":
        return Or((self, other))

    def __invert__(self) -> "Formula":
        return Not(self)


class BoolConst(Formula, Value):
    __slots__ = ("value",)
    _leaves = ("value",)

    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


class Comparison(Formula, Value):
    __slots__ = ("op", "left", "right")

    op: str  # = != < <= > >=
    left: Term
    right: Term

    def variables(self) -> frozenset[str]:
        return self.left.variables() | self.right.variables()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class EventAtom(Formula, Value):
    """``@name(p1, ..., pn)`` — satisfied at a state whose event set
    contains an event named ``name`` whose parameters match the argument
    terms.  Variable arguments *bind* to the event's parameter values."""

    __slots__ = ("name", "args")

    name: str
    args: tuple[Term, ...]

    def __init__(self, name, args=()) -> None:
        _set(self, "name", name)
        _set(self, "args", args)

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        if not self.args:
            return f"@{self.name}"
        return f"@{self.name}({', '.join(map(str, self.args))})"


class InQuery(Formula, Value):
    """``(t1, ..., tn) in q`` — membership of a tuple of terms in the
    relation retrieved by ``q`` at the current state (the paper's relation
    atoms, e.g. ``OVERPRICED(x)``).  Variable arguments bind to attribute
    values of matching rows."""

    __slots__ = ("args", "query")

    args: tuple[Term, ...]
    query: Query

    def variables(self) -> frozenset[str]:
        out = frozenset(self.query.params())
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        return f"({', '.join(map(str, self.args))}) in {{{self.query}}}"


class ExecutedAtom(Formula, Value):
    """``executed(r, x1, ..., xk, t)`` (Section 7): satisfied at time T if
    rule ``r`` was executed with parameters ``x1..xk`` at time ``t < T``.
    Variable arguments (including the time argument) bind against the
    rule-execution store."""

    __slots__ = ("rule", "args", "time")

    rule: str
    args: tuple[Term, ...]
    time: Term

    def variables(self) -> frozenset[str]:
        out = self.time.variables()
        for a in self.args:
            out |= a.variables()
        return out

    def __str__(self) -> str:
        inner = ", ".join([self.rule, *map(str, self.args), str(self.time)])
        return f"executed({inner})"


class Not(Formula, Value):
    __slots__ = ("operand",)

    operand: Formula

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"!({self.operand})"


class And(Formula, Value):
    __slots__ = ("operands",)

    operands: tuple[Formula, ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for f in self.operands:
            out |= f.variables()
        return out

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " & ".join(map(str, self.operands)) + ")"


class Or(Formula, Value):
    __slots__ = ("operands",)

    operands: tuple[Formula, ...]

    def variables(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for f in self.operands:
            out |= f.variables()
        return out

    def children(self) -> tuple[Formula, ...]:
        return self.operands

    def __str__(self) -> str:
        return "(" + " | ".join(map(str, self.operands)) + ")"


class Since(Formula, Value):
    """``lhs since rhs`` — ``rhs`` held at some state j <= i and ``lhs``
    held at every state in (j, i].  One of the two basic operators."""

    __slots__ = ("lhs", "rhs")

    lhs: Formula
    rhs: Formula

    def variables(self) -> frozenset[str]:
        return self.lhs.variables() | self.rhs.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.lhs, self.rhs)

    def __str__(self) -> str:
        return f"({self.lhs} since {self.rhs})"


class Lasttime(Formula, Value):
    """``lasttime f`` — f held at the previous state (false at the first
    state).  The other basic operator."""

    __slots__ = ("operand",)

    operand: Formula

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"lasttime ({self.operand})"


class Previously(Formula, Value):
    """Derived: ``previously f == true since f`` (f held at some state
    <= i, including the current one)."""

    __slots__ = ("operand", "window")
    _leaves = ("window",)

    operand: Formula
    #: Optional window: ``previously[w] f`` — f held at a past state whose
    #: timestamp is within ``w`` time units of the current timestamp.
    window: Optional[int]

    def __init__(self, operand, window=None) -> None:
        _set(self, "operand", operand)
        _set(self, "window", window)

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        w = f"[{self.window}]" if self.window is not None else ""
        return f"previously{w} ({self.operand})"


class ThroughoutPast(Formula, Value):
    """Derived: ``throughout_past f == !previously !f``."""

    __slots__ = ("operand", "window")
    _leaves = ("window",)

    operand: Formula
    window: Optional[int]

    def __init__(self, operand, window=None) -> None:
        _set(self, "operand", operand)
        _set(self, "window", window)

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def children(self) -> tuple[Formula, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        w = f"[{self.window}]" if self.window is not None else ""
        return f"throughout_past{w} ({self.operand})"


class Assign(Formula, Value):
    """The assignment operator ``[x := q] f``: bind ``x`` to the value of
    query ``q`` at the *current* state, then evaluate ``f`` under the
    binding.  The paper's alternative to first-order quantification; it
    naturally ensures safety (Section 10)."""

    __slots__ = ("var", "query", "body")

    var: str
    query: Query
    body: Formula

    def variables(self) -> frozenset[str]:
        return (
            frozenset({self.var})
            | frozenset(self.query.params())
            | self.body.variables()
        )

    def children(self) -> tuple[Formula, ...]:
        return (self.body,)

    def __str__(self) -> str:
        from repro.query.ast import Retrieve

        query = (
            f"{{{self.query}}}"
            if isinstance(self.query, Retrieve)
            else str(self.query)
        )
        return f"[{self.var} := {query}] {self.body}"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def walk(formula: Formula):
    """Yield every subformula, pre-order (including aggregate start/sample
    formulas nested inside terms)."""
    yield formula
    if isinstance(formula, Comparison):
        for term in (formula.left, formula.right):
            yield from _walk_term(term)
    elif isinstance(formula, (EventAtom, ExecutedAtom)):
        pass
    elif isinstance(formula, Assign):
        yield from walk(formula.body)
    else:
        for child in formula.children():
            yield from walk(child)


def _walk_term(term: Term):
    if isinstance(term, AggT):
        yield from walk(term.start)
        yield from walk(term.sample)
    elif isinstance(term, FuncT):
        for a in term.args:
            yield from _walk_term(a)


def aggregate_terms(formula: Formula) -> list[AggT]:
    """All temporal-aggregate terms appearing in ``formula`` (shallow:
    aggregates nested inside other aggregates' start/sample formulas are
    reported by recursion when those formulas are compiled)."""
    out: list[AggT] = []

    def visit_term(term: Term) -> None:
        if isinstance(term, AggT):
            out.append(term)
        elif isinstance(term, FuncT):
            for a in term.args:
                visit_term(a)

    def visit(f: Formula) -> None:
        if isinstance(f, Comparison):
            visit_term(f.left)
            visit_term(f.right)
        elif isinstance(f, Assign):
            visit(f.body)
        else:
            for child in f.children():
                visit(child)

    visit(formula)
    return out


def assigned_variables(formula: Formula) -> dict[str, Query]:
    """Map of variable -> query for every assignment operator in the
    formula (after renaming, each variable is assigned at most once)."""
    out: dict[str, Query] = {}

    def visit(f: Formula) -> None:
        if isinstance(f, Assign):
            out[f.var] = f.query
            visit(f.body)
        else:
            for child in f.children():
                visit(child)

    visit(formula)
    return out


def free_variables(formula: Formula) -> frozenset[str]:
    """Variables not bound by any enclosing assignment operator.

    Event/executed-atom variables *are* free in the binding sense used here
    (they are bound dynamically, by matching); "free" means "not
    assignment-bound", matching the paper's usage.  A node computes its
    set once (nodes are shared, :mod:`repro._intern`); a variable bound
    around a subformula is subtracted where it is bound.
    """
    try:
        return formula._free
    except AttributeError:
        free = small(_free_variables(formula))
        _set(formula, "_free", free)
        return free


def _union(a: frozenset, b: frozenset) -> frozenset:
    """``a | b``, as one of its operands' objects when it is one of them,
    so a subformula's set is its child's wherever it adds nothing."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Assign):
        body = free_variables(f.body)
        if f.var in body:
            body = body - {f.var}
        return _union(body, f.query.params())
    if isinstance(f, Comparison):
        return _union(
            _term_free_variables(f.left), _term_free_variables(f.right)
        )
    if isinstance(f, (EventAtom, ExecutedAtom, InQuery)):
        return f.variables()
    out = EMPTY
    for child in f.children():
        out = _union(out, free_variables(child))
    return out


def _term_free_variables(term: Term) -> frozenset[str]:
    if isinstance(term, AggT):
        return _union(
            _union(term.query.params(), free_variables(term.start)),
            free_variables(term.sample),
        )
    if isinstance(term, FuncT):
        out = EMPTY
        for a in term.args:
            out = _union(out, _term_free_variables(a))
        return out
    return term.variables()
