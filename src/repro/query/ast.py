"""Abstract syntax for the QUEL-like query language.

Two layers:

* *Scalar expressions* (:class:`Expr`): constants, column references,
  parameters, function applications, comparisons, boolean connectives.
* *Queries* (:class:`Query`): whole-relation and scalar-item references,
  QUEL-style ``RETRIEVE (targets) [FROM ranges] WHERE cond``, and scalar
  aggregate queries ``AVG(expr) WHERE cond``.

Queries may contain :class:`Param` leaves — free parameters supplied at
evaluation time.  PTL uses parameters for free-variable-indexed aggregates
such as ``price(x)`` (Section 6.1.1 of the paper).

Nodes are canonical, as the PTL ones are (:class:`repro._intern.Canonical`):
an equal query built again is the same object, which is how the plan
cache finds a query's compiled plan (:func:`repro.query.plan.try_execute`),
and a literal's value compares type-exactly (``1`` is not ``1.0``).
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro._intern import EMPTY, Canonical, singleton
from repro._value import Value

_set = object.__setattr__

# --------------------------------------------------------------------------
# Scalar expressions
# --------------------------------------------------------------------------


class Expr(metaclass=Canonical):
    """Base class of scalar expressions."""

    __slots__ = ("_hash", "__weakref__")

    def params(self) -> frozenset[str]:
        """Names of :class:`Param` leaves appearing in this expression."""
        return EMPTY


class Const(Expr, Value):
    """A literal value."""

    __slots__ = ("value",)
    _leaves = ("value",)

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


class Col(Expr, Value):
    """A column reference, possibly qualified: ``S.price`` or ``price``."""

    __slots__ = ("name",)

    name: str

    @property
    def relation(self) -> Optional[str]:
        if "." in self.name:
            return self.name.split(".", 1)[0]
        return None

    @property
    def attribute(self) -> str:
        if "." in self.name:
            return self.name.split(".", 1)[1]
        return self.name

    def __str__(self) -> str:
        return self.name


class Param(Expr, Value):
    """A free parameter bound at evaluation time (written ``$name``)."""

    __slots__ = ("name",)

    name: str

    def params(self) -> frozenset[str]:
        return singleton(self.name)

    def __str__(self) -> str:
        return f"${self.name}"


class App(Expr, Value):
    """Application of a registered scalar function."""

    __slots__ = ("func", "args")

    func: str
    args: tuple[Expr, ...]

    def params(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for a in self.args:
            out |= a.params()
        return out

    def __str__(self) -> str:
        if self.func in ("+", "-", "*", "/", "mod") and len(self.args) == 2:
            return f"({self.args[0]} {self.func} {self.args[1]})"
        return f"{self.func}({', '.join(map(str, self.args))})"


class Cmp(Expr, Value):
    """A comparison; evaluates to a boolean."""

    __slots__ = ("op", "left", "right")

    op: str  # one of = != < <= > >=
    left: Expr
    right: Expr

    def params(self) -> frozenset[str]:
        return self.left.params() | self.right.params()

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class BoolOp(Expr, Value):
    """Conjunction or disjunction of boolean expressions."""

    __slots__ = ("op", "operands")

    op: str  # "and" | "or"
    operands: tuple[Expr, ...]

    def params(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for a in self.operands:
            out |= a.params()
        return out

    def __str__(self) -> str:
        return "(" + f" {self.op} ".join(map(str, self.operands)) + ")"


class Not(Expr, Value):
    __slots__ = ("operand",)

    operand: Expr

    def params(self) -> frozenset[str]:
        return self.operand.params()

    def __str__(self) -> str:
        return f"not {self.operand}"


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------


class Query(metaclass=Canonical):
    """Base class of queries.

    A query evaluates, against a database state and a parameter environment,
    to either a :class:`~repro.datamodel.relation.Relation` or a scalar.
    """

    __slots__ = ("_hash", "__weakref__")

    def params(self) -> frozenset[str]:
        return EMPTY


class RelationRef(Query, Value):
    """The full contents of a named relation."""

    __slots__ = ("name",)

    name: str

    def __str__(self) -> str:
        return self.name


class ItemRef(Query, Value):
    """A scalar database item (e.g. ``time``, or an aggregate-rewriting
    item like ``CUM_PRICE``), optionally indexed by parameter expressions
    (``CUM_PRICE[$x]``, Section 6.1.1)."""

    __slots__ = ("name", "index")

    name: str
    index: tuple[Expr, ...]

    def __init__(self, name, index=()) -> None:
        _set(self, "name", name)
        _set(self, "index", index)

    def params(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for e in self.index:
            out |= e.params()
        return out

    def __str__(self) -> str:
        if self.index:
            return f"{self.name}[{', '.join(map(str, self.index))}]"
        return self.name


class RangeVar(Value, metaclass=Canonical):
    """A range variable over a relation: ``STOCK S`` (alias optional)."""

    __slots__ = ("relation", "alias", "_hash", "__weakref__")

    relation: str
    alias: Optional[str]

    def __init__(self, relation, alias=None) -> None:
        _set(self, "relation", relation)
        _set(self, "alias", alias)

    @property
    def name(self) -> str:
        return self.alias or self.relation

    def __str__(self) -> str:
        if self.alias:
            return f"{self.relation} {self.alias}"
        return self.relation


class Retrieve(Query, Value):
    """QUEL-style retrieval.

    ``RETRIEVE (t1, t2, ...) FROM ranges WHERE cond`` — the paper's own
    example syntax (Section 4.1) omits FROM; ranges are then inferred from
    the qualified column names.
    """

    __slots__ = ("targets", "ranges", "where")

    targets: tuple[tuple[str, Expr], ...]  # (output name, expression)
    ranges: tuple[RangeVar, ...]
    where: Optional[Expr]

    def __init__(self, targets, ranges, where=None) -> None:
        _set(self, "targets", targets)
        _set(self, "ranges", ranges)
        _set(self, "where", where)

    def params(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for _, e in self.targets:
            out |= e.params()
        if self.where is not None:
            out |= self.where.params()
        return out

    def __str__(self) -> str:
        targets = ", ".join(str(e) for _, e in self.targets)
        s = f"RETRIEVE ({targets})"
        if self.ranges:
            s += " FROM " + ", ".join(map(str, self.ranges))
        if self.where is not None:
            s += f" WHERE {self.where}"
        return s


class AggregateQuery(Query, Value):
    """An aggregate over the rows selected by a retrieval:
    ``AVG(S.price) FROM STOCK S WHERE S.cat = 'tech'`` (scalar), or with
    ``GROUP BY`` a relation of (group columns..., aggregate value):
    ``SUM(S.price) FROM STOCK S GROUP BY S.cat``."""

    __slots__ = ("func", "expr", "ranges", "where", "group_by")

    func: str
    expr: Expr
    ranges: tuple[RangeVar, ...]
    where: Optional[Expr]
    group_by: tuple["Col", ...]

    def __init__(self, func, expr, ranges, where=None, group_by=()) -> None:
        _set(self, "func", func)
        _set(self, "expr", expr)
        _set(self, "ranges", ranges)
        _set(self, "where", where)
        _set(self, "group_by", group_by)

    def params(self) -> frozenset[str]:
        out = self.expr.params()
        if self.where is not None:
            out |= self.where.params()
        return out

    def __str__(self) -> str:
        s = f"{self.func.upper()}({self.expr})"
        if self.ranges:
            s += " FROM " + ", ".join(map(str, self.ranges))
        if self.where is not None:
            s += f" WHERE {self.where}"
        if self.group_by:
            s += " GROUP BY " + ", ".join(map(str, self.group_by))
        return s


class ParamQuery(Query, Value):
    """A query whose value is a free parameter itself (``$x`` used as a
    query, e.g. inside ``sum($x, phi, psi)``)."""

    __slots__ = ("name",)

    name: str

    def params(self) -> frozenset[str]:
        return singleton(self.name)

    def __str__(self) -> str:
        return f"${self.name}"


class ConstQuery(Query, Value):
    """A constant query (e.g. the literal ``1`` in ``sum(1, phi, psi)``,
    which the paper uses to count sampling points)."""

    __slots__ = ("value",)
    _leaves = ("value",)

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


class ExprQuery(Query, Value):
    """A scalar query computed from other queries by a scalar function,
    e.g. ``price(IBM) * 2`` or ``CUM_PRICE / TOTAL_UPDATES``."""

    __slots__ = ("func", "args")

    func: str
    args: tuple[Query, ...]

    def params(self) -> frozenset[str]:
        out: frozenset[str] = EMPTY
        for q in self.args:
            out |= q.params()
        return out

    def __str__(self) -> str:
        if self.func in ("+", "-", "*", "/", "mod") and len(self.args) == 2:
            return f"({self.args[0]} {self.func} {self.args[1]})"
        return f"{self.func}({', '.join(map(str, self.args))})"


QueryLike = Union[Query, str]
