"""State formulas ``F_{g,i}`` — the paper's incrementally-maintained values.

Section 5 maintains, for each subformula g, a formula ``F_{g,i}`` over the
free variables, "maintained as an and-or graph" with constant database
values from past states folded in.  This module provides that
representation: boolean combinations (:class:`CAnd`/:class:`COr`/
:class:`CNot`) of atomic comparisons (:class:`CAtom`) over symbolic terms,
with aggressive simplification on construction:

* constant folding (a fully-ground atom becomes :data:`CTRUE`/:data:`CFALSE`);
* ``and``/``or`` flattening, absorption, duplicate elimination, and
  complementary-literal detection;
* negation pushed into atoms (``!(x <= 3)`` becomes ``x > 3``);
* *linear normalization*: atoms are rearranged into the canonical form
  ``var <op> constant`` whenever possible (``11 <= .5*x`` becomes
  ``x >= 22``), which is both what the paper's worked examples display and
  what makes the Section 5 time-bound pruning (:mod:`repro.ptl.optimize`)
  applicable.

Nodes are slotted and treated as immutable (nothing outside this module
and the deadline cache of :mod:`repro.ptl.optimize` assigns to one, and
then only to a cache); sharing makes the "and-or graph".  The formula
nodes and the variable and application terms are hash-consed as
they are built (:class:`repro._intern.Canonical`): while a node is alive,
every construction of an equal one returns that same object, so the
``Since``/``Lasttime`` recurrences — which rebuild ``F_h | (F_g &
F_prev)`` every step from largely unchanged pieces — reuse existing nodes
instead of allocating fresh copies.  Constants key type-exactly, as
literals do (``x = 1`` is not ``x = 1.0``), so two live nodes with equal
fields are one node, and a node's ``==`` and ``hash`` are its identity's:
a dict keyed by nodes costs no Python call, and the algebra tests a
node's class and deduplicates operands by identity.  A constant
(:class:`SConst`) is not interned (the recurrences fold in a new value
nearly every step); it compares and hashes its value as a leaf.

The intern tables hold their nodes *weakly*: a node is canonical exactly
while something references it, and its table entry goes when it does.
What the process retains is therefore the and-or graph reachable from the
stored state formulas — the paper's Section 5 bound holds for the tables
too, not only for the roots — and :func:`dag_size` measures that graph:
unique nodes once, however many parents share them (:func:`size` is the
plain tree count).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional
from weakref import ref as _weakref

from repro._intern import EMPTY, FORMULAS, TERMS, Canonical, leaf, singleton
from repro._intern import eq_by_leaf, hash_by_leaf
from repro._value import Value
from repro.errors import (
    EvaluationError,
    QueryEvaluationError,
    SerializationError,
)
from repro.query.evaluator import apply_comparison
from repro.query.functions import scalar_function


def intern_stats() -> dict:
    """Process-wide counters of the constraint algebra's hash-consing:
    constructions answered by a live node (hits) or building one
    (misses) since import, and the number of *live* terms and formula
    nodes right now (the shared-plan obs layer publishes the hit rate and
    the live count)."""
    hits = TERMS.hits + FORMULAS.hits
    total = hits + TERMS.misses + FORMULAS.misses
    return {
        "hits": hits,
        "misses": total - hits,
        "hit_rate": (hits / total) if total else 0.0,
        "terms": len(TERMS),
        "formulas": len(FORMULAS),
    }


# ---------------------------------------------------------------------------
# Symbolic terms
# ---------------------------------------------------------------------------


class STerm:
    """Base class of the symbolic terms.  A term class names its fields
    in ``_fields`` and prints as ``Name(field=value, ...)``."""

    __slots__ = ()
    __repr__ = Value.__repr__

    def variables(self) -> frozenset[str]:
        return EMPTY


class SConst(STerm):
    """A constant: compared type-exactly, as a literal of the syntax trees
    is (:func:`repro._intern.eq_by_leaf`), but not interned — the
    recurrences build a new one for nearly every value they fold in."""

    __slots__ = ("value",)
    _fields = ("value",)
    __eq__ = eq_by_leaf
    __hash__ = hash_by_leaf

    def __init__(self, value: Any) -> None:
        self.value = value

    def __str__(self) -> str:
        value = self.value
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return repr(value)


class _Interned(STerm, metaclass=Canonical):
    """The interned terms."""

    __slots__ = ("__weakref__",)
    _table = TERMS


class SVar(_Interned):
    __slots__ = ("name",)
    _fields = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def variables(self) -> frozenset[str]:
        return singleton(self.name)

    def __str__(self) -> str:
        return self.name


def _union_variables(parts) -> frozenset[str]:
    v: frozenset[str] = EMPTY
    for p in parts:
        v |= p.variables()
    return v


class SApp(_Interned):
    #: ``_vars``: the free variables, once computed.
    __slots__ = ("func", "args", "_vars")
    _fields = ("func", "args")

    def __init__(self, func: str, args: tuple[STerm, ...]) -> None:
        self.func = func
        self.args = args
        self._vars = None

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = _union_variables(self.args)
        return v

    def __str__(self) -> str:
        if self.func in ("+", "-", "*", "/", "mod") and len(self.args) == 2:
            return f"({self.args[0]} {self.func} {self.args[1]})"
        return f"{self.func}({', '.join(map(str, self.args))})"


def sapp(func: str, args: tuple[STerm, ...]) -> STerm:
    """Build an application, constant-folding when all arguments are ground."""
    if all(isinstance(a, SConst) for a in args):
        fn = scalar_function(func)
        return SConst(fn(*[a.value for a in args]))
    return SApp(func, args)


def subst_term(term: STerm, consts: Mapping[str, SConst]) -> STerm:
    """``term`` with each variable ``consts`` names replaced by its
    constant."""
    if term.__class__ is SVar:
        return consts.get(term.name, term)
    if term.__class__ is SApp:
        return sapp(term.func, tuple([subst_term(a, consts) for a in term.args]))
    return term


def term_size(term: STerm) -> int:
    if term.__class__ is SApp:
        return 1 + sum(term_size(a) for a in term.args)
    return 1


# ---------------------------------------------------------------------------
# Constraint formulas
# ---------------------------------------------------------------------------


class C(metaclass=Canonical):
    """Base class of constraint formulas, named and printed as the terms
    are."""

    __slots__ = ("__weakref__",)
    __repr__ = Value.__repr__
    _table = FORMULAS

    def variables(self) -> frozenset[str]:
        return EMPTY


class CBool(C):
    __slots__ = ("value",)
    _fields = _leaves = ("value",)

    def __init__(self, value: bool) -> None:
        self.value = value

    def __str__(self) -> str:
        return "true" if self.value else "false"


CTRUE = CBool(True)
CFALSE = CBool(False)

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Node(C):
    """The non-constant formula nodes.  Beside its fields a node carries
    three caches, none of them a field: ``_vars`` (free variables),
    ``_neg`` (its negation, see :func:`cnot`) and ``_mdl`` (earliest
    deadline, owned by :mod:`repro.ptl.optimize`)."""

    __slots__ = ("_vars", "_neg", "_mdl")


class CAtom(_Node):
    __slots__ = ("op", "left", "right")
    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: STerm, right: STerm) -> None:
        self.op = op
        self.left = left
        self.right = right
        self._vars = self._neg = self._mdl = None

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = self.left.variables() | self.right.variables()
        return v

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class _Junction(_Node):
    """Shared body of :class:`CAnd` / :class:`COr`."""

    __slots__ = ("operands",)
    _fields = ("operands",)

    def __init__(self, operands: tuple[C, ...]) -> None:
        self.operands = operands
        self._vars = self._neg = self._mdl = None

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = _union_variables(self.operands)
        return v

    def __str__(self) -> str:
        return "(" + f" {self._symbol} ".join(map(str, self.operands)) + ")"


class CAnd(_Junction):
    __slots__ = ()
    _symbol = "&"


class COr(_Junction):
    __slots__ = ()
    _symbol = "|"


#: The junction classes.  The algebra tests a node's class by identity:
#: its classes have no subclasses, and ``isinstance`` against a class
#: whose metaclass is not ``type`` costs a method call.
JUNCTIONS = (CAnd, COr)


class CNot(_Node):
    __slots__ = ("operand",)
    _fields = ("operand",)

    def __init__(self, operand: C) -> None:
        self.operand = operand
        self._vars = self._neg = self._mdl = None

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"!({self.operand})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


def catom(op: str, left: STerm, right: STerm) -> C:
    """Build an atom: fold if ground, else normalize to ``var <op> const``
    when the atom is linear in a single variable occurrence."""
    if isinstance(left, SConst) and isinstance(right, SConst):
        try:
            return CTRUE if apply_comparison(op, left.value, right.value) else CFALSE
        except QueryEvaluationError:
            # Incomparable values (e.g. string vs int ordering): the atom
            # cannot hold.
            return CFALSE
    return CAtom(*_normalize_linear(op, left, right))


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _normalize_linear(op: str, left: STerm, right: STerm):
    """Rearrange toward ``var <op> const``: flip constant-on-left, move
    additive constants across, divide out positive multiplicative
    constants (flipping the comparison for negative ones)."""
    if isinstance(left, SConst) and not isinstance(right, SConst):
        op, left, right = _FLIPPED_OP[op], right, left

    changed = True
    while changed and isinstance(right, SConst) and _is_number(right.value):
        changed = False
        if left.__class__ is SApp and len(left.args) == 2:
            a, b = left.args
            if left.func in ("+", "-") and isinstance(b, SConst) and _is_number(b.value):
                # (X +/- c) op d  ->  X op d -/+ c
                d = right.value - b.value if left.func == "+" else right.value + b.value
                left, right = a, SConst(d)
                changed = True
            elif left.func == "+" and isinstance(a, SConst) and _is_number(a.value):
                left, right = b, SConst(right.value - a.value)
                changed = True
            elif left.func == "*" and isinstance(a, SConst) and _is_number(a.value) and a.value != 0:
                left, right, op = _divide(b, right.value, a.value, op)
                changed = True
            elif left.func == "*" and isinstance(b, SConst) and _is_number(b.value) and b.value != 0:
                left, right, op = _divide(a, right.value, b.value, op)
                changed = True
            elif left.func == "/" and isinstance(b, SConst) and _is_number(b.value) and b.value != 0:
                # (X / c) op d  ->  X op d*c   (flip if c < 0)
                new_right = right.value * b.value
                if b.value < 0 and op not in ("=", "!="):
                    op = _FLIPPED_OP[op]
                left, right = a, SConst(_intify(new_right))
                changed = True
    return op, left, right


def _divide(var_side: STerm, const: float, coeff: float, op: str):
    value = const / coeff
    if coeff < 0 and op not in ("=", "!="):
        op = _FLIPPED_OP[op]
    return var_side, SConst(_intify(value)), op


def _intify(value: float):
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def cnot(operand: C) -> C:
    """Negation, pushed into the atoms.  The memo lives on the nodes: the
    node negated first holds its negation strongly and the negation points
    back through a weakref, so ``x`` and ``!x`` never form a reference
    cycle, ``x`` keeps ``!x`` alive (re-negating the unchanged tail of a
    ``Since`` recurrence stays a single probe) and ``cnot(cnot(x)) is x``."""
    if operand.__class__ is CBool:
        return CFALSE if operand.value else CTRUE
    if operand.__class__ is CNot:
        return operand.operand
    cached = operand._neg
    if cached is not None:
        if cached.__class__ is _weakref:
            cached = cached()
        if cached is not None:
            return cached
    if operand.__class__ is CAtom:
        result: C = CAtom(_NEGATED_OP[operand.op], operand.left, operand.right)
    elif operand.__class__ is CAnd:
        result = cor(tuple([cnot(c) for c in operand.operands]))
    elif operand.__class__ is COr:
        result = cand(tuple([cnot(c) for c in operand.operands]))
    else:
        return CNot(operand)
    if result.__class__ is CBool:
        # Only a hand-built, non-canonical junction negates to a constant.
        return result
    back = result._neg
    if back is operand:
        # The negation was built first and already owns this node.
        operand._neg = _weakref(result)
    else:
        operand._neg = result
        if back is None or (back.__class__ is _weakref and back() is None):
            result._neg = _weakref(operand)
    return result


def cand(operands: Iterable[C]) -> C:
    return _junction(operands, CAnd, False)


def cor(operands: Iterable[C]) -> C:
    return _junction(operands, COr, True)


def _junction(operands: Iterable[C], cls, absorbing: bool) -> C:
    """:func:`cand` (``absorbing`` false) or :func:`cor` (true): flatten
    nested ``cls`` nodes, drop duplicates and the neutral constant, and
    fold to the absorbing constant on one operand or a complementary
    pair.  Duplicates are found by identity: equal nodes are one node."""
    flat: list[C] = []
    seen: set[C] = set()
    for c in operands:
        for child in c.operands if c.__class__ is cls else (c,):
            if child.__class__ is CBool:
                if bool(child.value) is absorbing:
                    return CTRUE if absorbing else CFALSE
                continue
            if child not in seen:
                seen.add(child)
                flat.append(child)
    for c in flat:
        # cnot(c), read from the node's cache when it holds the negation.
        neg = c._neg
        if neg is None or neg.__class__ is _weakref:
            neg = cnot(c)
        if neg in seen:
            return CTRUE if absorbing else CFALSE
    if len(flat) > 1:
        return cls(tuple(flat))
    if flat:
        return flat[0]
    return CFALSE if absorbing else CTRUE


def cbool(value: bool) -> C:
    return CTRUE if value else CFALSE


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def substitute(c: C, env: Mapping[str, Any]) -> C:
    """Replace variables by values and re-simplify."""
    return _substitute(c, {name: SConst(value) for name, value in env.items()})


def _substitute(c: C, consts: Mapping[str, SConst]) -> C:
    if c.__class__ is CBool:
        return c
    if c.__class__ is CAtom:
        return catom(c.op, subst_term(c.left, consts), subst_term(c.right, consts))
    if c.__class__ is CAnd:
        # Lazily: the junction stops at the first absorbing operand.
        return cand(_substitute(x, consts) for x in c.operands)
    if c.__class__ is COr:
        return cor(_substitute(x, consts) for x in c.operands)
    if c.__class__ is CNot:
        return cnot(_substitute(c.operand, consts))
    raise EvaluationError(f"unknown constraint node {c!r}")


def evaluate(c: C, env: Mapping[str, Any]) -> bool:
    """Fully evaluate; raises if variables remain unbound."""
    result = substitute(c, env)
    if result.__class__ is CBool:
        return result.value
    raise EvaluationError(
        f"constraint not ground after substitution: {result} "
        f"(unbound: {sorted(result.variables())})"
    )


def size(c: C) -> int:
    """Node count (formula + term nodes) — the paper's state-size metric."""
    if c.__class__ is CBool:
        return 1
    if c.__class__ is CAtom:
        return 1 + term_size(c.left) + term_size(c.right)
    if c.__class__ is CNot:
        return 1 + size(c.operand)
    if c.__class__ in JUNCTIONS:
        return 1 + sum(size(x) for x in c.operands)
    raise EvaluationError(f"unknown constraint node {c!r}")


def dag_size(roots: Iterable[C]) -> int:
    """Unique-node count over ``roots`` taken together — the and-or *graph*
    size.  A subformula shared by several parents (or several roots, e.g.
    the same ``Since`` tail referenced from both an operand and its
    negation) contributes once, which is what the evaluator actually
    retains in memory: live structurally equal nodes are one object."""
    seen: set = set()
    return sum(_dag_walk(r, seen) for r in roots)


def _dag_term(t: STerm, seen: set) -> int:
    if t in seen:
        return 0
    seen.add(t)
    if t.__class__ is SApp:
        return 1 + sum(_dag_term(a, seen) for a in t.args)
    return 1


def _dag_walk(c: C, seen: set) -> int:
    if c in seen:
        return 0
    seen.add(c)
    if c.__class__ is CBool:
        return 1
    if c.__class__ is CAtom:
        return 1 + _dag_term(c.left, seen) + _dag_term(c.right, seen)
    if c.__class__ is CNot:
        return 1 + _dag_walk(c.operand, seen)
    if c.__class__ in JUNCTIONS:
        return 1 + sum(_dag_walk(x, seen) for x in c.operands)
    raise EvaluationError(f"unknown constraint node {c!r}")


def equality_candidates(c: C) -> dict[str, dict]:
    """Candidate values for each variable, harvested from ``var = const``
    atoms (answer extraction for event/executed-bound variables).  A pool
    maps each value's :func:`~repro._intern.leaf` to the value, so ``1``,
    ``1.0`` and ``True`` are three candidates, as they are three
    constants."""
    out: dict[str, dict] = {}
    _collect_equalities(c, out)
    return out


def _collect_equalities(node: C, out: dict[str, dict]) -> None:
    if node.__class__ is CAtom:
        if (
            node.op == "="
            and node.left.__class__ is SVar
            and isinstance(node.right, SConst)
        ):
            value = node.right.value
            out.setdefault(node.left.name, {})[leaf(value)] = value
        elif (
            node.op == "="
            and node.right.__class__ is SVar
            and isinstance(node.left, SConst)
        ):
            value = node.left.value
            out.setdefault(node.right.name, {})[leaf(value)] = value
    elif node.__class__ in JUNCTIONS:
        for x in node.operands:
            _collect_equalities(x, out)
    elif node.__class__ is CNot:
        _collect_equalities(node.operand, out)


class FreshValue:
    """Witness for a variable no positive atom constrains: it equals
    nothing, differs from everything, and is unordered (ordering
    comparisons involving it fail, making those atoms false).  Both the
    reference answer semantics and the incremental solver use the same
    witness, so 'the condition holds for any value of x' fires in both,
    with the binding reported as FRESH."""

    _instance: Optional["FreshValue"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __ne__(self, other):
        return other is not self

    def __hash__(self):
        return 0x5EED

    def __repr__(self):
        return "<fresh>"


FRESH = FreshValue()


# ---------------------------------------------------------------------------
# JSON serialization (recovery checkpoints)
# ---------------------------------------------------------------------------


def encode_value(value: Any):
    """Encode a constraint-level value as a JSON-compatible structure.

    Scalars pass through; tuples and the :data:`FRESH` witness get marker
    objects so decoding is lossless (JSON has no tuple, and FRESH must
    come back as the singleton)."""
    if value is FRESH:
        return {"__fresh__": True}
    from repro.ptl.values import UNDEFINED

    if value is UNDEFINED:
        return {"__undefined__": True}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__list__": [encode_value(v) for v in value]}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise SerializationError(
        f"cannot serialize value of type {type(value).__name__}: {value!r}"
    )


def decode_value(payload: Any):
    """Inverse of :func:`encode_value`."""
    if isinstance(payload, dict):
        if payload.get("__fresh__"):
            return FRESH
        if payload.get("__undefined__"):
            from repro.ptl.values import UNDEFINED

            return UNDEFINED
        if "__tuple__" in payload:
            return tuple([decode_value(v) for v in payload["__tuple__"]])
        if "__list__" in payload:
            return [decode_value(v) for v in payload["__list__"]]
        raise SerializationError(f"unknown value marker: {payload!r}")
    return payload


def term_to_payload(term: STerm) -> Any:
    if isinstance(term, SConst):
        return {"t": "const", "v": encode_value(term.value)}
    if term.__class__ is SVar:
        return {"t": "var", "n": term.name}
    if term.__class__ is SApp:
        return {
            "t": "app",
            "f": term.func,
            "a": [term_to_payload(a) for a in term.args],
        }
    raise SerializationError(f"unknown term node {term!r}")


def term_from_payload(payload: Any) -> STerm:
    kind = payload.get("t") if isinstance(payload, dict) else None
    if kind == "const":
        return SConst(decode_value(payload["v"]))
    if kind == "var":
        return SVar(payload["n"])
    if kind == "app":
        args = tuple([term_from_payload(a) for a in payload["a"]])
        # Rebuild through the interning table, but never constant-fold:
        # the original node survived folding at construction time.
        return SApp(payload["f"], args)
    raise SerializationError(f"unknown term payload: {payload!r}")


def to_payload(c: C) -> Any:
    """Encode a constraint formula as a JSON-compatible structure."""
    if c.__class__ is CBool:
        return {"c": "bool", "v": c.value}
    if c.__class__ is CAtom:
        return {
            "c": "atom",
            "op": c.op,
            "l": term_to_payload(c.left),
            "r": term_to_payload(c.right),
        }
    if c.__class__ is CAnd:
        return {"c": "and", "ops": [to_payload(x) for x in c.operands]}
    if c.__class__ is COr:
        return {"c": "or", "ops": [to_payload(x) for x in c.operands]}
    if c.__class__ is CNot:
        return {"c": "not", "op": to_payload(c.operand)}
    raise SerializationError(f"unknown constraint node {c!r}")


def from_payload(payload: Any) -> C:
    """Inverse of :func:`to_payload`.

    Decoding goes through the smart constructors, which are idempotent on
    already-normalized formulas, so the rebuilt graph is re-interned and
    structurally equal to the original."""
    kind = payload.get("c") if isinstance(payload, dict) else None
    if kind == "bool":
        return CTRUE if payload["v"] else CFALSE
    if kind == "atom":
        return catom(
            payload["op"],
            term_from_payload(payload["l"]),
            term_from_payload(payload["r"]),
        )
    if kind == "and":
        return cand(from_payload(x) for x in payload["ops"])
    if kind == "or":
        return cor(from_payload(x) for x in payload["ops"])
    if kind == "not":
        return cnot(from_payload(payload["op"]))
    raise SerializationError(f"unknown constraint payload: {payload!r}")


def solve(
    c: C,
    domains: Optional[Mapping[str, Iterable]] = None,
    max_solutions: int = 10_000,
) -> list[dict[str, Any]]:
    """Satisfying assignments of ``c`` over its free variables.

    Candidate values come from equality atoms inside ``c`` plus any
    declared ``domains``; a variable with neither gets the :data:`FRESH`
    witness (it can only satisfy the formula if no positive atom
    constrains it).
    """
    if c is CTRUE:
        return [{}]
    if c is CFALSE:
        return []
    variables = sorted(c.variables())
    candidates = equality_candidates(c)
    if domains:
        for name, values in domains.items():
            pool = candidates.setdefault(name, {})
            for value in values:
                pool[leaf(value)] = value
    for name in variables:
        candidates.setdefault(name, {})[leaf(FRESH)] = FRESH

    solutions: list[dict[str, Any]] = []
    _solve_from(0, {}, c, variables, candidates, solutions, max_solutions)
    return solutions


def _solve_from(
    i: int,
    env: dict[str, Any],
    current: C,
    variables: list[str],
    candidates: Mapping[str, dict],
    solutions: list[dict[str, Any]],
    max_solutions: int,
) -> None:
    """Extend ``env`` over ``variables[i:]``; :func:`solve`'s search."""
    if len(solutions) >= max_solutions:
        return
    if current is CFALSE:
        return
    if i == len(variables):
        if current is CTRUE:
            solutions.append(dict(env))
        return
    name = variables[i]
    for value in sorted(candidates[name].values(), key=repr):
        env[name] = value
        _solve_from(
            i + 1,
            env,
            substitute(current, {name: value}),
            variables,
            candidates,
            solutions,
            max_solutions,
        )
        del env[name]
