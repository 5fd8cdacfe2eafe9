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

Nodes are slotted, hashable and treated as immutable (nothing outside this
module and the deadline cache of :mod:`repro.ptl.optimize` assigns to
one); sharing makes the "and-or graph".  The smart constructors
*hash-cons* their results through :func:`_intern`: while a node is alive,
every construction of a structurally equal formula returns that same
object, so the ``Since``/``Lasttime`` recurrences — which rebuild
``F_h | (F_g & F_prev)`` every step from largely unchanged pieces — reuse
existing nodes instead of allocating fresh copies, and equality checks
degenerate to pointer comparisons on the hot path.

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

from repro._intern import file as _file
from repro.errors import (
    EvaluationError,
    QueryEvaluationError,
    SerializationError,
)
from repro.query.evaluator import apply_comparison
from repro.query.functions import scalar_function

# ---------------------------------------------------------------------------
# Hash-consing (interning) tables
# ---------------------------------------------------------------------------

#: ``hash tuple -> _Entry`` for the live :class:`SApp` terms / formula nodes.
_intern_terms: dict = {}
_intern_formulas: dict = {}
_intern_hits = 0
_intern_misses = 0


def _intern(cls, *parts):
    """The canonical ``cls(*parts)``: the live node with these parts when
    there is one, otherwise a new node (built only now, on the miss)."""
    global _intern_hits, _intern_misses
    table = cls._table
    key = (cls._tag, *parts)
    entry = table.get(key)
    if entry is not None:
        node = entry()
        if node is not None:
            _intern_hits += 1
            return node
    _intern_misses += 1
    node = cls(*parts)
    _file(table, key, node)
    return node


def intern_stats() -> dict:
    """Process-wide counters of the hash-consing tables: constructor
    hits/misses since import, and the number of *live* interned terms and
    formula nodes right now (the shared-plan obs layer publishes the hit
    rate and the live count)."""
    total = _intern_hits + _intern_misses
    return {
        "hits": _intern_hits,
        "misses": _intern_misses,
        "hit_rate": (_intern_hits / total) if total else 0.0,
        "terms": len(_intern_terms),
        "formulas": len(_intern_formulas),
    }


# ---------------------------------------------------------------------------
# Symbolic terms
# ---------------------------------------------------------------------------


class STerm:
    __slots__ = ()

    def variables(self) -> frozenset[str]:
        return frozenset()


class SConst(STerm):
    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __eq__(self, other):
        if other.__class__ is SConst:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        # Not cached: a ground atom folds without hashing its constants,
        # so an unhashable value must stay legal until something keys on it.
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"SConst(value={self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, float) and self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


class SVar(STerm):
    __slots__ = ("name", "_h", "_vars")

    def __init__(self, name: str):
        self.name = name
        self._h = hash((name,))
        self._vars = frozenset((name,))

    def __eq__(self, other):
        if other.__class__ is SVar:
            return self.name == other.name
        return NotImplemented

    def __hash__(self) -> int:
        return self._h

    def variables(self) -> frozenset[str]:
        return self._vars

    def __repr__(self) -> str:
        return f"SVar(name={self.name!r})"

    def __str__(self) -> str:
        return self.name


def _union_variables(parts) -> frozenset[str]:
    v: frozenset[str] = frozenset()
    for p in parts:
        v |= p.variables()
    return v


class SApp(STerm):
    __slots__ = ("func", "args", "_h", "_vars", "__weakref__")
    _tag = "sapp"
    _table = _intern_terms

    def __init__(self, func: str, args: tuple[STerm, ...]):
        self.func = func
        self.args = args
        # Structural hash, computed once: deep nodes are common dict keys
        # and must not re-walk their subtree on every lookup.
        self._h = hash(("sapp", func, args))
        self._vars = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is SApp:
            return (
                self._h == other._h
                and self.func == other.func
                and self.args == other.args
            )
        return NotImplemented

    def __hash__(self) -> int:
        return self._h

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = _union_variables(self.args)
        return v

    def __repr__(self) -> str:
        return f"SApp(func={self.func!r}, args={self.args!r})"

    def __str__(self) -> str:
        if self.func in ("+", "-", "*", "/", "mod") and len(self.args) == 2:
            return f"({self.args[0]} {self.func} {self.args[1]})"
        return f"{self.func}({', '.join(map(str, self.args))})"


def sapp(func: str, args: tuple[STerm, ...]) -> STerm:
    """Build an application, constant-folding when all arguments are ground."""
    if all(isinstance(a, SConst) for a in args):
        fn = scalar_function(func)
        return SConst(fn(*[a.value for a in args]))
    return _intern(SApp, func, args)


def subst_term(term: STerm, env: Mapping[str, Any]) -> STerm:
    if isinstance(term, SVar):
        if term.name in env:
            return SConst(env[term.name])
        return term
    if isinstance(term, SApp):
        return sapp(term.func, tuple([subst_term(a, env) for a in term.args]))
    return term


def term_size(term: STerm) -> int:
    if isinstance(term, SApp):
        return 1 + sum(term_size(a) for a in term.args)
    return 1


# ---------------------------------------------------------------------------
# Constraint formulas
# ---------------------------------------------------------------------------


class C:
    """Base class of constraint formulas."""

    __slots__ = ()

    def variables(self) -> frozenset[str]:
        return frozenset()


class CBool(C):
    __slots__ = ("value", "_h")

    def __init__(self, value: bool):
        self.value = value
        self._h = hash((value,))

    def __eq__(self, other):
        if other.__class__ is CBool:
            return self.value == other.value
        return NotImplemented

    def __hash__(self) -> int:
        return self._h

    def __repr__(self) -> str:
        return f"CBool(value={self.value!r})"

    def __str__(self) -> str:
        return "true" if self.value else "false"


CTRUE = CBool(True)
CFALSE = CBool(False)

_NEGATED_OP = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}
_FLIPPED_OP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


class _Interned(C):
    """The non-constant formula nodes.  Beside its parts and their
    structural hash a node carries three caches: ``_vars`` (free
    variables), ``_neg`` (its negation, see :func:`cnot`) and ``_mdl``
    (earliest deadline, owned by :mod:`repro.ptl.optimize`)."""

    __slots__ = ("_h", "_vars", "_neg", "_mdl", "__weakref__")
    _table = _intern_formulas

    def __hash__(self) -> int:
        return self._h


class CAtom(_Interned):
    __slots__ = ("op", "left", "right")
    _tag = "atom"

    def __init__(self, op: str, left: STerm, right: STerm):
        self.op = op
        self.left = left
        self.right = right
        self._h = hash(("atom", op, left, right))
        self._vars = self._neg = self._mdl = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is CAtom:
            return (
                self._h == other._h
                and self.op == other.op
                and self.left == other.left
                and self.right == other.right
            )
        return NotImplemented

    __hash__ = _Interned.__hash__

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = self.left.variables() | self.right.variables()
        return v

    def __repr__(self) -> str:
        return f"CAtom(op={self.op!r}, left={self.left!r}, right={self.right!r})"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


class _Junction(_Interned):
    """Shared body of :class:`CAnd` / :class:`COr`."""

    __slots__ = ("operands",)

    def __init__(self, operands: tuple[C, ...]):
        self.operands = operands
        self._h = hash((self._tag, operands))
        self._vars = self._neg = self._mdl = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is self.__class__:
            return self._h == other._h and self.operands == other.operands
        return NotImplemented

    __hash__ = _Interned.__hash__

    def variables(self) -> frozenset[str]:
        v = self._vars
        if v is None:
            v = self._vars = _union_variables(self.operands)
        return v

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(operands={self.operands!r})"

    def __str__(self) -> str:
        return "(" + f" {self._tag} ".join(map(str, self.operands)) + ")"


class CAnd(_Junction):
    __slots__ = ()
    _tag = "&"


class COr(_Junction):
    __slots__ = ()
    _tag = "|"


class CNot(_Interned):
    __slots__ = ("operand",)
    _tag = "not"

    def __init__(self, operand: C):
        self.operand = operand
        self._h = hash(("not", operand))
        self._vars = self._neg = self._mdl = None

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is CNot:
            return self._h == other._h and self.operand == other.operand
        return NotImplemented

    __hash__ = _Interned.__hash__

    def variables(self) -> frozenset[str]:
        return self.operand.variables()

    def __repr__(self) -> str:
        return f"CNot(operand={self.operand!r})"

    def __str__(self) -> str:
        return f"!({self.operand})"


# ---------------------------------------------------------------------------
# Smart constructors
# ---------------------------------------------------------------------------


#: ``pre-normalization (op, left, right) -> _Entry`` of the resulting live
#: atom; like the intern tables, an entry goes when its atom does.
_catom_memo: dict = {}


def catom(op: str, left: STerm, right: STerm) -> C:
    """Build an atom: fold if ground, else normalize to ``var <op> const``
    when the atom is linear in a single variable occurrence.  Memoized on
    the *pre*-normalization triple — the recurrences rebuild the same
    handful of atoms every step, and linear normalization is pure."""
    if isinstance(left, SConst) and isinstance(right, SConst):
        try:
            return CTRUE if apply_comparison(op, left.value, right.value) else CFALSE
        except QueryEvaluationError:
            # Incomparable values (e.g. string vs int ordering): the atom
            # cannot hold.
            return CFALSE
    key = (op, left, right)
    entry = _catom_memo.get(key)
    if entry is not None:
        cached = entry()
        if cached is not None:
            return cached
    result = _intern(CAtom, *_normalize_linear(op, left, right))
    _file(_catom_memo, key, result)
    return result


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
        if isinstance(left, SApp) and len(left.args) == 2:
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
    if isinstance(value, float) and value == int(value):
        return int(value)
    return value


def cnot(operand: C) -> C:
    """Negation, pushed into the atoms.  The memo lives on the nodes: the
    node negated first holds its negation strongly and the negation points
    back through a weakref, so ``x`` and ``!x`` never form a reference
    cycle, ``x`` keeps ``!x`` alive (re-negating the unchanged tail of a
    ``Since`` recurrence stays a single probe) and ``cnot(cnot(x)) is x``."""
    if isinstance(operand, CBool):
        return CFALSE if operand.value else CTRUE
    if isinstance(operand, CNot):
        return operand.operand
    cached = operand._neg
    if cached is not None:
        if cached.__class__ is _weakref:
            cached = cached()
        if cached is not None:
            return cached
    if isinstance(operand, CAtom):
        result: C = _intern(
            CAtom, _NEGATED_OP[operand.op], operand.left, operand.right
        )
    elif isinstance(operand, CAnd):
        result = cor(tuple([cnot(c) for c in operand.operands]))
    elif isinstance(operand, COr):
        result = cand(tuple([cnot(c) for c in operand.operands]))
    else:
        return _intern(CNot, operand)
    if isinstance(result, CBool):
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
    flat: list[C] = []
    seen: set[C] = set()
    for c in operands:
        if isinstance(c, CBool):
            if not c.value:
                return CFALSE
            continue
        children = c.operands if isinstance(c, CAnd) else (c,)
        for child in children:
            if isinstance(child, CBool):
                if not child.value:
                    return CFALSE
                continue
            if child in seen:
                continue
            seen.add(child)
            flat.append(child)
    for c in flat:
        if cnot(c) in seen:
            return CFALSE
    if not flat:
        return CTRUE
    if len(flat) == 1:
        return flat[0]
    ops = tuple(flat)
    return _intern(CAnd, ops)


def cor(operands: Iterable[C]) -> C:
    flat: list[C] = []
    seen: set[C] = set()
    for c in operands:
        if isinstance(c, CBool):
            if c.value:
                return CTRUE
            continue
        children = c.operands if isinstance(c, COr) else (c,)
        for child in children:
            if isinstance(child, CBool):
                if child.value:
                    return CTRUE
                continue
            if child in seen:
                continue
            seen.add(child)
            flat.append(child)
    for c in flat:
        if cnot(c) in seen:
            return CTRUE
    if not flat:
        return CFALSE
    if len(flat) == 1:
        return flat[0]
    ops = tuple(flat)
    return _intern(COr, ops)


def cbool(value: bool) -> C:
    return CTRUE if value else CFALSE


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def substitute(c: C, env: Mapping[str, Any]) -> C:
    """Replace variables by values and re-simplify."""
    if isinstance(c, CBool):
        return c
    if isinstance(c, CAtom):
        return catom(c.op, subst_term(c.left, env), subst_term(c.right, env))
    if isinstance(c, CAnd):
        return cand(substitute(x, env) for x in c.operands)
    if isinstance(c, COr):
        return cor(substitute(x, env) for x in c.operands)
    if isinstance(c, CNot):
        return cnot(substitute(c.operand, env))
    raise EvaluationError(f"unknown constraint node {c!r}")


def evaluate(c: C, env: Mapping[str, Any]) -> bool:
    """Fully evaluate; raises if variables remain unbound."""
    result = substitute(c, env)
    if isinstance(result, CBool):
        return result.value
    raise EvaluationError(
        f"constraint not ground after substitution: {result} "
        f"(unbound: {sorted(result.variables())})"
    )


def size(c: C) -> int:
    """Node count (formula + term nodes) — the paper's state-size metric."""
    if isinstance(c, CBool):
        return 1
    if isinstance(c, CAtom):
        return 1 + term_size(c.left) + term_size(c.right)
    if isinstance(c, CNot):
        return 1 + size(c.operand)
    if isinstance(c, (CAnd, COr)):
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
    if isinstance(t, SApp):
        return 1 + sum(_dag_term(a, seen) for a in t.args)
    return 1


def _dag_walk(c: C, seen: set) -> int:
    if c in seen:
        return 0
    seen.add(c)
    if isinstance(c, CBool):
        return 1
    if isinstance(c, CAtom):
        return 1 + _dag_term(c.left, seen) + _dag_term(c.right, seen)
    if isinstance(c, CNot):
        return 1 + _dag_walk(c.operand, seen)
    if isinstance(c, (CAnd, COr)):
        return 1 + sum(_dag_walk(x, seen) for x in c.operands)
    raise EvaluationError(f"unknown constraint node {c!r}")


def equality_candidates(c: C) -> dict[str, set]:
    """Candidate values for each variable, harvested from ``var = const``
    atoms (answer extraction for event/executed-bound variables)."""
    out: dict[str, set] = {}
    _collect_equalities(c, out)
    return out


def _collect_equalities(node: C, out: dict[str, set]) -> None:
    if isinstance(node, CAtom):
        if (
            node.op == "="
            and isinstance(node.left, SVar)
            and isinstance(node.right, SConst)
        ):
            out.setdefault(node.left.name, set()).add(node.right.value)
        elif (
            node.op == "="
            and isinstance(node.right, SVar)
            and isinstance(node.left, SConst)
        ):
            out.setdefault(node.right.name, set()).add(node.left.value)
    elif isinstance(node, (CAnd, COr)):
        for x in node.operands:
            _collect_equalities(x, out)
    elif isinstance(node, CNot):
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
    if isinstance(term, SVar):
        return {"t": "var", "n": term.name}
    if isinstance(term, SApp):
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
        return _intern(SApp, payload["f"], args)
    raise SerializationError(f"unknown term payload: {payload!r}")


def to_payload(c: C) -> Any:
    """Encode a constraint formula as a JSON-compatible structure."""
    if isinstance(c, CBool):
        return {"c": "bool", "v": c.value}
    if isinstance(c, CAtom):
        return {
            "c": "atom",
            "op": c.op,
            "l": term_to_payload(c.left),
            "r": term_to_payload(c.right),
        }
    if isinstance(c, CAnd):
        return {"c": "and", "ops": [to_payload(x) for x in c.operands]}
    if isinstance(c, COr):
        return {"c": "or", "ops": [to_payload(x) for x in c.operands]}
    if isinstance(c, CNot):
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
            candidates.setdefault(name, set()).update(values)
    for name in variables:
        candidates.setdefault(name, set()).add(FRESH)

    solutions: list[dict[str, Any]] = []
    _solve_from(0, {}, c, variables, candidates, solutions, max_solutions)
    return solutions


def _solve_from(
    i: int,
    env: dict[str, Any],
    current: C,
    variables: list[str],
    candidates: Mapping[str, set],
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
    for value in sorted(candidates[name], key=repr):
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
