"""Compiled query plans: hash joins, predicate pushdown, slot resolution.

The naive evaluator (:mod:`repro.query.evaluator`) executes a ``Retrieve``
as a nested-loop cross product, building a dict environment per row and
resolving bare column names with a linear scan — on every evaluation of
every rule atom.  Active-rule conditions re-run the *same* queries at every
system state, so this module compiles each query AST once into a cached
executable plan:

* **Slot resolution** — every column reference resolves at compile time to
  a positional slot in a flat list environment (bare-name ambiguity checks
  also move to compile time, raising the same errors as the evaluator).
* **Predicate pushdown** — the WHERE conjunction is split and each
  conjunct is evaluated at the innermost loop level where its columns are
  all bound, instead of once per full binding.
* **Hash joins** — equality conjuncts ``R.a = <expr over outer ranges>``
  become probes of the cached :class:`repro.storage.index.HashIndex`
  instead of loop filters.  If a probe key cannot be computed (unbound
  parameter, unhashable value, evaluation error) the step falls back to a
  scan with the consumed conjuncts restored as filters, preserving the
  naive path's semantics exactly.

Plans are cached per (query AST, range schemas) — query ASTs are frozen
dataclasses, so the cache key is the query itself.

**Delta-aware atom skipping.**  :class:`DeltaGate` lets the incremental
PTL evaluator skip re-evaluating a ground query atom when the new system
state cannot have changed its value.  Soundness rests on identity, not
versions: a ground query's value is a pure function of the referenced
database item *objects* (see :mod:`repro.query.deps`), and untouched item
objects are shared across states, so the gate memoizes the value keyed by
the tuple of item objects and rechecks with ``is``.  The write-set
recorded on :class:`~repro.history.state.SystemState` (``state.delta``) is
only a fast pre-filter; correctness never depends on it.  Registered
scalar functions are assumed pure (the shipped ones are).

Differential equivalence with the naive path is property-tested in
``tests/test_query_plans.py``.
The only tolerated divergences from the naive path, all documented there:
compile-time strictness (unknown columns/functions raise even when a
relation is empty), predicate evaluation order for *error* cases, and
float aggregate summation order.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional

from repro.datamodel.relation import Relation
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.tuples import Row
from repro.errors import QueryEvaluationError, UnknownRelationError
from repro.query import ast
from repro.query.deps import query_deps
from repro.query.evaluator import _infer_expr_type, apply_comparison
from repro.query.functions import aggregate_function, scalar_function

__all__ = [
    "DeltaGate",
    "FALLBACK",
    "MISS",
    "QPlanStats",
    "STATS",
    "clear_plan_cache",
    "try_execute",
]


# --------------------------------------------------------------------------
# Statistics (process-global, published as qplan_* gauges)
# --------------------------------------------------------------------------


class QPlanStats:
    """Process-global counters for plan-cache and execution behaviour."""

    __slots__ = (
        "cache_hits",
        "cache_misses",
        "hash_join_execs",
        "scan_execs",
        "atoms_skipped",
        "atoms_evaluated",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.cache_hits = 0
        self.cache_misses = 0
        self.hash_join_execs = 0
        self.scan_execs = 0
        self.atoms_skipped = 0
        self.atoms_evaluated = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def publish(self, registry) -> None:
        """Set the ``qplan_*`` gauges on an (enabled) metrics registry."""
        for name, value in self.snapshot().items():
            registry.gauge(f"qplan_{name}").set(value)


STATS = QPlanStats()


# --------------------------------------------------------------------------
# Expression compilation (positional slot environments)
# --------------------------------------------------------------------------

ExprFn = Callable[[list, Mapping[str, Any]], Any]


class _Slots:
    """Compile-time column resolution: qualified name -> slot index.

    Mirrors the evaluator's dict-environment semantics exactly, including
    the overwrite behaviour for duplicate range names and the bare-name
    error messages (now raised at compile time).
    """

    __slots__ = ("slot_of", "range_of", "offsets", "nslots")

    def __init__(self, ranges: tuple[ast.RangeVar, ...], schemas):
        self.slot_of: dict[str, int] = {}
        self.range_of: dict[str, int] = {}
        self.offsets: list[int] = []
        n = 0
        for i, (rv, schema) in enumerate(zip(ranges, schemas)):
            self.offsets.append(n)
            for j, attr in enumerate(schema.names):
                key = f"{rv.name}.{attr}"
                self.slot_of[key] = n + j
                self.range_of[key] = i
            n += len(schema.names)
        self.nslots = n

    def resolve(self, name: str) -> str:
        """The environment key ``name`` refers to (raises like eval_expr)."""
        if name in self.slot_of:
            return name
        matches = [
            k for k in self.slot_of if k.endswith("." + name) or k == name
        ]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise QueryEvaluationError(f"unknown column {name!r}")
        raise QueryEvaluationError(f"ambiguous column {name!r}: {matches}")

    def slot(self, name: str) -> int:
        return self.slot_of[self.resolve(name)]

    def ranges_of(self, expr: ast.Expr) -> frozenset[int]:
        """Range positions referenced by ``expr`` (resolving bare names)."""
        out: set[int] = set()
        self._collect_ranges(expr, out)
        return frozenset(out)

    def _collect_ranges(self, expr: ast.Expr, out: set[int]) -> None:
        if isinstance(expr, ast.Col):
            out.add(self.range_of[self.resolve(expr.name)])
        elif isinstance(expr, ast.App):
            for a in expr.args:
                self._collect_ranges(a, out)
        elif isinstance(expr, ast.Cmp):
            self._collect_ranges(expr.left, out)
            self._collect_ranges(expr.right, out)
        elif isinstance(expr, ast.BoolOp):
            for a in expr.operands:
                self._collect_ranges(a, out)
        elif isinstance(expr, ast.Not):
            self._collect_ranges(expr.operand, out)


def _compile_expr(expr: ast.Expr, slots: _Slots) -> ExprFn:
    """Compile a scalar expression to a closure over (slot env, params)."""
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda env, params: value
    if isinstance(expr, ast.Col):
        i = slots.slot(expr.name)
        return lambda env, params: env[i]
    if isinstance(expr, ast.Param):
        name = expr.name

        def param_fn(env, params):
            if name not in params:
                raise QueryEvaluationError(f"unbound parameter ${name}")
            return params[name]

        return param_fn
    if isinstance(expr, ast.App):
        fn = scalar_function(expr.func)
        arg_fns = tuple(_compile_expr(a, slots) for a in expr.args)
        if len(arg_fns) == 1:
            (a0,) = arg_fns
            return lambda env, params: fn(a0(env, params))
        if len(arg_fns) == 2:
            a0, a1 = arg_fns
            return lambda env, params: fn(a0(env, params), a1(env, params))
        return lambda env, params: fn(*(a(env, params) for a in arg_fns))
    if isinstance(expr, ast.Cmp):
        op = expr.op
        left = _compile_expr(expr.left, slots)
        right = _compile_expr(expr.right, slots)
        return lambda env, params: apply_comparison(
            op, left(env, params), right(env, params)
        )
    if isinstance(expr, ast.BoolOp):
        fns = tuple(_compile_expr(a, slots) for a in expr.operands)
        if expr.op == "and":
            return lambda env, params: all(f(env, params) for f in fns)
        if expr.op == "or":
            return lambda env, params: any(f(env, params) for f in fns)
        raise QueryEvaluationError(f"unknown boolean op {expr.op!r}")
    if isinstance(expr, ast.Not):
        inner = _compile_expr(expr.operand, slots)
        return lambda env, params: not inner(env, params)
    raise QueryEvaluationError(f"unknown expression node {expr!r}")


# --------------------------------------------------------------------------
# Plan structure
# --------------------------------------------------------------------------


class _RangeStep:
    """One loop level: scan or index-probe a relation, filter, recurse.

    ``key_fns``/``probe_attrs`` drive the hash-join probe (None = plain
    scan); ``residuals`` are the filters for the probe path, ``all_preds``
    the full filter set used when the probe falls back to a scan.
    """

    __slots__ = (
        "relation",
        "offset",
        "arity",
        "probe_attrs",
        "key_fns",
        "residuals",
        "all_preds",
    )

    def __init__(self, relation, offset, arity, probe_attrs, key_fns,
                 residuals, all_preds):
        self.relation = relation
        self.offset = offset
        self.arity = arity
        self.probe_attrs = probe_attrs
        self.key_fns = key_fns
        self.residuals = residuals
        self.all_preds = all_preds


_index_for = None


def _get_index_for():
    global _index_for
    if _index_for is None:
        from repro.storage.index import index_for

        _index_for = index_for
    return _index_for


class _CompiledQuery:
    """Shared binding enumeration for compiled Retrieve/Aggregate plans."""

    __slots__ = ("query", "steps", "nslots", "base_preds", "has_probe")

    def __init__(self, query, steps, nslots, base_preds):
        self.query = query
        self.steps = steps
        self.nslots = nslots
        self.base_preds = base_preds
        self.has_probe = any(s.key_fns is not None for s in steps)

    def _bindings(self, rels, params):
        """Yield the slot environment for each surviving binding.

        The *same* list object is yielded each time, mutated in place —
        consumers must use it before advancing the generator.
        """
        env = [None] * self.nslots
        if not self.steps:
            for p in self.base_preds:
                if not p(env, params):
                    return
            yield env
            return
        index_for = _index_for or _get_index_for()
        yield from self._bind(0, env, rels, params, index_for)

    def _bind(self, i, env, rels, params, index_for):
        """Bind range ``i`` and every deeper one, yielding ``env`` per
        surviving combination."""
        step = self.steps[i]
        rel = rels[i]
        preds = step.residuals
        rows = None
        if step.key_fns is not None:
            try:
                key = tuple(fn(env, params) for fn in step.key_fns)
                rows = index_for(rel, step.probe_attrs).lookup(*key)
            except (QueryEvaluationError, TypeError):
                # Unbound parameter, evaluation error, or unhashable
                # key: scan with the consumed conjuncts restored, so
                # behaviour (including errors) matches the naive path.
                rows = None
            if rows is None:
                preds = step.all_preds
        if rows is None:
            rows = rel.rows
        off = step.offset
        end = off + step.arity
        innermost = i + 1 == len(self.steps)
        for row in rows:
            env[off:end] = row.values
            for p in preds:
                if not p(env, params):
                    break
            else:
                if innermost:
                    yield env
                else:
                    yield from self._bind(i + 1, env, rels, params, index_for)

    def _count_exec(self) -> None:
        if self.has_probe:
            STATS.hash_join_execs += 1
        else:
            STATS.scan_execs += 1


class CompiledRetrieve(_CompiledQuery):
    __slots__ = ("target_fns", "schema")

    def __init__(self, query, steps, nslots, base_preds, target_fns, schema):
        super().__init__(query, steps, nslots, base_preds)
        self.target_fns = target_fns
        self.schema = schema

    def run(self, rels, params) -> Relation:
        self._count_exec()
        target_fns = self.target_fns
        out = [
            tuple(fn(env, params) for fn in target_fns)
            for env in self._bindings(rels, params)
        ]
        schema = self.schema
        return Relation(schema, (Row(schema, vals) for vals in out))


class CompiledAggregate(_CompiledQuery):
    __slots__ = ("agg_fn", "expr_fn", "group_fns", "schema", "float_agg")

    def __init__(self, query, steps, nslots, base_preds, agg_fn, expr_fn,
                 group_fns, schema, float_agg):
        super().__init__(query, steps, nslots, base_preds)
        self.agg_fn = agg_fn
        self.expr_fn = expr_fn
        self.group_fns = group_fns
        self.schema = schema
        self.float_agg = float_agg

    def run(self, rels, params):
        self._count_exec()
        expr_fn = self.expr_fn
        if not self.group_fns:
            values = [
                expr_fn(env, params) for env in self._bindings(rels, params)
            ]
            return self.agg_fn(values)
        groups: dict[tuple, list] = {}
        group_fns = self.group_fns
        for env in self._bindings(rels, params):
            key = tuple(g(env, params) for g in group_fns)
            groups.setdefault(key, []).append(expr_fn(env, params))
        schema = self.schema
        rows = []
        for key, values in groups.items():
            agg_value = self.agg_fn(values)
            if self.float_agg:
                agg_value = float(agg_value)
            rows.append(Row(schema, key + (agg_value,)))
        return Relation(schema, rows)


# --------------------------------------------------------------------------
# Compilation
# --------------------------------------------------------------------------


def _conjuncts(where: Optional[ast.Expr]) -> tuple[ast.Expr, ...]:
    if where is None:
        return ()
    if isinstance(where, ast.BoolOp) and where.op == "and":
        return where.operands
    return (where,)


def _probe_candidate(conjunct, slots: _Slots, position: int, schemas):
    """``(attribute, key expression)`` if this equality conjunct can probe
    range ``position`` with a key computed from outer ranges only."""
    if not (isinstance(conjunct, ast.Cmp) and conjunct.op == "="):
        return None
    for col, other in (
        (conjunct.left, conjunct.right),
        (conjunct.right, conjunct.left),
    ):
        if not isinstance(col, ast.Col):
            continue
        try:
            key = slots.resolve(col.name)
        except QueryEvaluationError:
            return None  # unresolvable column: surface the error elsewhere
        if slots.range_of[key] != position:
            continue
        other_ranges = slots.ranges_of(other)
        if other_ranges and max(other_ranges) >= position:
            continue
        slot = slots.slot_of[key]
        attr = schemas[position].names[slot - slots.offsets[position]]
        return attr, other
    return None


def _compile_steps(query, slots: _Slots, schemas):
    """Build the per-range loop steps (pushdown + probes) and base preds."""
    ranges = query.ranges
    n = len(ranges)
    # Assign each conjunct to the innermost range where its columns are
    # all bound; range-free conjuncts go to the last level so they are —
    # like the naive path — only evaluated when a full binding exists.
    assigned: list[list[ast.Expr]] = [[] for _ in range(n)]
    base: list[ast.Expr] = []
    for c in _conjuncts(query.where):
        refs = slots.ranges_of(c)
        if n == 0:
            base.append(c)
        else:
            assigned[max(refs) if refs else n - 1].append(c)

    steps = []
    for i, rv in enumerate(ranges):
        probe_attrs: list[str] = []
        key_fns: list[ExprFn] = []
        residuals: list[ExprFn] = []
        all_preds: list[ExprFn] = []
        for c in assigned[i]:
            pred = _compile_expr(c, slots)
            all_preds.append(pred)
            probe = _probe_candidate(c, slots, i, schemas)
            if probe is not None:
                attr, key_expr = probe
                probe_attrs.append(attr)
                key_fns.append(_compile_expr(key_expr, slots))
            else:
                residuals.append(pred)
        steps.append(
            _RangeStep(
                rv.relation,
                slots.offsets[i],
                len(schemas[i].names),
                tuple(probe_attrs) if probe_attrs else None,
                tuple(key_fns) if key_fns else None,
                tuple(residuals),
                tuple(all_preds),
            )
        )
    base_preds = tuple(_compile_expr(c, slots) for c in base)
    return steps, base_preds


def _compile_retrieve(query: ast.Retrieve, schemas) -> CompiledRetrieve:
    slots = _Slots(query.ranges, schemas)
    steps, base_preds = _compile_steps(query, slots, schemas)
    target_fns = tuple(_compile_expr(e, slots) for _, e in query.targets)

    from repro.datamodel.types import ValueType

    range_schemas = {
        rv.name: schema for rv, schema in zip(query.ranges, schemas)
    }
    attrs = []
    for name, expr in query.targets:
        vtype = _infer_expr_type(expr, range_schemas)
        attrs.append(
            Attribute(name, vtype if vtype is not None else ValueType.FLOAT)
        )
    schema = Schema(attrs)
    return CompiledRetrieve(
        query, steps, slots.nslots, base_preds, target_fns, schema
    )


def _compile_aggregate(query: ast.AggregateQuery, schemas) -> CompiledAggregate:
    slots = _Slots(query.ranges, schemas)
    steps, base_preds = _compile_steps(query, slots, schemas)
    agg_fn = aggregate_function(query.func)
    expr_fn = _compile_expr(query.expr, slots)

    group_fns = ()
    schema = None
    float_agg = False
    if query.group_by:
        from repro.datamodel.types import ValueType

        group_fns = tuple(_compile_expr(c, slots) for c in query.group_by)
        range_schemas = {
            rv.name: s for rv, s in zip(query.ranges, schemas)
        }
        attrs = []
        for col in query.group_by:
            vtype = _infer_expr_type(col, range_schemas)
            attrs.append(
                Attribute(
                    col.attribute,
                    vtype if vtype is not None else ValueType.STRING,
                )
            )
        agg_type = (
            ValueType.INT if query.func == "count" else ValueType.FLOAT
        )
        attrs.append(Attribute(query.func, agg_type))
        schema = Schema(attrs)
        float_agg = agg_type is ValueType.FLOAT
    return CompiledAggregate(
        query, steps, slots.nslots, base_preds, agg_fn, expr_fn,
        group_fns, schema, float_agg,
    )


# --------------------------------------------------------------------------
# Plan cache + evaluator entry point
# --------------------------------------------------------------------------

#: Returned by :func:`try_execute` when the query cannot be planned (the
#: caller falls back to the naive path).
FALLBACK = object()

_CACHE: dict = {}
_CACHE_MAX = 1024


def clear_plan_cache() -> None:
    _CACHE.clear()


def plan_cache_size() -> int:
    return len(_CACHE)


def try_execute(query, state, params):
    """Execute ``query`` through a cached compiled plan.

    Returns the query result, or :data:`FALLBACK` when the query is not
    plannable (unhashable AST).  Raises the same errors the naive path
    would for unknown relations; compile-time column/function errors are
    raised here even when a relation is empty (documented strictness).
    """
    if isinstance(query, ast.AggregateQuery):
        aggregate_function(query.func)  # unknown-function error first
    rels = []
    for rv in query.ranges:
        if not state.has_relation(rv.relation):
            raise UnknownRelationError(f"unknown relation {rv.relation!r}")
        rels.append(state.relation(rv.relation))
    try:
        key = (query, tuple(r.schema for r in rels))
        plan = _CACHE.get(key)
    except TypeError:
        return FALLBACK
    if plan is None:
        STATS.cache_misses += 1
        if isinstance(query, ast.Retrieve):
            plan = _compile_retrieve(query, [r.schema for r in rels])
        else:
            plan = _compile_aggregate(query, [r.schema for r in rels])
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.clear()
        _CACHE[key] = plan
    else:
        STATS.cache_hits += 1
    return plan.run(rels, params)


# --------------------------------------------------------------------------
# Delta-aware atom skipping
# --------------------------------------------------------------------------

_ABSENT = object()

#: Returned by :meth:`DeltaGate.lookup` when the memoized value cannot be
#: reused and the caller must evaluate.
MISS = object()

_SystemState = None


def _system_state_type():
    global _SystemState
    if _SystemState is None:
        from repro.history.state import SystemState

        _SystemState = SystemState
    return _SystemState


class DeltaGate:
    """Sound memoization of one ground atom's value across system states.

    Built from the atom's queries; disabled (``enabled=False``) when the
    dependency analysis is unstable or the atom reads ``time``.  The gate
    only engages on plain :class:`~repro.history.state.SystemState`
    objects — wrappers such as ``OverlayState`` shadow database items, so
    their atom values are *not* functions of ``state.db`` alone and must
    always re-evaluate.

    ``lookup`` order: (1) same ``db`` object as the memo — hit; (2) the
    state's recorded write-set (``state.delta``) intersects the dependency
    names — fast miss; (3) compare the referenced item *objects* by
    identity — hit iff all unchanged.  The identity check is what makes
    the gate order-free sound: it holds across trial evaluation
    (snapshot/restore of the rule manager) and replayed histories, where
    version counters would lie.
    """

    __slots__ = ("names", "names_set", "enabled", "_db", "_token", "_value",
                 "_valid")

    def __init__(self, queries):
        items: set[str] = set()
        stable = True
        uses_time = False
        for q in queries:
            deps = query_deps(q)
            stable = stable and deps.stable
            uses_time = uses_time or deps.uses_time
            items |= deps.items
        self.enabled = stable and not uses_time
        self.names = tuple(sorted(items))
        self.names_set = frozenset(items)
        self._db = None
        self._token: tuple = ()
        self._value = None
        self._valid = False

    def lookup(self, state):
        """The memoized value, or :data:`MISS` if it cannot be reused."""
        if not (self.enabled and self._valid):
            return MISS
        if type(state) is not _system_state_type():
            return MISS
        db = state.db
        if db is self._db:
            STATS.atoms_skipped += 1
            return self._value
        delta = state.delta
        if delta is not None and not delta.isdisjoint(self.names_set):
            return MISS
        items = db._items
        token = self._token
        for i, name in enumerate(self.names):
            if items.get(name, _ABSENT) is not token[i]:
                return MISS
        self._db = db
        STATS.atoms_skipped += 1
        return self._value

    def store(self, state, value) -> None:
        """Memoize ``value`` as the atom's value at ``state``."""
        if not self.enabled:
            return
        STATS.atoms_evaluated += 1
        if type(state) is not _system_state_type():
            self._valid = False
            return
        db = state.db
        items = db._items
        self._db = db
        self._token = tuple(items.get(n, _ABSENT) for n in self.names)
        self._value = value
        self._valid = True


def value_gate(query) -> Optional[DeltaGate]:
    """A :class:`DeltaGate` for one ground query, or None if gating is
    unsound for it (time-dependent or unanalyzable)."""
    gate = DeltaGate((query,))
    return gate if gate.enabled else None
