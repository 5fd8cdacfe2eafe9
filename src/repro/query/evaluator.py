"""Evaluation of queries against a database state.

The evaluator is independent of the storage engine: it works against any
object satisfying :class:`StateView` (the current state of the live
database, a snapshot inside a history, or an auxiliary-relation store).
This is what lets the temporal component run "on top of, and using the
existing query processing system" (Section 1 of the paper).
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable

from repro.datamodel.relation import Relation
from repro.datamodel.schema import Schema
from repro.datamodel.tuples import Row
from repro.errors import (
    QueryEvaluationError,
    UnknownRelationError,
)
from repro.query import ast
from repro.query.functions import aggregate_function, scalar_function

Env = Mapping[str, Any]

_EMPTY_ENV: dict[str, Any] = {}


@runtime_checkable
class StateView(Protocol):
    """What the query evaluator needs from a database state."""

    def relation(self, name: str) -> Relation:
        """The current contents of relation ``name``."""
        ...

    def item(self, name: str, index: tuple = ()) -> Any:
        """The current value of scalar data item ``name`` (indexed items,
        used by aggregate rewriting, take an index tuple)."""
        ...

    def has_relation(self, name: str) -> bool:
        ...


# --------------------------------------------------------------------------
# Scalar expressions
# --------------------------------------------------------------------------


def eval_expr(expr: ast.Expr, row_env: Env, params: Env = _EMPTY_ENV) -> Any:
    """Evaluate a scalar expression.

    ``row_env`` maps qualified column names (``S.price``) and bare names to
    values; ``params`` maps parameter names (``$x``) to values.
    """
    if isinstance(expr, ast.Const):
        return expr.value
    if isinstance(expr, ast.Col):
        if expr.name in row_env:
            return row_env[expr.name]
        # Allow bare names to match a unique qualified column.
        matches = [
            k for k in row_env if k.endswith("." + expr.name) or k == expr.name
        ]
        if len(matches) == 1:
            return row_env[matches[0]]
        if not matches:
            raise QueryEvaluationError(f"unknown column {expr.name!r}")
        raise QueryEvaluationError(f"ambiguous column {expr.name!r}: {matches}")
    if isinstance(expr, ast.Param):
        if expr.name not in params:
            raise QueryEvaluationError(f"unbound parameter ${expr.name}")
        return params[expr.name]
    if isinstance(expr, ast.App):
        fn = scalar_function(expr.func)
        return fn(*(eval_expr(a, row_env, params) for a in expr.args))
    if isinstance(expr, ast.Cmp):
        return apply_comparison(
            expr.op,
            eval_expr(expr.left, row_env, params),
            eval_expr(expr.right, row_env, params),
        )
    if isinstance(expr, ast.BoolOp):
        if expr.op == "and":
            return all(eval_expr(a, row_env, params) for a in expr.operands)
        if expr.op == "or":
            return any(eval_expr(a, row_env, params) for a in expr.operands)
        raise QueryEvaluationError(f"unknown boolean op {expr.op!r}")
    if isinstance(expr, ast.Not):
        return not eval_expr(expr.operand, row_env, params)
    raise QueryEvaluationError(f"unknown expression node {expr!r}")


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def apply_comparison(op: str, left: Any, right: Any) -> bool:
    try:
        fn = _COMPARATORS[op]
    except KeyError:
        raise QueryEvaluationError(f"unknown comparison operator {op!r}") from None
    try:
        return bool(fn(left, right))
    except TypeError as exc:
        raise QueryEvaluationError(
            f"cannot compare {left!r} {op} {right!r}: {exc}"
        ) from None


# --------------------------------------------------------------------------
# Queries
# --------------------------------------------------------------------------


def eval_query(
    query: ast.Query, state: StateView, params: Env = _EMPTY_ENV
) -> Any:
    """Evaluate ``query`` against ``state``; returns a Relation or a scalar.

    The paper notes "the value retrieved by q can be a scalar or it can be a
    relation" (Section 5); callers that need a scalar use
    :func:`eval_scalar`.
    """
    if isinstance(query, ast.RelationRef):
        return state.relation(query.name)
    if isinstance(query, ast.ItemRef):
        index = tuple(eval_expr(e, _EMPTY_ENV, params) for e in query.index)
        return state.item(query.name, index)
    if isinstance(query, ast.ConstQuery):
        return query.value
    if isinstance(query, ast.ParamQuery):
        if query.name not in params:
            raise QueryEvaluationError(f"unbound parameter ${query.name}")
        return params[query.name]
    if isinstance(query, ast.ExprQuery):
        fn = scalar_function(query.func)
        return fn(*(eval_scalar(q, state, params) for q in query.args))
    if isinstance(query, ast.Retrieve):
        return _eval_retrieve(query, state, params)
    if isinstance(query, ast.AggregateQuery):
        return _eval_aggregate(query, state, params)
    raise QueryEvaluationError(f"unknown query node {query!r}")


def eval_scalar(
    query: ast.Query, state: StateView, params: Env = _EMPTY_ENV
) -> Any:
    """Evaluate ``query`` and unwrap a 1x1 relation into its value."""
    result = eval_query(query, state, params)
    if isinstance(result, Relation):
        return result.scalar()
    return result


def _bindings(ranges, state: StateView, params: Env):
    """Yield row environments for the cross product of the range variables.

    Iterates ``rows`` directly — binding order is irrelevant to the set
    semantics of query results; callers needing a deterministic row order
    use :meth:`Relation.sorted_rows` (memoized) on the *result*.
    """
    if not ranges:
        yield {}
        return

    relations = []
    for rv in ranges:
        if not state.has_relation(rv.relation):
            raise UnknownRelationError(f"unknown relation {rv.relation!r}")
        relations.append((rv.name, state.relation(rv.relation)))

    yield from _bind_ranges(relations, 0, {})


def _bind_ranges(relations, i: int, env: dict):
    if i == len(relations):
        yield env
        return
    name, rel = relations[i]
    for row in rel.rows:
        child = dict(env)
        for attr, value in zip(rel.schema.names, row.values):
            child[f"{name}.{attr}"] = value
        yield from _bind_ranges(relations, i + 1, child)


def _equality_probe(query: ast.Retrieve, params: Env):
    """For a single-range retrieval whose WHERE has top-level
    ``col = const`` conjuncts, return (attributes, values) for an indexed
    probe; None when not applicable."""
    if len(query.ranges) != 1 or query.where is None:
        return None
    range_name = query.ranges[0].name
    conjuncts = (
        query.where.operands
        if isinstance(query.where, ast.BoolOp) and query.where.op == "and"
        else (query.where,)
    )
    attrs: list[str] = []
    values: list[Any] = []
    for c in conjuncts:
        if not (isinstance(c, ast.Cmp) and c.op == "="):
            continue
        for col, const in ((c.left, c.right), (c.right, c.left)):
            if not isinstance(col, ast.Col):
                continue
            if col.relation not in (None, range_name):
                continue
            if isinstance(const, ast.Const):
                attrs.append(col.attribute)
                values.append(const.value)
                break
            if isinstance(const, ast.Param) and const.name in params:
                attrs.append(col.attribute)
                values.append(params[const.name])
                break
    if not attrs:
        return None
    return attrs, values


_qplan = None


def _plan_module():
    """The plan module, imported lazily (it imports this module)."""
    global _qplan
    if _qplan is None:
        from repro.query import plan as _qplan_mod

        _qplan = _qplan_mod
    return _qplan


def _eval_retrieve(
    query: ast.Retrieve, state: StateView, params: Env
) -> Relation:
    qplan = _plan_module()
    result = qplan.try_execute(query, state, params)
    if result is not qplan.FALLBACK:
        return result
    return _eval_retrieve_scan(query, state, params)


def _eval_retrieve_scan(
    query: ast.Retrieve, state: StateView, params: Env, probe: bool = True
) -> Relation:
    """The naive nested-loop path: the ``FALLBACK`` route of the planner,
    and the oracle the differential tests call directly;
    ``probe=False`` also disables the single-range equality fast path."""
    out_rows: list[tuple] = []

    # Fast path: equality selections on a single range probe the cached
    # hash index instead of scanning (see repro.storage.index).
    probe = _equality_probe(query, params) if probe else None
    if probe is not None:
        from repro.storage.index import index_for

        attrs, values = probe
        rv = query.ranges[0]
        if not state.has_relation(rv.relation):
            raise UnknownRelationError(f"unknown relation {rv.relation!r}")
        relation = state.relation(rv.relation)
        if all(a in relation.schema for a in attrs):
            index = index_for(relation, attrs)
            for row in index.lookup(*values):
                env = {
                    f"{rv.name}.{attr}": value
                    for attr, value in zip(relation.schema.names, row.values)
                }
                if query.where is not None and not eval_expr(
                    query.where, env, params
                ):
                    continue
                out_rows.append(
                    tuple(eval_expr(e, env, params) for _, e in query.targets)
                )
            schema = _infer_target_schema(query, state)
            from repro.datamodel.relation import Relation as _R

            return _R(schema, (Row(schema, vals) for vals in out_rows))

    for env in _bindings(query.ranges, state, params):
        if query.where is not None and not eval_expr(query.where, env, params):
            continue
        out_rows.append(
            tuple(eval_expr(e, env, params) for _, e in query.targets)
        )

    schema = _infer_target_schema(query, state)
    from repro.datamodel.relation import Relation as _R

    return _R(schema, (Row(schema, vals) for vals in out_rows))


def _infer_target_schema(query: ast.Retrieve, state: StateView) -> Schema:
    """Derive the output schema of a retrieval from the catalog."""
    from repro.datamodel.schema import Attribute
    from repro.datamodel.types import ValueType

    range_schemas = {}
    for rv in query.ranges:
        if state.has_relation(rv.relation):
            range_schemas[rv.name] = state.relation(rv.relation).schema

    attrs = []
    for name, expr in query.targets:
        vtype = _infer_expr_type(expr, range_schemas)
        attrs.append(Attribute(name, vtype if vtype is not None else ValueType.FLOAT))
    return Schema(attrs)


def _infer_expr_type(expr: ast.Expr, range_schemas: Mapping[str, Schema]):
    from repro.datamodel.types import ValueType, infer_type, merge_types

    if isinstance(expr, ast.Const):
        return infer_type(expr.value)
    if isinstance(expr, ast.Col):
        rel, attr = expr.relation, expr.attribute
        if rel is not None and rel in range_schemas and attr in range_schemas[rel]:
            return range_schemas[rel].type_of(attr)
        for schema in range_schemas.values():
            if attr in schema:
                return schema.type_of(attr)
        return None
    if isinstance(expr, (ast.Cmp, ast.BoolOp, ast.Not)):
        return ValueType.BOOL
    if isinstance(expr, ast.App):
        sub = [_infer_expr_type(a, range_schemas) for a in expr.args]
        known = [t for t in sub if t is not None]
        if expr.func in ("+", "-", "*", "mod", "min", "max", "neg", "abs") and known:
            out = known[0]
            for t in known[1:]:
                out = merge_types(out, t)
            return out
        if expr.func == "/":
            return ValueType.FLOAT
        if expr.func == "concat":
            return ValueType.STRING
        return None
    if isinstance(expr, ast.Param):
        return None
    return None


def _eval_aggregate(
    query: ast.AggregateQuery, state: StateView, params: Env
) -> Any:
    qplan = _plan_module()
    result = qplan.try_execute(query, state, params)
    if result is not qplan.FALLBACK:
        return result
    return _eval_aggregate_scan(query, state, params)


def _eval_aggregate_scan(
    query: ast.AggregateQuery, state: StateView, params: Env
) -> Any:
    fn = aggregate_function(query.func)
    if not query.group_by:
        values = []
        for env in _bindings(query.ranges, state, params):
            if query.where is not None and not eval_expr(query.where, env, params):
                continue
            values.append(eval_expr(query.expr, env, params))
        return fn(values)

    # GROUP BY: a relation of (group columns..., aggregate value)
    groups: dict[tuple, list] = {}
    for env in _bindings(query.ranges, state, params):
        if query.where is not None and not eval_expr(query.where, env, params):
            continue
        key = tuple(eval_expr(c, env, params) for c in query.group_by)
        groups.setdefault(key, []).append(eval_expr(query.expr, env, params))

    from repro.datamodel.relation import Relation as _R
    from repro.datamodel.schema import Attribute
    from repro.datamodel.types import ValueType, infer_type

    range_schemas = {
        rv.name: state.relation(rv.relation).schema
        for rv in query.ranges
        if state.has_relation(rv.relation)
    }
    attrs = []
    for col in query.group_by:
        vtype = _infer_expr_type(col, range_schemas)
        attrs.append(
            Attribute(col.attribute, vtype if vtype is not None else ValueType.STRING)
        )
    agg_type = (
        ValueType.INT if query.func == "count" else ValueType.FLOAT
    )
    attrs.append(Attribute(query.func, agg_type))
    schema = Schema(attrs)
    rows = []
    for key, values in groups.items():
        agg_value = fn(values)
        if agg_type is ValueType.FLOAT:
            agg_value = float(agg_value)
        rows.append(Row(schema, key + (agg_value,)))
    return _R(schema, rows)
