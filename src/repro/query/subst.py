"""Parameter substitution over query and expression ASTs.

Named query symbols (the paper's "function symbols ... used to denote
queries") are registered as parameterized query definitions and expanded at
formula-registration time; expansion is substitution of :class:`Param`
leaves.
"""

from __future__ import annotations

from typing import Mapping

from repro._intern import same
from repro._value import Value
from repro.errors import QueryError
from repro.query import ast


def _substitute_all(items: tuple, mapping) -> tuple:
    out = [substitute_expr(e, mapping) for e in items]
    return items if same(out, items) else tuple(out)


def _substitute_where(where, mapping):
    return None if where is None else substitute_expr(where, mapping)


def substitute_expr(expr: ast.Expr, mapping: Mapping[str, ast.Expr]) -> ast.Expr:
    """Replace ``Param(p)`` with ``mapping[p]`` throughout ``expr``; an
    expression with nothing to replace comes back as the same object."""
    if isinstance(expr, ast.Param):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (ast.Const, ast.Col)):
        return expr
    if isinstance(expr, ast.App):
        args = _substitute_all(expr.args, mapping)
        return expr if args is expr.args else ast.App(expr.func, args)
    if isinstance(expr, ast.Cmp):
        left = substitute_expr(expr.left, mapping)
        right = substitute_expr(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return ast.Cmp(expr.op, left, right)
    if isinstance(expr, ast.BoolOp):
        operands = _substitute_all(expr.operands, mapping)
        if operands is expr.operands:
            return expr
        return ast.BoolOp(expr.op, operands)
    if isinstance(expr, ast.Not):
        operand = substitute_expr(expr.operand, mapping)
        return expr if operand is expr.operand else ast.Not(operand)
    raise QueryError(f"cannot substitute in {expr!r}")


def substitute_query(query: ast.Query, mapping: Mapping[str, ast.Expr]) -> ast.Query:
    """Replace ``Param(p)`` with ``mapping[p]`` throughout ``query``; a
    query with nothing to replace comes back as the same object."""
    if isinstance(query, (ast.RelationRef, ast.ConstQuery)):
        return query
    if isinstance(query, ast.ParamQuery):
        replacement = mapping.get(query.name)
        if replacement is None:
            return query
        if isinstance(replacement, ast.Const):
            return ast.ConstQuery(replacement.value)
        if isinstance(replacement, ast.Param):
            return ast.ParamQuery(replacement.name)
        raise QueryError(
            f"cannot substitute {replacement!r} for query parameter "
            f"${query.name}"
        )
    if isinstance(query, ast.ItemRef):
        index = _substitute_all(query.index, mapping)
        return query if index is query.index else ast.ItemRef(query.name, index)
    if isinstance(query, ast.Retrieve):
        targets = [(n, substitute_expr(e, mapping)) for n, e in query.targets]
        where = _substitute_where(query.where, mapping)
        if where is query.where and all(
            [new is old for (_, new), (_, old) in zip(targets, query.targets)]
        ):
            return query
        return ast.Retrieve(tuple(targets), query.ranges, where)
    if isinstance(query, ast.AggregateQuery):
        expr = substitute_expr(query.expr, mapping)
        where = _substitute_where(query.where, mapping)
        if expr is query.expr and where is query.where:
            return query
        return ast.AggregateQuery(
            query.func, expr, query.ranges, where, query.group_by
        )
    if isinstance(query, ast.ExprQuery):
        args = [substitute_query(q, mapping) for q in query.args]
        if same(args, query.args):
            return query
        return ast.ExprQuery(query.func, tuple(args))
    raise QueryError(f"cannot substitute in {query!r}")


class QueryDef(Value):
    """A parameterized named query: ``price(name) := RETRIEVE ... $name ...``.

    ``params`` are the formal parameter names, appearing as ``$param`` in
    ``body``.
    """

    name: str
    params: tuple[str, ...]
    body: ast.Query

    def instantiate(self, args: tuple[ast.Expr, ...]) -> ast.Query:
        """The body with formals replaced by the given argument expressions.

        Arguments may be constants (``price(IBM)`` — unquoted identifiers
        are treated as string constants, matching the paper's notation) or
        parameters standing for free PTL variables (``price($x)``).
        """
        if len(args) != len(self.params):
            raise QueryError(
                f"query {self.name!r} takes {len(self.params)} argument(s), "
                f"got {len(args)}"
            )
        return substitute_query(self.body, dict(zip(self.params, args)))


class QueryRegistry:
    """Mapping of query symbols to :class:`QueryDef`.

    The registry is the bridge between the paper's *function symbols
    denoting queries* and concrete query ASTs; PTL formulas reference
    queries only through registered symbols or inline ``{ ... }`` query
    text.
    """

    def __init__(self) -> None:
        self._defs: dict[str, QueryDef] = {}

    def define(self, name: str, params: tuple[str, ...], body: ast.Query) -> QueryDef:
        qdef = QueryDef(name, tuple(params), body)
        self._defs[name] = qdef
        return qdef

    def define_text(self, name: str, params: tuple[str, ...], text: str) -> QueryDef:
        from repro.query.parser import parse_query

        return self.define(name, params, parse_query(text))

    def get(self, name: str) -> QueryDef:
        try:
            return self._defs[name]
        except KeyError:
            raise QueryError(f"unknown query symbol {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def names(self) -> list[str]:
        return sorted(self._defs)
