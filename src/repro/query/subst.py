"""Parameter substitution over query and expression ASTs.

Named query symbols (the paper's "function symbols ... used to denote
queries") are registered as parameterized query definitions and expanded at
formula-registration time; expansion is substitution of :class:`Param`
leaves.
"""

from __future__ import annotations

from typing import Mapping

from repro._value import Value
from repro.errors import QueryError
from repro.query import ast


def substitute_expr(expr: ast.Expr, mapping: Mapping[str, ast.Expr]) -> ast.Expr:
    """Replace ``Param(p)`` with ``mapping[p]`` throughout ``expr``."""
    if isinstance(expr, ast.Param):
        return mapping.get(expr.name, expr)
    if isinstance(expr, (ast.Const, ast.Col)):
        return expr
    if isinstance(expr, ast.App):
        return ast.App(
            expr.func, tuple([substitute_expr(a, mapping) for a in expr.args])
        )
    if isinstance(expr, ast.Cmp):
        return ast.Cmp(
            expr.op,
            substitute_expr(expr.left, mapping),
            substitute_expr(expr.right, mapping),
        )
    if isinstance(expr, ast.BoolOp):
        return ast.BoolOp(
            expr.op, tuple([substitute_expr(a, mapping) for a in expr.operands])
        )
    if isinstance(expr, ast.Not):
        return ast.Not(substitute_expr(expr.operand, mapping))
    raise QueryError(f"cannot substitute in {expr!r}")


def substitute_query(query: ast.Query, mapping: Mapping[str, ast.Expr]) -> ast.Query:
    """Replace ``Param(p)`` with ``mapping[p]`` throughout ``query``."""
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
        return ast.ItemRef(
            query.name, tuple([substitute_expr(e, mapping) for e in query.index])
        )
    if isinstance(query, ast.Retrieve):
        return ast.Retrieve(
            tuple([(n, substitute_expr(e, mapping)) for n, e in query.targets]),
            query.ranges,
            None if query.where is None else substitute_expr(query.where, mapping),
        )
    if isinstance(query, ast.AggregateQuery):
        return ast.AggregateQuery(
            query.func,
            substitute_expr(query.expr, mapping),
            query.ranges,
            None if query.where is None else substitute_expr(query.where, mapping),
        )
    if isinstance(query, ast.ExprQuery):
        return ast.ExprQuery(
            query.func, tuple([substitute_query(q, mapping) for q in query.args])
        )
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
