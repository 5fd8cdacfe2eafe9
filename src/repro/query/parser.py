"""Parser for the QUEL-like query language.

Grammar (keywords case-insensitive)::

    query      := retrieve | aggregate | itemexpr
    retrieve   := RETRIEVE '(' target (',' target)* ')' [from] [where]
    aggregate  := AGG '(' expr ')' [from] [where]       AGG in SUM/AVG/...
    from       := FROM range (',' range)*
    range      := IDENT [IDENT]                         relation [alias]
    where      := WHERE expr
    target     := expr [AS IDENT]
    itemexpr   := additive over scalar items / $params / literals (-V, V * -2)

    expr       := orexpr
    orexpr     := andexpr (OR andexpr)*
    andexpr    := notexpr (AND notexpr)*
    notexpr    := NOT notexpr | cmp
    cmp        := additive [cmpop additive]
    additive   := mult (('+'|'-') mult)*       # TokenStream.arithmetic,
    mult       := unary (('*'|'/'|MOD) unary)*   # shared by every parser
    unary      := '-' unary | primary
    primary    := NUMBER | STRING | TRUE | FALSE | '$' IDENT
                | IDENT '(' args ')' | IDENT ['.' IDENT] | '(' expr ')'

The paper's own example omits FROM and ranges over qualified names::

    RETRIEVE (STOCK_FOR_SALE.name) WHERE STOCK_FOR_SALE.price >= 300

so when FROM is absent, ranges are inferred from the qualified column names
used in targets and WHERE.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.query import ast
from repro.query.functions import is_aggregate
from repro.query.lexer import IDENT, OP, STRING, TokenStream

_KEYWORDS = {
    "RETRIEVE",
    "FROM",
    "WHERE",
    "AS",
    "AND",
    "OR",
    "NOT",
    "MOD",
    "TRUE",
    "FALSE",
    "GROUP",
    "BY",
}


def parse_query(text: str) -> ast.Query:
    """Parse query text into a :class:`~repro.query.ast.Query`."""
    stream = TokenStream(text)
    query = _parse_query(stream)
    stream.expect_eof()
    return query


def parse_expr(text: str) -> ast.Expr:
    """Parse a standalone scalar expression (used in tests and actions)."""
    stream = TokenStream(text)
    expr = _parse_expr(stream)
    stream.expect_eof()
    return expr


def _parse_query(stream: TokenStream) -> ast.Query:
    if stream.at_keyword("RETRIEVE"):
        return _parse_retrieve(stream)
    tok = stream.current
    if (
        tok.kind == IDENT
        and is_aggregate(tok.text)
        and stream.peek(1).kind == OP
        and stream.peek(1).text == "("
    ):
        return _parse_aggregate(stream)
    return _parse_itemexpr(stream)


# -- RETRIEVE ---------------------------------------------------------------


def _parse_retrieve(stream: TokenStream) -> ast.Retrieve:
    stream.expect_keyword("RETRIEVE")
    stream.expect_op("(")
    targets: list[tuple[str, ast.Expr]] = []
    while True:
        expr = _parse_expr(stream)
        name: Optional[str] = None
        if stream.accept_keyword("AS"):
            name = stream.expect_ident().text
        targets.append((name or _default_target_name(expr, len(targets)), expr))
        if not stream.accept_op(","):
            break
    stream.expect_op(")")
    ranges = _parse_from(stream)
    where = _parse_where(stream)
    if not ranges:
        ranges = _infer_ranges(targets, where)
    return ast.Retrieve(tuple(targets), tuple(ranges), where)


def _default_target_name(expr: ast.Expr, index: int) -> str:
    if isinstance(expr, ast.Col):
        return expr.attribute
    return f"col{index}"


def _parse_from(stream: TokenStream) -> list[ast.RangeVar]:
    ranges: list[ast.RangeVar] = []
    if stream.accept_keyword("FROM"):
        while True:
            rel = stream.expect_ident().text
            alias = None
            if (
                stream.current.kind == IDENT
                and stream.current.text.upper() not in _KEYWORDS
            ):
                alias = stream.advance().text
            ranges.append(ast.RangeVar(rel, alias))
            if not stream.accept_op(","):
                break
    return ranges


def _parse_where(stream: TokenStream) -> Optional[ast.Expr]:
    if stream.accept_keyword("WHERE"):
        return _parse_expr(stream)
    return None


def _infer_ranges(targets, where) -> list[ast.RangeVar]:
    """Paper-style FROM-less retrieval: ranges from qualified column names."""
    names: list[str] = []

    def visit(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Col) and expr.relation is not None:
            if expr.relation not in names:
                names.append(expr.relation)
        elif isinstance(expr, ast.App):
            for a in expr.args:
                visit(a)
        elif isinstance(expr, ast.Cmp):
            visit(expr.left)
            visit(expr.right)
        elif isinstance(expr, ast.BoolOp):
            for a in expr.operands:
                visit(a)
        elif isinstance(expr, ast.Not):
            visit(expr.operand)

    for _, e in targets:
        visit(e)
    if where is not None:
        visit(where)
    return [ast.RangeVar(n) for n in names]


# -- aggregates ---------------------------------------------------------------


def _parse_aggregate(stream: TokenStream) -> ast.AggregateQuery:
    func = stream.expect_ident().text.lower()
    stream.expect_op("(")
    expr = _parse_expr(stream)
    stream.expect_op(")")
    ranges = _parse_from(stream)
    where = _parse_where(stream)
    group_by: list[ast.Col] = []
    if stream.accept_keyword("GROUP"):
        stream.expect_keyword("BY")
        while True:
            name = stream.expect_ident().text
            if stream.at_op(".") and stream.peek(1).kind == IDENT:
                stream.advance()
                name = f"{name}.{stream.expect_ident().text}"
            group_by.append(ast.Col(name))
            if not stream.accept_op(","):
                break
    if not ranges:
        ranges = _infer_ranges(
            [("_", expr)] + [("_", c) for c in group_by], where
        )
    return ast.AggregateQuery(
        func, expr, tuple(ranges), where, tuple(group_by)
    )


# -- scalar item expressions --------------------------------------------------


def _parse_itemexpr(stream: TokenStream) -> ast.Query:
    """Arithmetic over scalar items, e.g. ``CUM_PRICE / TOTAL_UPDATES`` or
    ``time`` or ``price(IBM) * 2`` (query symbols resolved later)."""
    return stream.arithmetic(
        lambda: _parse_itemexpr_primary(stream), ast.ExprQuery
    )


def _parse_itemexpr_primary(stream: TokenStream) -> ast.Query:
    number = stream.accept_number()
    if number is not None:
        return ast.ConstQuery(number)
    tok = stream.current
    if tok.kind == STRING:
        stream.advance()
        return ast.ConstQuery(tok.text)
    if stream.accept_op("("):
        inner = _parse_itemexpr(stream)
        stream.expect_op(")")
        return inner
    if stream.accept_op("$"):
        return ast.ParamQuery(stream.expect_ident().text)
    if tok.kind == IDENT:
        name = stream.advance().text
        if stream.accept_op("["):
            index: list[ast.Expr] = []
            while True:
                index.append(_parse_expr(stream))
                if not stream.accept_op(","):
                    break
            stream.expect_op("]")
            return ast.ItemRef(name, tuple(index))
        return ast.ItemRef(name)
    stream.fail(f"unexpected token {tok.text!r} in query")


# -- expressions ----------------------------------------------------------------


def _parse_expr(stream: TokenStream) -> ast.Expr:
    return stream.nary(lambda: _parse_and(stream), _OR, keywords=("OR",))


def _parse_and(stream: TokenStream) -> ast.Expr:
    return stream.nary(lambda: _parse_not(stream), _AND, keywords=("AND",))


_OR = partial(ast.BoolOp, "or")
_AND = partial(ast.BoolOp, "and")


def _parse_not(stream: TokenStream) -> ast.Expr:
    if stream.accept_keyword("NOT"):
        return ast.Not(_parse_not(stream))
    return _parse_cmp(stream)


_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _parse_cmp(stream: TokenStream) -> ast.Expr:
    left = _parse_arithmetic(stream)
    if stream.at_op(*_CMP_OPS):
        op = stream.advance().text
        right = _parse_arithmetic(stream)
        return ast.Cmp(op, left, right)
    return left


def _parse_arithmetic(stream: TokenStream) -> ast.Expr:
    return stream.arithmetic(lambda: _parse_primary(stream), ast.App)


def _parse_primary(stream: TokenStream) -> ast.Expr:
    number = stream.accept_number()
    if number is not None:
        return ast.Const(number)
    tok = stream.current
    if tok.kind == STRING:
        stream.advance()
        return ast.Const(tok.text)
    if stream.accept_op("$"):
        return ast.Param(stream.expect_ident().text)
    if stream.accept_op("("):
        inner = _parse_expr(stream)
        stream.expect_op(")")
        return inner
    if tok.kind == IDENT:
        upper = tok.text.upper()
        if upper == "TRUE":
            stream.advance()
            return ast.Const(True)
        if upper == "FALSE":
            stream.advance()
            return ast.Const(False)
        name = stream.advance().text
        if stream.at_op("("):
            stream.advance()
            args: list[ast.Expr] = []
            if not stream.at_op(")"):
                while True:
                    args.append(_parse_expr(stream))
                    if not stream.accept_op(","):
                        break
            stream.expect_op(")")
            return ast.App(name, tuple(args))
        if stream.at_op(".") and stream.peek(1).kind == IDENT:
            stream.advance()
            attr = stream.expect_ident().text
            return ast.Col(f"{name}.{attr}")
        return ast.Col(name)
    stream.fail(f"unexpected token {tok.text!r} in expression")

