"""Parser for the textual PTL syntax.

Grammar (keywords case-insensitive)::

    formula   := orexpr (SINCE orexpr)*                 # left-associative
    orexpr    := andexpr (('|' | OR) andexpr)*
    andexpr   := unary (('&' | AND) unary)*
    unary     := ('!' | NOT) unary
               | PREVIOUSLY ['[' NUMBER ']'] unary
               | THROUGHOUT_PAST ['[' NUMBER ']'] unary
               | LASTTIME unary
               | '[' IDENT ':=' query ']' unary         # assignment operator
               | primary
    primary   := TRUE | FALSE
               | '(' formula ')'
               | '@' IDENT ['(' term {',' term} ')']    # event atom
               | EXECUTED '(' IDENT {',' term} ')'      # last term = time
               | term [CMP term | IN query]             # comparison / membership

    term      := arithmetic (TokenStream.arithmetic: + - * / MOD, unary -)
                 over:
                 NUMBER | STRING | IDENT                # bare ident = variable
               | 'time'                                 # the clock item
               | IDENT '(' qarg {',' qarg} ')'          # registered query symbol
               | AGG '(' query ';' formula ';' formula ')'   # temporal aggregate
               | '{' ... '}'                            # inline query text

    query     := the same arithmetic over query symbols, item names,
                 '$'params, literals and '{...}' inline query text.

Conventions (documented in the README):

* In *term* position a bare identifier is a **variable** (``x`` in the
  paper's SHARP-INCREASE).  ``time`` is reserved for the clock.  Names in
  ``items`` parse as scalar database items (e.g. ``CUM_PRICE``).
* In *query-symbol argument* position a bare identifier is a **string
  constant** (the paper writes ``price(IBM)``); write ``$x`` to pass a PTL
  variable (``price($x)``).
* Event and ``executed`` arguments are terms — bare identifiers bind.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import PTLParseError
from repro.ptl import ast
from repro.query import ast as qast
from repro.query.functions import is_aggregate
from repro.query.lexer import EOF, IDENT, OP, STRING, TokenStream
from repro.query.parser import parse_query
from repro.query.subst import QueryRegistry

_CMP_OPS = ("=", "!=", "<", "<=", ">", ">=")


def parse_formula(
    text: str,
    registry: Optional[QueryRegistry] = None,
    items: Iterable[str] = (),
) -> ast.Formula:
    """Parse PTL text into a formula.

    ``registry`` resolves named query symbols (``price(IBM)``); ``items``
    lists scalar database items recognizable in term position.
    """
    return _Parser.parse(text, registry, items)


class _Parser:
    """The formula levels over :class:`TokenStream`'s operator levels.
    The future-operator parser (:mod:`repro.ptl.future_parser`) is this
    class with its own connectives and primary."""

    #: ``formula := orexpr (SINCE orexpr)*``, left-associative.
    CHAIN = ("SINCE", ast.Since)
    OR = ast.Or
    AND = ast.And
    NOT = ast.Not
    #: Prefix keyword -> (node, whether an optional ``[N]`` window follows).
    PREFIX = {
        "PREVIOUSLY": (ast.Previously, True),
        "THROUGHOUT_PAST": (ast.ThroughoutPast, True),
        "LASTTIME": (ast.Lasttime, False),
    }

    def __init__(
        self,
        text: str,
        registry,
        items: frozenset[str],
        stream: Optional[TokenStream] = None,
    ):
        """``stream`` lets another parser (the future-operator language)
        share this one's token cursor for embedded past formulas."""
        self.text = text
        self.registry = registry
        self.items = items
        if stream is None:
            stream = TokenStream(text, PTLParseError)
        self.stream = stream

    @classmethod
    def parse(cls, text: str, registry, items: Iterable[str]):
        parser = cls(text, registry, frozenset(items))
        formula = parser.parse_formula()
        parser.stream.expect_eof()
        return formula

    # -- formulas -----------------------------------------------------------

    def parse_formula(self) -> ast.Formula:
        keyword, make = self.CHAIN
        return self.stream.chain(self.parse_or, keyword, make)

    def parse_or(self) -> ast.Formula:
        return self.stream.nary(self.parse_and, self.OR, ("|",), ("OR",))

    def parse_and(self) -> ast.Formula:
        return self.stream.nary(self.parse_unary, self.AND, ("&",), ("AND",))

    def parse_unary(self) -> ast.Formula:
        s = self.stream
        if s.at_op("!") or s.at_keyword("NOT"):
            s.advance()
            return self.NOT(self.parse_unary())
        tok = s.current
        prefix = self.PREFIX.get(tok.text.upper()) if tok.kind == IDENT else None
        if prefix is None:
            return self.parse_primary()
        s.advance()
        make, windowed = prefix
        if windowed:
            window = s.window()
            return make(self.parse_unary(), window)
        return make(self.parse_unary())

    def parse_primary(self) -> ast.Formula:
        s = self.stream
        if s.accept_op("["):
            # assignment operator [x := query]
            var = s.expect_ident().text
            if not (s.accept_op(":=") or s.accept_op("<-")):
                s.fail("expected ':=' in assignment operator")
            query = self.parse_query_part()
            s.expect_op("]")
            return ast.Assign(var, query, self.parse_unary())
        if s.accept_keyword("TRUE"):
            return ast.TRUE
        if s.accept_keyword("FALSE"):
            return ast.FALSE
        if s.accept_op("@"):
            name = s.expect_ident().text
            args: list[ast.Term] = []
            if s.accept_op("("):
                if not s.at_op(")"):
                    while True:
                        args.append(self.parse_term())
                        if not s.accept_op(","):
                            break
                s.expect_op(")")
            return ast.EventAtom(name, tuple(args))
        if s.accept_keyword("EXECUTED"):
            s.expect_op("(")
            rule = s.expect_ident().text
            terms: list[ast.Term] = []
            while s.accept_op(","):
                terms.append(self.parse_term())
            s.expect_op(")")
            if not terms:
                s.fail("executed(...) needs at least a time argument")
            return ast.ExecutedAtom(rule, tuple(terms[:-1]), terms[-1])
        # '(' opens a formula or a term: try the formula first.
        return s.parenthesised(
            self.parse_formula, PTLParseError, self.parse_atom
        )

    def parse_atom(self) -> ast.Formula:
        s = self.stream
        left = self.parse_term()
        if s.at_op(*_CMP_OPS):
            op = s.advance().text
            right = self.parse_term()
            return ast.Comparison(op, left, right)
        if s.at_keyword("IN"):
            s.advance()
            query = self.parse_query_part()
            return ast.InQuery((left,), query)
        s.fail("expected a comparison or 'in' after term")

    # -- terms ----------------------------------------------------------------

    def parse_term(self) -> ast.Term:
        return self.stream.arithmetic(self._term_primary, ast.FuncT)

    def _term_primary(self) -> ast.Term:
        s = self.stream
        number = s.accept_number()
        if number is not None:
            return ast.ConstT(number)
        tok = s.current
        if tok.kind == STRING:
            s.advance()
            return ast.ConstT(tok.text)
        if s.accept_op("("):
            inner = self.parse_term()
            s.expect_op(")")
            return inner
        if s.at_op("{"):
            return ast.QueryT(self._inline_query())
        if s.accept_op("$"):
            return ast.Var(s.expect_ident().text)
        if tok.kind == IDENT:
            name = tok.text
            upper = name.upper()
            if upper == "TIME" and s.peek(1).text != "(":
                s.advance()
                return ast.QueryT(qast.ItemRef("time"))
            if (
                is_aggregate(name)
                and s.peek(1).kind == OP
                and s.peek(1).text == "("
                and self._aggregate_ahead()
            ):
                return self._parse_aggregate_term()
            if s.peek(1).kind == OP and s.peek(1).text == "(":
                if self.registry is not None and name in self.registry:
                    return ast.QueryT(self._query_symbol_app())
                s.fail(f"unknown query symbol {name!r}")
            s.advance()
            if name in self.items:
                return ast.QueryT(qast.ItemRef(name))
            return ast.Var(name)
        s.fail(f"unexpected token {tok.text!r} in term")

    def _aggregate_ahead(self) -> bool:
        """A temporal aggregate ``agg(q; phi; psi)`` is recognized by a
        top-level ';' before the matching close paren (a plain ``sum(...)``
        call with no semicolons is a registered query symbol instead)."""
        depth = 0
        i = 1  # at '('
        while True:
            tok = self.stream.peek(i)
            if tok.kind == EOF:
                return False
            if tok.kind == OP and tok.text == "(":
                depth += 1
            elif tok.kind == OP and tok.text == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif tok.kind == OP and depth == 1 and tok.text == ";":
                return True
            i += 1

    def _parse_aggregate_term(self) -> ast.Term:
        s = self.stream
        func = s.expect_ident().text.lower()
        s.expect_op("(")
        query = self.parse_query_part()
        s.expect_op(";")
        start = self.parse_formula()
        s.expect_op(";")
        sample = self.parse_formula()
        s.expect_op(")")
        return ast.AggT(func, query, start, sample)

    def _query_symbol_app(self) -> qast.Query:
        s = self.stream
        name = s.expect_ident().text
        s.expect_op("(")
        args: list[qast.Expr] = []
        if not s.at_op(")"):
            while True:
                args.append(self._query_arg())
                if not s.accept_op(","):
                    break
        s.expect_op(")")
        return self.registry.get(name).instantiate(tuple(args))

    def _query_arg(self) -> qast.Expr:
        s = self.stream
        number = s.accept_number()
        if number is not None:
            return qast.Const(number)
        tok = s.current
        if tok.kind == STRING:
            s.advance()
            return qast.Const(tok.text)
        if s.accept_op("$"):
            return qast.Param(s.expect_ident().text)
        if tok.kind == IDENT:
            s.advance()
            return qast.Const(tok.text)  # bare ident = string constant
        s.fail(f"unexpected query-symbol argument {tok.text!r}")

    # -- query parts -----------------------------------------------------------

    def parse_query_part(self) -> qast.Query:
        """A query in PTL position: arithmetic over query symbols, item
        names, parameters, literals, aggregate-free."""
        return self.stream.arithmetic(self._qp_primary, qast.ExprQuery)

    def _qp_primary(self) -> qast.Query:
        s = self.stream
        number = s.accept_number()
        if number is not None:
            return qast.ConstQuery(number)
        tok = s.current
        if tok.kind == STRING:
            s.advance()
            return qast.ConstQuery(tok.text)
        if s.at_op("{"):
            return self._inline_query()
        if s.accept_op("$"):
            return qast.ParamQuery(s.expect_ident().text)
        if s.accept_op("("):
            inner = self.parse_query_part()
            s.expect_op(")")
            return inner
        if tok.kind == IDENT:
            name = tok.text
            if s.peek(1).kind == OP and s.peek(1).text == "(":
                if self.registry is not None and name in self.registry:
                    return self._query_symbol_app()
                s.fail(f"unknown query symbol {name!r}")
            s.advance()
            if s.accept_op("["):
                index: list[qast.Expr] = []
                while True:
                    index.append(self._query_arg())
                    if not s.accept_op(","):
                        break
                s.expect_op("]")
                return qast.ItemRef(name, tuple(index))
            return qast.ItemRef(name)
        s.fail(f"unexpected token {tok.text!r} in query")

    def _inline_query(self) -> qast.Query:
        """``{ RETRIEVE ... }`` — slice the raw text between the braces and
        hand it to the query parser."""
        s = self.stream
        open_tok = s.expect_op("{")
        depth = 1
        while True:
            tok = s.current
            if tok.kind == EOF:
                s.fail("unterminated '{' query")
            s.advance()
            if tok.kind == OP and tok.text == "{":
                depth += 1
            elif tok.kind == OP and tok.text == "}":
                depth -= 1
                if depth == 0:
                    close_tok = tok
                    break
        raw = self.text[open_tok.position + 1 : close_tok.position]
        try:
            return parse_query(raw)
        except Exception as exc:
            from repro.errors import QueryParseError

            position = open_tok.position + 1
            if isinstance(exc, QueryParseError) and exc.position >= 0:
                position += exc.position
            raise PTLParseError(
                f"bad inline query: {exc}", position
            ) from exc

