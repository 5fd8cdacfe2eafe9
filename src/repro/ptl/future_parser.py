"""Textual syntax for the future-operator extension.

Grammar (keywords case-insensitive)::

    fformula := forexpr (UNTIL forexpr)*            # left-associative
    forexpr  := fand (('|' | OR) fand)*
    fand     := funary (('&' | AND) funary)*
    funary   := ('!' | NOT) funary
              | NEXT funary
              | EVENTUALLY ['[' N ']'] funary
              | ALWAYS ['[' N ']'] funary
              | fprimary
    fprimary := TRUE | FALSE
              | '(' fformula ')'                    # or a parenthesized
              | <past-PTL unary formula>            #   past formula

These are the PTL parser's levels (:class:`repro.ptl.parser._Parser`)
with the future connectives; only the primary is this module's.  Any
primary that is not a future construct is parsed as one *past-PTL unary
formula* by the ordinary PTL parser sharing the same token cursor — so
event atoms, comparisons, ``previously``/``since`` (inside
parentheses), assignments, and aggregates all embed directly::

    parse_future_formula("always (!@req | eventually[5] @ack)")
    parse_future_formula("eventually (previously @a & @b)")
    parse_future_formula("@armed until price(IBM) > 50", registry)
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import PTLParseError, UnsafeFormulaError
from repro.ptl import ast as past_ast
from repro.ptl import future as fut
from repro.ptl.parser import _Parser
from repro.query.subst import QueryRegistry


def parse_future_formula(
    text: str,
    registry: Optional[QueryRegistry] = None,
    items: Iterable[str] = (),
) -> fut.FFormula:
    """Parse future-operator text into a
    :class:`~repro.ptl.future.FFormula` (atoms must be ground)."""
    return _FutureParser.parse(text, registry, items)


class _FutureParser(_Parser):
    """The PTL parser's levels with the future connectives and its own
    primary."""

    CHAIN = ("UNTIL", fut.Until)
    OR = staticmethod(fut.for_)
    AND = staticmethod(fut.fand)
    NOT = staticmethod(fut.fnot)
    PREFIX = {
        "NEXT": (fut.Next, False),
        "EVENTUALLY": (fut.Eventually, True),
        "ALWAYS": (fut.Always, True),
    }

    def __init__(self, text, registry, items):
        super().__init__(text, registry, items)
        self._past = _Parser(text, registry, items, stream=self.stream)

    def parse_primary(self) -> fut.FFormula:
        s = self.stream
        if s.accept_keyword("TRUE"):
            return fut.FTRUE
        if s.accept_keyword("FALSE"):
            return fut.FFALSE
        inner = s.parenthesised(self.parse_formula, PTLParseError)
        if inner is not None:
            return inner
        # fall back to one past-PTL unary formula
        past = self._past.parse_unary()
        if past_ast.free_variables(past):
            raise UnsafeFormulaError(
                f"future-formula atoms must be ground: {past}"
            )
        return fut.Atom(past)
