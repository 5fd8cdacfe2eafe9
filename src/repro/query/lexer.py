"""Tokenizer and token cursor shared by every parser of the package."""

from __future__ import annotations

import re
from sys import intern
from typing import Callable, Optional

from repro._value import Value
from repro.errors import QueryParseError

_set = object.__setattr__

# Token kinds
IDENT = "IDENT"
NUMBER = "NUMBER"
STRING = "STRING"
OP = "OP"
EOF = "EOF"

#: The operators; ``_TOKEN`` tries the two-character ones first.
_OPERATORS = [
    ":=",
    "<-",
    "<=",
    ">=",
    "!=",
    "=",
    "<",
    ">",
    "+",
    "-",
    "*",
    "/",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    ",",
    ".",
    "$",
    "!",
    "&",
    "|",
    ";",
    "@",
    "?",
]

#: One token (or the whitespace or comment before one) per match, tried
#: in this order; the group that matched names what it is.  ``\w`` is
#: ``str.isalnum`` or ``_``, as the identifier rule has it; an identifier
#: starts with a letter or ``_`` (``[^\W\d]`` also admits the few
#: non-decimal digits and numerals, which :func:`tokenize` refuses).
_TOKEN = re.compile(
    r"(?P<space>\s+|\#[^\n]*)"
    r"|(?P<ident>[^\W\d]\w*)"
    r"|(?P<number>\d+(?:\.\d+)?)"
    r"|(?P<dotnumber>\.\d+)"
    r"|'(?P<string>[^']*)'|\"(?P<dstring>[^\"]*)\""
    r"|(?P<op>"
    + "|".join([re.escape(op) for op in _OPERATORS if len(op) == 2])
    + "|["
    + "".join([re.escape(op) for op in _OPERATORS if len(op) == 1])
    + "])"
    r"|(?P<unterminated>['\"])"
    r"|(?P<other>.)",
    re.DOTALL,
)


class Token(Value):
    kind: str
    text: str
    position: int

    def __init__(self, kind: str, text: str, position: int) -> None:
        _set(self, "kind", kind)
        _set(self, "text", text)
        _set(self, "position", position)

    def __str__(self) -> str:
        return f"{self.kind}({self.text!r})@{self.position}"


def tokenize(
    text: str, error: Callable[[str, int], Exception] = QueryParseError
) -> list[Token]:
    """Split ``text`` into tokens; raises ``error(message, position)`` on
    unrecognized input.  Identifier texts go through ``sys.intern``, so
    the trees built from them share one string per name."""
    tokens: list[Token] = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        i = m.start()
        if kind == "space":
            continue
        if kind == "op":
            tokens.append(Token(OP, m.group(), i))
        elif kind == "ident":
            word = m.group()
            if not (word[0].isalpha() or word[0] == "_"):
                raise error(f"unexpected character {word[0]!r}", i)
            tokens.append(Token(IDENT, intern(word), i))
        elif kind == "number":
            tokens.append(Token(NUMBER, m.group(), i))
        elif kind == "dotnumber":
            # leading-dot float like the paper's ".5x"
            tokens.append(Token(NUMBER, "0" + m.group(), i))
        elif kind == "string" or kind == "dstring":
            tokens.append(Token(STRING, m.group(kind), i))
        elif kind == "unterminated":
            raise error("unterminated string literal", i)
        else:
            raise error(f"unexpected character {m.group()!r}", i)
    tokens.append(Token(EOF, "", len(text)))
    return tokens


class TokenStream:
    """Cursor over the tokens of one text: the peek/expect helpers, and
    the operator levels every parser of the package is built from
    (:meth:`nary`, :meth:`chain`, :meth:`arithmetic`, :meth:`window`,
    :meth:`accept_number`, :meth:`parenthesised`).  A level takes the
    parser of its operands and the maker of its nodes, so the PTL,
    future, query and event-expression grammars differ only in their
    leaves and their connectives.  Keywords are given in upper case and
    match in any case."""

    def __init__(
        self,
        text: str,
        error: Callable[[str, int], Exception] = QueryParseError,
    ):
        """``error(message, position)`` makes what bad input raises."""
        self._tokens = tokenize(text, error)
        self._pos = 0
        self._error = error

    @property
    def current(self) -> Token:
        return self._tokens[self._pos]

    def peek(self, offset: int = 0) -> Token:
        idx = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[idx]

    def advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.current
        return tok.kind == IDENT and tok.text.upper() in words

    def at_op(self, *ops: str) -> bool:
        tok = self.current
        return tok.kind == OP and tok.text in ops

    def accept_keyword(self, *words: str) -> Optional[Token]:
        if self.at_keyword(*words):
            return self.advance()
        return None

    def accept_op(self, *ops: str) -> Optional[Token]:
        if self.at_op(*ops):
            return self.advance()
        return None

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise self._error(
                f"expected {word!r}, found {self.current.text!r}",
                self.current.position,
            )
        return self.advance()

    def expect_op(self, op: str) -> Token:
        if not self.at_op(op):
            raise self._error(
                f"expected {op!r}, found {self.current.text!r}",
                self.current.position,
            )
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.current
        if tok.kind != IDENT:
            raise self._error(
                f"expected identifier, found {tok.text!r}", tok.position
            )
        return self.advance()

    def expect_eof(self) -> None:
        tok = self.current
        if tok.kind != EOF:
            raise self._error(
                f"unexpected trailing input {tok.text!r}", tok.position
            )

    def fail(self, message: str):
        raise self._error(message, self.current.position)

    # -- operator levels ----------------------------------------------------

    def nary(self, operand: Callable, make: Callable, ops=(), keywords=()):
        """``operand (sep operand)*``, a separator being one of ``ops`` or
        ``keywords``: the lone operand, or ``make`` of the tuple of all."""
        operands = [operand()]
        while self.at_op(*ops) or self.at_keyword(*keywords):
            self.advance()
            operands.append(operand())
        return operands[0] if len(operands) == 1 else make(tuple(operands))

    def chain(self, operand: Callable, keyword: str, make: Callable):
        """Left-associative ``operand (keyword operand)*``, each step
        ``make(left, right)``."""
        left = operand()
        while self.accept_keyword(keyword):
            left = make(left, operand())
        return left

    def arithmetic(self, primary: Callable, make: Callable):
        """The arithmetic ladder over ``primary``; ``make(op, args)``
        builds each node (unary minus is ``make("neg", (x,))``)::

            additive := mult (('+' | '-') mult)*
            mult     := unary (('*' | '/' | MOD) unary)*
            unary    := '-' unary | primary
        """
        left = self._mult(primary, make)
        while self.at_op("+", "-"):
            op = self.advance().text
            left = make(op, (left, self._mult(primary, make)))
        return left

    def _mult(self, primary: Callable, make: Callable):
        left = self._unary(primary, make)
        while True:
            if self.at_op("*", "/"):
                op = self.advance().text
            elif self.accept_keyword("MOD"):
                op = "mod"
            else:
                return left
            left = make(op, (left, self._unary(primary, make)))

    def _unary(self, primary: Callable, make: Callable):
        if self.accept_op("-"):
            return make("neg", (self._unary(primary, make),))
        return primary()

    def accept_number(self):
        """The value of a NUMBER token at the cursor (consumed), else
        ``None``."""
        tok = self._tokens[self._pos]
        if tok.kind != NUMBER:
            return None
        self._pos += 1
        return float(tok.text) if "." in tok.text else int(tok.text)

    def window(self) -> Optional[int]:
        """An optional ``'[' NUMBER ']'`` temporal window."""
        if not self.accept_op("["):
            return None
        value = self.accept_number()
        if value is None:
            self.fail("expected a number in temporal window")
        self.expect_op("]")
        return int(float(value))

    def parenthesised(self, parse: Callable, error: type, otherwise: Callable):
        """``'(' parse() ')'`` when that parses; otherwise ``otherwise()``
        from the ``'('`` (an ``error`` raised inside is the signal to back
        off).  When both attempts fail, the error of the one that got
        further (the larger ``position``; ``otherwise``'s on a tie) is
        raised: a formula missing its ``')'`` reports that, not where the
        term re-parse tripped over the formula's operator."""
        if not self.at_op("("):
            return otherwise()
        saved = self._pos
        self._pos += 1
        try:
            inner = parse()
            self.expect_op(")")
            return inner
        except error as first:
            self._pos = saved
            try:
                return otherwise()
            except error as second:
                if first.position > second.position:
                    raise first from None
                raise
