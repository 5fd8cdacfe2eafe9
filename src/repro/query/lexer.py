"""Tokenizer and token cursor shared by every parser of the package."""

from __future__ import annotations

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

#: Multi-character operators, longest first.
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
    unrecognized input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token(IDENT, text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token(NUMBER, text[i:j], i))
            i = j
            continue
        if c == "." and i + 1 < n and text[i + 1].isdigit():
            # leading-dot float like the paper's ".5x"
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token(NUMBER, "0" + text[i:j], i))
            i = j
            continue
        if c in ("'", '"'):
            j = i + 1
            while j < n and text[j] != c:
                j += 1
            if j >= n:
                raise error("unterminated string literal", i)
            tokens.append(Token(STRING, text[i + 1 : j], i))
            i = j + 1
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token(OP, op, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise error(f"unexpected character {c!r}", i)
    tokens.append(Token(EOF, "", n))
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

    def parenthesised(self, parse: Callable, error: type):
        """``'(' parse() ')'`` when that parses; otherwise ``None``, with
        the cursor back at the ``'('`` (an ``error`` raised inside is the
        signal to back off)."""
        if not self.at_op("("):
            return None
        saved = self._pos
        self._pos += 1
        try:
            inner = parse()
            self.expect_op(")")
            return inner
        except error:
            self._pos = saved
            return None
