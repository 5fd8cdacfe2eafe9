"""Tokenizer shared by the query parser and the PTL parser."""

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
    text: str, error: Callable[[str, int], Exception] = None
) -> list[Token]:
    """Split ``text`` into tokens; raises on unrecognized input."""
    if error is None:
        error = lambda msg, pos: QueryParseError(msg, pos)

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
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token], error=None):
        self._tokens = tokens
        self._pos = 0
        self._error = error or (lambda msg, pos: QueryParseError(msg, pos))

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
        return tok.kind == IDENT and tok.text.upper() in {w.upper() for w in words}

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
