"""Event expressions (the Gehani/Jagadish/Shmueli baseline of Section 10).

"Event expressions are based on regular expressions ... An event
expression is processed by constructing a finite-state automaton.  Since
event expressions use all the operators of regular expressions and also
use negations, it can easily be shown (see [35]) that the size of the
automaton can be superexponential in the length of the event-expression."

This module implements the baseline faithfully enough to measure that
claim (benchmark E8): a regular event-expression language with complement,
compiled via Thompson NFA -> subset-construction DFA (complement
determinizes first), with optional Moore minimization so the size
comparison is fair.

Syntax::

    expr  := alt
    alt   := cat ('|' cat)*
    cat   := rep rep*
    rep   := base ('*' | '?')*
    base  := EVENT_NAME | '(' expr ')' | '!' base     # language complement
           | '.'                                      # any single event
"""

from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from repro._value import Value
from repro.errors import EventExprError
from repro.query.lexer import EOF, IDENT, TokenStream

# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------


class EventExpr:
    __slots__ = ()


class Atom(EventExpr, Value):
    name: str

    def __str__(self):
        return self.name


class AnyEvent(EventExpr, Value):
    def __str__(self):
        return "."


class Concat(EventExpr, Value):
    parts: tuple[EventExpr, ...]

    def __str__(self):
        return " ".join(map(str, self.parts))


class Union(EventExpr, Value):
    parts: tuple[EventExpr, ...]

    def __str__(self):
        return "(" + " | ".join(map(str, self.parts)) + ")"


class Star(EventExpr, Value):
    inner: EventExpr

    def __str__(self):
        return f"({self.inner})*"


class Optional_(EventExpr, Value):
    inner: EventExpr

    def __str__(self):
        return f"({self.inner})?"


class Complement(EventExpr, Value):
    inner: EventExpr

    def __str__(self):
        return f"!({self.inner})"


def parse_event_expr(text: str) -> EventExpr:
    stream = TokenStream(text, lambda m, p: EventExprError(f"{m} at {p}"))
    expr = _parse_alt(stream)
    if stream.current.kind != EOF:
        raise EventExprError(f"trailing input {stream.current.text!r}")
    return expr


def _parse_alt(s) -> EventExpr:
    return s.nary(lambda: _parse_cat(s), Union, ("|",))


def _parse_cat(s) -> EventExpr:
    parts = [_parse_rep(s)]
    while s.current.kind == IDENT or s.at_op("(", "!", "."):
        parts.append(_parse_rep(s))
    if len(parts) == 1:
        return parts[0]
    return Concat(tuple(parts))


def _parse_rep(s) -> EventExpr:
    base = _parse_base(s)
    while s.at_op("*", "?"):
        if s.advance().text == "*":
            base = Star(base)
        else:
            base = Optional_(base)
    return base


def _parse_base(s) -> EventExpr:
    if s.at_op("!"):
        s.advance()
        return Complement(_parse_rep(s))
    if s.at_op("."):
        s.advance()
        return AnyEvent()
    if s.at_op("("):
        s.advance()
        inner = _parse_alt(s)
        s.expect_op(")")
        return inner
    tok = s.current
    if tok.kind == IDENT:
        s.advance()
        return Atom(tok.text)
    raise EventExprError(f"unexpected token {tok.text!r}")


# ---------------------------------------------------------------------------
# Automata
# ---------------------------------------------------------------------------


class NFA:
    """Thompson-style NFA with epsilon transitions."""

    def __init__(self) -> None:
        self.transitions: list[dict[Optional[str], set[int]]] = []
        self.start = self._new_state()
        self.accepts: set[int] = set()

    def _new_state(self) -> int:
        self.transitions.append({})
        return len(self.transitions) - 1

    def add_edge(self, src: int, symbol: Optional[str], dst: int) -> None:
        self.transitions[src].setdefault(symbol, set()).add(dst)

    def eps_closure(self, states: Iterable[int]) -> frozenset[int]:
        out = set(states)
        stack = list(out)
        while stack:
            s = stack.pop()
            for nxt in self.transitions[s].get(None, ()):
                if nxt not in out:
                    out.add(nxt)
                    stack.append(nxt)
        return frozenset(out)


class DFA:
    """Total deterministic automaton over a fixed alphabet."""

    def __init__(
        self,
        alphabet: Sequence[str],
        transitions: list[dict[str, int]],
        start: int,
        accepts: set[int],
    ):
        self.alphabet = tuple(alphabet)
        self.transitions = transitions
        self.start = start
        self.accepts = set(accepts)

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def step(self, state: int, symbol: str) -> int:
        row = self.transitions[state]
        if symbol not in row:
            raise EventExprError(
                f"event {symbol!r} outside the declared alphabet"
            )
        return row[symbol]

    def accepts_word(self, word: Sequence[str]) -> bool:
        state = self.start
        for symbol in word:
            state = self.step(state, symbol)
        return state in self.accepts

    def complement(self) -> "DFA":
        return DFA(
            self.alphabet,
            [dict(row) for row in self.transitions],
            self.start,
            set(range(len(self.transitions))) - self.accepts,
        )

    def minimize(self) -> "DFA":
        """Moore partition refinement."""
        n = len(self.transitions)
        partition = [0 if s in self.accepts else 1 for s in range(n)]
        while True:
            signatures: dict[tuple, int] = {}
            next_partition = [0] * n
            for s in range(n):
                sig = (
                    partition[s],
                    tuple([
                        partition[self.transitions[s][a]] for a in self.alphabet
                    ]),
                )
                if sig not in signatures:
                    signatures[sig] = len(signatures)
                next_partition[s] = signatures[sig]
            if next_partition == partition:
                break
            partition = next_partition
        blocks = max(partition) + 1
        transitions: list[dict[str, int]] = [dict() for _ in range(blocks)]
        for s in range(n):
            b = partition[s]
            for a in self.alphabet:
                transitions[b][a] = partition[self.transitions[s][a]]
        accepts = {partition[s] for s in self.accepts}
        return DFA(self.alphabet, transitions, partition[self.start], accepts)


def _thompson(expr: EventExpr, alphabet: Sequence[str], nfa: NFA) -> tuple[int, int]:
    """Returns (entry, exit) states for ``expr`` wired into ``nfa``."""
    if isinstance(expr, Atom):
        if expr.name not in alphabet:
            raise EventExprError(
                f"event {expr.name!r} not in alphabet {list(alphabet)}"
            )
        a, b = nfa._new_state(), nfa._new_state()
        nfa.add_edge(a, expr.name, b)
        return a, b
    if isinstance(expr, AnyEvent):
        a, b = nfa._new_state(), nfa._new_state()
        for symbol in alphabet:
            nfa.add_edge(a, symbol, b)
        return a, b
    if isinstance(expr, Concat):
        first_in, prev_out = _thompson(expr.parts[0], alphabet, nfa)
        for part in expr.parts[1:]:
            nxt_in, nxt_out = _thompson(part, alphabet, nfa)
            nfa.add_edge(prev_out, None, nxt_in)
            prev_out = nxt_out
        return first_in, prev_out
    if isinstance(expr, Union):
        a, b = nfa._new_state(), nfa._new_state()
        for part in expr.parts:
            p_in, p_out = _thompson(part, alphabet, nfa)
            nfa.add_edge(a, None, p_in)
            nfa.add_edge(p_out, None, b)
        return a, b
    if isinstance(expr, Star):
        a, b = nfa._new_state(), nfa._new_state()
        p_in, p_out = _thompson(expr.inner, alphabet, nfa)
        nfa.add_edge(a, None, p_in)
        nfa.add_edge(p_out, None, p_in)
        nfa.add_edge(a, None, b)
        nfa.add_edge(p_out, None, b)
        return a, b
    if isinstance(expr, Optional_):
        a, b = nfa._new_state(), nfa._new_state()
        p_in, p_out = _thompson(expr.inner, alphabet, nfa)
        nfa.add_edge(a, None, p_in)
        nfa.add_edge(p_out, None, b)
        nfa.add_edge(a, None, b)
        return a, b
    if isinstance(expr, Complement):
        # complement needs a DFA: compile the inner expression fully,
        # complement, then splice back as a sub-automaton.
        inner_dfa = compile_event_expr(expr.inner, alphabet, minimize=False)
        comp = inner_dfa.complement()
        # embed the DFA into the NFA
        offset_states = {}
        for s in range(comp.state_count):
            offset_states[s] = nfa._new_state()
        exit_state = nfa._new_state()
        for s in range(comp.state_count):
            for symbol, dst in comp.transitions[s].items():
                nfa.add_edge(offset_states[s], symbol, offset_states[dst])
        for s in comp.accepts:
            nfa.add_edge(offset_states[s], None, exit_state)
        return offset_states[comp.start], exit_state
    raise EventExprError(f"unknown expression {expr!r}")


def compile_event_expr(
    expr: "EventExpr | str",
    alphabet: Sequence[str],
    minimize: bool = True,
) -> DFA:
    """Compile an event expression to a (total) DFA over ``alphabet``."""
    if isinstance(expr, str):
        expr = parse_event_expr(expr)
    nfa = NFA()
    entry, exit_state = _thompson(expr, alphabet, nfa)
    nfa.add_edge(nfa.start, None, entry)
    nfa.accepts = {exit_state}

    # subset construction (total: missing transitions go to a dead state)
    alphabet = tuple(alphabet)
    start = nfa.eps_closure({nfa.start})
    index: dict[frozenset, int] = {start: 0}
    transitions: list[dict[str, int]] = [{}]
    queue = [start]
    while queue:
        current = queue.pop()
        src = index[current]
        for symbol in alphabet:
            nxt: set[int] = set()
            for s in current:
                nxt |= nfa.transitions[s].get(symbol, set())
            closed = nfa.eps_closure(nxt)
            if closed not in index:
                index[closed] = len(transitions)
                transitions.append({})
                queue.append(closed)
            transitions[src][symbol] = index[closed]
    accepts = {
        i for subset, i in index.items() if subset & nfa.accepts
    }
    dfa = DFA(alphabet, transitions, 0, accepts)
    if minimize:
        dfa = dfa.minimize()
    return dfa


class EventExprDetector:
    """Incremental detector: feeds each occurring event to the DFA and
    reports acceptance — the EE counterpart of a PTL evaluator for pure
    event-ordering conditions.  Relative timing needs a ``clock_tick``
    event in the alphabet (Section 10 discusses why that is awkward)."""

    def __init__(self, expr: "EventExpr | str", alphabet: Sequence[str]):
        self.dfa = compile_event_expr(expr, alphabet)
        self.state = self.dfa.start
        self.steps = 0

    def feed(self, event_name: str) -> bool:
        self.state = self.dfa.step(self.state, event_name)
        self.steps += 1
        return self.state in self.dfa.accepts

    def step(self, system_state) -> bool:
        """Feed all events of a system state (in sorted-name order)."""
        fired = False
        for name in sorted(e.name for e in system_state.events):
            if name in self.dfa.alphabet:
                fired = self.feed(name)
        return fired

    def state_size(self) -> int:
        return self.dfa.state_count
