"""Random workloads: histories and PTL formulas for property testing.

The Theorem 1 property test ("the algorithm fires the trigger after the
i-th update iff the formula f is satisfied at state s_i") draws random
(formula, history) pairs from these generators and compares the
incremental evaluator against the reference semantics at every position.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.datamodel.relation import Relation
from repro.datamodel.schema import Schema
from repro.datamodel.types import ValueType
from repro.events.model import Event
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.ptl import ast
from repro.query import ast as qast
from repro.storage.snapshot import DatabaseState

#: Event alphabet for random histories/formulas: name -> arity.
EVENT_ALPHABET: dict[str, int] = {"e0": 0, "e1": 1, "e2": 1, "e3": 0}

#: Parameter pool for unary events.
PARAM_POOL = [1, 2, 3, "a", "b"]

#: Scalar item varied along random histories.
ITEM = "V"

_V_QUERY = qast.ItemRef(ITEM)
_TIME_QUERY = qast.ItemRef("time")


def random_history(rng: random.Random, length: int) -> SystemHistory:
    """A history of ``length`` states: each state carries 1-2 events from
    the alphabet and a fresh value of the scalar item V; timestamps advance
    by 1-3 units."""
    history = SystemHistory(validate_transaction_time=False)
    ts = 0
    for _ in range(length):
        ts += rng.randint(1, 3)
        events = []
        for _ in range(rng.randint(1, 2)):
            name = rng.choice(sorted(EVENT_ALPHABET))
            arity = EVENT_ALPHABET[name]
            params = tuple([rng.choice(PARAM_POOL) for _ in range(arity)])
            events.append(Event(name, params))
        db = DatabaseState({ITEM: rng.randint(0, 10)})
        history.append(SystemState(db, events, ts))
    return history


class FormulaGenerator:
    """Random PTL formulas over the shared event alphabet and item V.

    Generated formulas are safe by construction: free variables only come
    from event-atom (and executed-atom) argument positions.  Assignment-
    bound variables are drawn from V or time; aggregates and ``executed``
    atoms are optionally included (the latter match rules ``r0``/``r1``
    against whatever execution records the test seeds).
    """

    def __init__(
        self,
        rng: random.Random,
        max_depth: int = 4,
        allow_aggregates: bool = False,
        allow_executed: bool = False,
        allow_windowed_aggregates: bool = False,
    ):
        self.rng = rng
        self.max_depth = max_depth
        self.allow_aggregates = allow_aggregates
        self.allow_executed = allow_executed
        self.allow_windowed_aggregates = allow_windowed_aggregates
        self._var_counter = 0

    def formula(self) -> ast.Formula:
        return self._formula(self.max_depth, scope=())

    # -- internals ------------------------------------------------------------

    def _fresh_var(self, hint: str) -> str:
        self._var_counter += 1
        return f"{hint}{self._var_counter}"

    def _formula(
        self,
        depth: int,
        scope: tuple[str, ...],
        time_scope: tuple[str, ...] = (),
    ) -> ast.Formula:
        # ``time_scope`` tracks assignment variables bound to ``time`` that
        # are still *available* at this position — the evaluator's safety
        # rule resets availability under temporal operators, so windowed
        # aggregates (whose starting formula references such a variable)
        # may only be generated where one is live.
        rng = self.rng
        if depth <= 0:
            return self._atom(scope, time_scope)
        choice = rng.randrange(10)
        if choice <= 2:
            return self._atom(scope, time_scope)
        if choice == 3:
            return ast.Not(self._formula(depth - 1, scope, time_scope))
        if choice == 4:
            return ast.And(
                tuple([
                    self._formula(depth - 1, scope, time_scope)
                    for _ in range(2)
                ])
            )
        if choice == 5:
            return ast.Or(
                tuple([
                    self._formula(depth - 1, scope, time_scope)
                    for _ in range(2)
                ])
            )
        if choice == 6:
            return ast.Since(
                self._formula(depth - 1, scope),
                self._formula(depth - 1, scope),
            )
        if choice == 7:
            return ast.Lasttime(self._formula(depth - 1, scope))
        if choice == 8:
            op = rng.choice([ast.Previously, ast.ThroughoutPast])
            window = rng.choice([None, None, rng.randint(2, 8)])
            return op(self._formula(depth - 1, scope), window)
        # assignment operator
        var = self._fresh_var("x")
        query = rng.choice([_V_QUERY, _TIME_QUERY])
        new_time_scope = (
            time_scope + (var,) if query is _TIME_QUERY else time_scope
        )
        return ast.Assign(
            var,
            query,
            self._formula(depth - 1, scope + (var,), new_time_scope),
        )

    def _atom(
        self,
        scope: tuple[str, ...],
        time_scope: tuple[str, ...] = (),
    ) -> ast.Formula:
        rng = self.rng
        choice = rng.randrange(8)
        if choice <= 1:
            # event atom, possibly binding a free variable
            name = rng.choice(sorted(EVENT_ALPHABET))
            arity = EVENT_ALPHABET[name]
            args: list[ast.Term] = []
            for _ in range(arity):
                kind = rng.randrange(3)
                if kind == 0:
                    args.append(ast.ConstT(rng.choice(PARAM_POOL)))
                elif kind == 1 and scope:
                    args.append(ast.Var(rng.choice(scope)))
                else:
                    args.append(ast.Var(self._fresh_var("u")))
            return ast.EventAtom(name, tuple(args))
        if choice == 2 and self.allow_aggregates:
            return self._aggregate_atom(time_scope)
        if choice == 3 and self.allow_executed:
            rule = rng.choice(["r0", "r1"])
            if rng.random() < 0.5:
                time_term: ast.Term = ast.Var(self._fresh_var("et"))
            else:
                time_term = ast.ConstT(rng.randint(0, 20))
            args: tuple[ast.Term, ...] = ()
            if rng.random() < 0.5:
                args = (
                    ast.Var(self._fresh_var("ep"))
                    if rng.random() < 0.5
                    else ast.ConstT(rng.choice(PARAM_POOL)),
                )
            return ast.ExecutedAtom(rule, args, time_term)
        if choice == 3:
            return rng.choice([ast.TRUE, ast.FALSE])
        # comparison
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return ast.Comparison(op, self._term(scope), self._term(scope))

    def _term(self, scope: tuple[str, ...], depth: int = 1) -> ast.Term:
        rng = self.rng
        choice = rng.randrange(6)
        if choice == 0:
            return ast.ConstT(rng.randint(0, 10))
        if choice == 1 and scope:
            return ast.Var(rng.choice(scope))
        if choice == 2:
            return ast.QueryT(_V_QUERY)
        if choice == 3:
            return ast.QueryT(_TIME_QUERY)
        if depth > 0:
            op = rng.choice(["+", "-", "*"])
            return ast.FuncT(
                op, (self._term(scope, depth - 1), self._term(scope, depth - 1))
            )
        return ast.ConstT(rng.randint(0, 10))

    def _aggregate_atom(self, time_scope: tuple[str, ...] = ()) -> ast.Formula:
        rng = self.rng
        func = rng.choice(["sum", "count", "avg", "min", "max"])
        if (
            self.allow_windowed_aggregates
            and time_scope
            and rng.random() < 0.5
        ):
            # moving-window aggregate (Section 6's hourly average): the
            # starting formula references an outer time variable, so the
            # window slides with the current state
            start: ast.Formula = ast.Comparison(
                ">=",
                ast.QueryT(_TIME_QUERY),
                ast.FuncT(
                    "-",
                    (
                        ast.Var(rng.choice(time_scope)),
                        ast.ConstT(rng.randint(2, 8)),
                    ),
                ),
            )
        else:
            start = ast.EventAtom(rng.choice(["e0", "e3"]))
        sample = rng.choice(
            [
                ast.EventAtom(rng.choice(["e0", "e3"])),
                ast.TRUE,
            ]
        )
        agg = ast.AggT(func, _V_QUERY, start, sample)
        return ast.Comparison(
            rng.choice(["<", "<=", ">", ">="]),
            agg,
            ast.ConstT(rng.randint(0, 30)),
        )


class BoundedFormulaGenerator(FormulaGenerator):
    """Random formulas built only from *bounded* temporal operators —
    ``lasttime`` and windowed ``previously``/``throughout_past`` (never
    unbounded ``since``/``previously``, never aggregates).

    Every such formula keeps only a bounded slice of the past, so under
    the Section 5 optimization the incremental evaluator's state size must
    stay bounded along any history — the property the bounded-memory tests
    assert through the ``evaluator_state_size`` gauges.
    """

    def __init__(self, rng: random.Random, max_depth: int = 3):
        super().__init__(
            rng, max_depth, allow_aggregates=False, allow_executed=False
        )

    def _formula(
        self,
        depth: int,
        scope: tuple[str, ...],
        time_scope: tuple[str, ...] = (),
    ) -> ast.Formula:
        rng = self.rng
        if depth <= 0:
            return self._atom(scope, time_scope)
        choice = rng.randrange(9)
        if choice <= 1:
            return self._atom(scope, time_scope)
        if choice == 2:
            return ast.Not(self._formula(depth - 1, scope, time_scope))
        if choice == 3:
            return ast.And(
                tuple([
                    self._formula(depth - 1, scope, time_scope)
                    for _ in range(2)
                ])
            )
        if choice == 4:
            return ast.Or(
                tuple([
                    self._formula(depth - 1, scope, time_scope)
                    for _ in range(2)
                ])
            )
        if choice == 5:
            return ast.Lasttime(self._formula(depth - 1, scope))
        if choice in (6, 7):
            op = rng.choice([ast.Previously, ast.ThroughoutPast])
            return op(self._formula(depth - 1, scope), rng.randint(2, 8))
        var = self._fresh_var("x")
        query = rng.choice([_V_QUERY, _TIME_QUERY])
        new_time_scope = (
            time_scope + (var,) if query is _TIME_QUERY else time_scope
        )
        return ast.Assign(
            var,
            query,
            self._formula(depth - 1, scope + (var,), new_time_scope),
        )


def contains_aggregate(formula: ast.Formula) -> bool:
    """True iff the formula has at least one temporal-aggregate term."""

    def term_has(term: ast.Term) -> bool:
        if isinstance(term, ast.AggT):
            return True
        if isinstance(term, ast.FuncT):
            return any(term_has(a) for a in term.args)
        return False

    def rec(f: ast.Formula) -> bool:
        if isinstance(f, ast.Comparison):
            return term_has(f.left) or term_has(f.right)
        if isinstance(f, ast.Not):
            return rec(f.operand)
        if isinstance(f, (ast.And, ast.Or)):
            return any(rec(c) for c in f.operands)
        if isinstance(f, ast.Since):
            return rec(f.lhs) or rec(f.rhs)
        if isinstance(f, (ast.Lasttime, ast.Previously, ast.ThroughoutPast)):
            return rec(f.operand)
        if isinstance(f, ast.Assign):
            return rec(f.body)
        return False

    return rec(formula)


def random_formula(
    seed: int, max_depth: int = 4, allow_aggregates: bool = False
) -> ast.Formula:
    rng = random.Random(seed)
    return FormulaGenerator(rng, max_depth, allow_aggregates).formula()


def random_pair(
    seed: int,
    length: int = 12,
    max_depth: int = 4,
    allow_aggregates: bool = False,
    allow_executed: bool = False,
):
    """A (formula, history) pair from one seed."""
    rng = random.Random(seed)
    gen = FormulaGenerator(rng, max_depth, allow_aggregates, allow_executed)
    formula = gen.formula()
    history = random_history(rng, length)
    return formula, history


def random_bounded_pair(seed: int, length: int = 40, max_depth: int = 3):
    """A (bounded-operator formula, history) pair from one seed — the
    input for the bounded-memory property tests."""
    rng = random.Random(seed)
    gen = BoundedFormulaGenerator(rng, max_depth)
    formula = gen.formula()
    history = random_history(rng, length)
    return formula, history


def random_aggregate_pair(
    seed: int,
    length: int = 8,
    max_depth: int = 2,
    windowed: bool = True,
):
    """Like :func:`random_pair` with aggregates enabled, but guaranteed to
    contain at least one temporal-aggregate term (random drawing alone
    leaves most formulas aggregate-free).  With ``windowed=True`` the
    generator may also produce moving-window aggregates whose starting
    formula references an outer time variable."""
    rng = random.Random(seed)
    gen = FormulaGenerator(
        rng,
        max_depth,
        allow_aggregates=True,
        allow_windowed_aggregates=windowed,
    )
    formula = gen.formula()
    if not contains_aggregate(formula):
        # conjoin/disjoin a fresh aggregate atom at the top
        atom = gen._aggregate_atom()
        formula = (
            ast.And((formula, atom))
            if rng.random() < 0.5
            else ast.Or((formula, atom))
        )
    history = random_history(rng, length)
    return formula, history


def random_future_formula(seed: int, max_depth: int = 3):
    """A random future formula (repro.ptl.future) whose atoms are ground
    past-PTL formulas over the shared alphabet — for monitor-vs-reference
    property tests."""
    from repro.ptl import future as fut

    rng = random.Random(seed ^ 0xF00D)

    def atom():
        kind = rng.randrange(3)
        if kind == 0:
            return fut.Atom(ast.EventAtom(rng.choice(sorted(EVENT_ALPHABET))))
        if kind == 1:
            return fut.Atom(
                ast.Comparison(
                    rng.choice(["<", "<=", ">", ">=", "=", "!="]),
                    ast.QueryT(_V_QUERY),
                    ast.ConstT(rng.randint(0, 10)),
                )
            )
        return fut.Atom(
            ast.Previously(ast.EventAtom(rng.choice(sorted(EVENT_ALPHABET))))
        )

    def rec(depth):
        if depth <= 0:
            return atom()
        choice = rng.randrange(8)
        if choice == 0:
            return fut.fnot(rec(depth - 1))
        if choice == 1:
            return fut.fand([rec(depth - 1), rec(depth - 1)])
        if choice == 2:
            return fut.for_([rec(depth - 1), rec(depth - 1)])
        if choice == 3:
            return fut.Next(rec(depth - 1))
        if choice == 4:
            return fut.Until(rec(depth - 1), rec(depth - 1))
        if choice == 5:
            window = rng.choice([None, rng.randint(2, 10)])
            return fut.Eventually(rec(depth - 1), window)
        if choice == 6:
            window = rng.choice([None, rng.randint(2, 10)])
            return fut.Always(rec(depth - 1), window)
        return atom()

    return rec(max_depth)


def random_executed_store(seed: int):
    """An execution store with a few r0/r1 records (0- and 1-ary) whose
    times fall inside the timestamp range of :func:`random_history`."""
    from repro.ptl.context import ExecutedStore

    rng = random.Random(seed ^ 0xE0E0)
    store = ExecutedStore()
    for _ in range(rng.randint(2, 6)):
        rule = rng.choice(["r0", "r1"])
        params = () if rng.random() < 0.5 else (rng.choice(PARAM_POOL),)
        store.record(rule, params, rng.randint(0, 20))
    return store
