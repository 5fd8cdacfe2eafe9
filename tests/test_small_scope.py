"""Theorem 1 at small scope, exhaustively.

Every formula up to a size over a tiny vocabulary — the comparison atom
``x > 0`` over a scalar item, the event atom ``@e``, ``true``, and inside
one ``[t := time]`` assignment the bounded time test ``time >= t - 2`` —
under ``!``, ``&``, ``lasttime``, ``since`` and ``previously[2]``, is
registered as a rule of *one* :class:`~repro.ptl.plan.SharedPlan`, so
the rules share subformulas as a rule set does.  Every trace up to a
length over four valuations per state (``x`` 0 or 1, ``@e`` absent or
present) is then walked as a trie: each prefix is stepped once, and
``snapshot()`` / ``restore()`` branch to its siblings.  At every trie
node each rule's result must equal :func:`repro.ptl.semantics.satisfies`
over the prefix (Theorem 1: the incremental algorithm of Section 5
answers what the declarative semantics says).

Unlike the hypothesis rows, nothing is sampled: a formula or trace of
the vocabulary that disagrees cannot be missed.  The tier-1 slice is
size ≤ 4 and length ≤ 4; the deep slice (size ≤ 5, length ≤ 5) is
marked ``deep`` and runs with ``python -m pytest -m deep
tests/test_small_scope.py``.
"""

import pytest

from repro.events import user_event
from repro.history.state import SystemState
from repro.ptl import SharedPlan, ast, parse_formula, satisfies
from repro.ptl.rewrite import normalize
from repro.storage.snapshot import DatabaseState

ITEMS = ("x",)
ATOMS = [
    parse_formula(text, items=ITEMS) for text in ("x > 0", "@e", "true")
]
#: Meaningful only where ``t`` is bound: under the one assignment.
TIME_TEST = parse_formula("time >= t - 2")
TIME = parse_formula("[t := time] true").query
WINDOW = 2
UNARY = (
    ast.Not,
    ast.Lasttime,
    lambda f: ast.Previously(f, window=WINDOW),
)
BINARY = (lambda a, b: ast.And((a, b)), ast.Since)
#: Timestamps by trace position: gaps of 1, 2, 3, 4, so the window and
#: the time test hold across some steps and not others.
TIMESTAMPS = (1, 2, 4, 7, 11)
DBS = {x: DatabaseState({"x": x}) for x in (0, 1)}
EVENTS = {False: (), True: (user_event("e"),)}
VALUATIONS = [(x, e) for x in (0, 1) for e in (False, True)]


def formulas(size, bound=False, memo=None):
    """Every formula of exactly ``size`` AST nodes.  ``bound``: under the
    assignment, where the time test is an atom and no second assignment
    may appear."""
    memo = {} if memo is None else memo
    key = (size, bound)
    if key not in memo:
        if size == 1:
            out = ATOMS + [TIME_TEST] if bound else list(ATOMS)
        else:
            out = [
                op(f) for op in UNARY for f in formulas(size - 1, bound, memo)
            ]
            for left in range(1, size - 1):
                for a in formulas(left, bound, memo):
                    for b in formulas(size - 1 - left, bound, memo):
                        out.extend(op(a, b) for op in BINARY)
            if not bound:
                out.extend(
                    ast.Assign("t", TIME, f)
                    for f in formulas(size - 1, True, memo)
                )
        memo[key] = out
    return memo[key]


def corpus(max_size):
    memo = {}
    return [
        f for n in range(1, max_size + 1) for f in formulas(n, memo=memo)
    ]


def oracle_form(f):
    """``f`` with each ``previously`` replaced by its normal form, which
    is what :func:`satisfies` evaluates a ``previously`` as on every
    call: the same answers, with the rewrite run once per formula
    instead of once per check."""
    if isinstance(f, ast.Previously):
        return normalize(f)
    if isinstance(f, (ast.Not, ast.Lasttime)):
        return type(f)(oracle_form(f.operand))
    if isinstance(f, ast.And):
        return ast.And(tuple(map(oracle_form, f.operands)))
    if isinstance(f, ast.Since):
        return ast.Since(oracle_form(f.lhs), oracle_form(f.rhs))
    if isinstance(f, ast.Assign):
        return ast.Assign(f.var, f.query, oracle_form(f.body))
    return f


def walk(plan, rules, max_length):
    """Step every trace up to ``max_length`` as a trie and check every
    rule at every node; returns (trie edges, checks)."""
    trace = []
    counts = [0, 0]

    def visit():
        depth = len(trace)
        prev = trace[-1] if trace else None
        for x, e in VALUATIONS:
            state = SystemState(
                DBS[x],
                EVENTS[e],
                TIMESTAMPS[depth],
                index=depth,
                delta=None if prev is None else frozenset(
                    () if prev.db is DBS[x] else ITEMS
                ),
            )
            snap = plan.snapshot()
            plan.step(state)
            trace.append(state)
            counts[0] += 1
            for name, f, oracle in rules:
                fired = plan.result_of(name).fired
                assert fired == satisfies(trace, depth, oracle), (
                    f"{name} = {f} at trace "
                    f"{[(s.db.item('x'), bool(s.events)) for s in trace]}: "
                    f"plan says {fired}"
                )
            counts[1] += len(rules)
            if depth + 1 < max_length:
                visit()
            trace.pop()
            plan.restore(snap)

    visit()
    return tuple(counts)


def check_slice(max_size, max_length):
    fs = corpus(max_size)
    plan = SharedPlan()
    rules = [(f"r{i}", f, oracle_form(f)) for i, f in enumerate(fs)]
    for name, f, _ in rules:
        plan.add_rule(name, f)
    edges, checks = walk(plan, rules, max_length)
    assert edges == sum(
        len(VALUATIONS) ** k for k in range(1, max_length + 1)
    )
    assert checks == edges * len(fs)
    normal_forms = {id(entry.root) for entry in plan._rules.values()}
    return len(fs), len(normal_forms), edges, checks


def test_corpus_counts():
    """The core (two atoms, five operators) has 2, 6, 26, 126 formulas
    of sizes 1–4; ``true`` and the assignment grow that."""
    def core(n):
        if n == 1:
            return 2
        return len(UNARY) * core(n - 1) + len(BINARY) * sum(
            core(k) * core(n - 1 - k) for k in range(1, n - 1)
        )

    assert [core(n) for n in range(1, 5)] == [2, 6, 26, 126]
    assert [len(formulas(n)) for n in range(1, 5)] == [3, 13, 69, 431]


def test_small_scope_slice():
    count, normal_forms, edges, checks = check_slice(4, 4)
    assert (count, edges, checks) == (516, 340, 175_440)
    # The plan compiles one root per hash-consed normal form; over this
    # vocabulary the rewrite to normal form identifies no two formulas.
    assert normal_forms == count


@pytest.mark.deep
def test_deep_slice():
    count, normal_forms, edges, checks = check_slice(5, 5)
    assert (count, edges, checks) == (3371, 1364, 4_598_044)
    assert normal_forms == count
