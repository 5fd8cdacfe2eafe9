"""Property-based tests (hypothesis).

The headline property is the paper's THEOREM 1: "the algorithm fires the
trigger after the i-th update iff the formula f is satisfied at state s_i"
— checked as equivalence between the incremental evaluator and the
reference semantics on random (formula, history) pairs, at every position,
with and without the Section 5 optimization, plus answer-set agreement on
ground bindings.
"""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import NaiveDetector
from repro.datamodel import INT, Relation, Schema
from repro.engine import ActiveDatabase
from repro.events.model import user_event
from repro.ptl import IncrementalEvaluator, answers, ast, satisfies
from repro.ptl import constraints as cs
from repro.ptl.context import EvalContext
from repro.ptl.optimize import prune_time_bounds
from repro.rules import RecordingAction
from repro.workloads.generator import (
    contains_aggregate,
    random_aggregate_pair,
    random_history,
    random_pair,
)

# Example counts come from the hypothesis profile registered in
# tests/conftest.py (``ci`` by default, ``nightly`` via
# HYPOTHESIS_PROFILE=nightly).


def incremental_run(formula, history, optimize):
    ev = IncrementalEvaluator(formula, EvalContext(), optimize=optimize)
    return [ev.step(state) for state in history]


def reference_run(formula, history):
    return [
        answers(history.states, i, formula) for i in range(len(history))
    ]


#: Literals that ``==`` calls equal (1, 1.0, True; -0.0, 0.0) or that
#: equal nothing (NaN): a condition holds the one it was written with.
TYPED_LITERALS = (1, 1.0, True, -0.0, 0.0, math.nan)


def exact(bindings) -> list:
    """Bindings with each value's type, ``-0.0`` apart from ``0.0``."""
    return sorted(
        (name, type(value).__name__, repr(value))
        for binding in bindings
        for name, value in binding.items()
    )


def typed_conditions(literal):
    """Conditions in which ``X`` has one candidate: the literal, or the
    parameter of an ``@e`` event."""
    x, c = ast.Var("X"), ast.ConstT(literal)
    event = ast.EventAtom("e", (x,))
    return [
        ast.And((ast.EventAtom("go", ()), ast.Comparison("=", x, c))),
        ast.Previously(event),
        ast.And((event, ast.Comparison("!=", x, c))),
        ast.And((ast.Previously(event), ast.Comparison("<=", x, c))),
    ]


class TypedEngine:
    """An engine whose rules read the given literals, and each rule's
    firings by state."""

    def __init__(self, literals):
        self.adb = ActiveDatabase()
        manager = self.adb.rule_manager()
        self.rules = {}
        for i, literal in enumerate(literals):
            for j, formula in enumerate(typed_conditions(literal)):
                action = RecordingAction()
                manager.add_trigger(f"r{i}_{j}", formula, action)
                self.rules[f"r{i}_{j}"] = (formula, action)

    def post(self, *events):
        for event in events:
            self.adb.post_event(event)

    def check_against_reference(self):
        states = self.adb.history.states
        for name, (formula, action) in self.rules.items():
            for i, state in enumerate(states):
                got = [b for b, ts in action.calls if ts == state.timestamp]
                want = answers(states, i, formula)
                assert exact(got) == exact(want), (
                    f"{name}: {formula} at position {i}: fired {got}, "
                    f"the reference semantics answers {want}"
                )


class TestTheorem1:
    @given(seed=st.integers(0, 10_000))
    def test_incremental_matches_reference(self, seed):
        formula, history = random_pair(seed, length=10, max_depth=3)
        inc = incremental_run(formula, history, optimize=True)
        ref = reference_run(formula, history)
        for i, (r_inc, r_ref) in enumerate(zip(inc, ref)):
            assert r_inc.fired == bool(r_ref), (
                f"divergence at position {i}: incremental={r_inc.fired} "
                f"reference={bool(r_ref)}\nformula: {formula}\n"
                f"states: {[str(s) for s in history.states[: i + 1]]}"
            )

    @given(seed=st.integers(0, 10_000))
    def test_optimization_preserves_firings(self, seed):
        formula, history = random_pair(seed, length=10, max_depth=3)
        opt = incremental_run(formula, history, optimize=True)
        raw = incremental_run(formula, history, optimize=False)
        assert [r.fired for r in opt] == [r.fired for r in raw]

    @given(seed=st.integers(0, 10_000))
    def test_optimization_never_grows_state(self, seed):
        formula, history = random_pair(seed, length=10, max_depth=3)
        ev_opt = IncrementalEvaluator(formula, optimize=True)
        ev_raw = IncrementalEvaluator(formula, optimize=False)
        for state in history:
            ev_opt.step(state)
            ev_raw.step(state)
            assert ev_opt.state_size() <= ev_raw.state_size()

    @given(seed=st.integers(0, 10_000))
    def test_incremental_bindings_satisfy_reference(self, seed):
        """Every binding the incremental evaluator reports satisfies the
        formula under the reference semantics.  Variables the state
        formula no longer constrains (simplified away) are filled with
        the FRESH 'any value' witness."""
        from repro.ptl import free_variables

        formula, history = random_pair(seed, length=8, max_depth=3)
        free = free_variables(formula)
        ev = IncrementalEvaluator(formula)
        for i, state in enumerate(history):
            result = ev.step(state)
            for binding in result.bindings:
                env = {name: cs.FRESH for name in free}
                env.update(binding)
                assert satisfies(history.states, i, formula, env), (
                    f"binding {binding} at position {i} does not satisfy "
                    f"{formula}"
                )

    @given(seed=st.integers(0, 5_000))
    def test_theorem1_with_executed_predicate(self, seed):
        """Equivalence extends to conditions over the executed store
        (Section 7), shared by both evaluators via the context."""
        from repro.workloads.generator import random_executed_store

        formula, history = random_pair(
            seed, length=8, max_depth=2, allow_executed=True
        )
        ctx = EvalContext(executed=random_executed_store(seed))
        ev = IncrementalEvaluator(formula, ctx)
        for i, state in enumerate(history):
            fired = ev.step(state).fired
            expected = bool(answers(history.states, i, formula, ctx))
            assert fired == expected, (
                f"divergence at {i}: {formula}\n"
                f"records: {ctx.executed.records()}"
            )

    @given(seed=st.integers(0, 5_000))
    def test_theorem1_with_aggregates(self, seed):
        formula, history = random_pair(
            seed, length=8, max_depth=2, allow_aggregates=True
        )
        inc = incremental_run(formula, history, optimize=True)
        ref = reference_run(formula, history)
        assert [r.fired for r in inc] == [bool(r) for r in ref]

    @given(seed=st.integers(0, 5_000))
    def test_naive_vs_incremental_with_aggregates(self, seed):
        """Differential test against the naive full-history detector on
        formulas guaranteed to contain a temporal aggregate — including
        moving-window aggregates whose starting formula references an
        outer time variable (Section 6's hourly average shape)."""
        formula, history = random_aggregate_pair(seed, length=8, max_depth=2)
        assert contains_aggregate(formula)
        ev = IncrementalEvaluator(formula)
        naive = NaiveDetector(formula)
        for i, state in enumerate(history):
            fired_inc = ev.step(state).fired
            fired_naive = naive.step(state).fired
            assert fired_inc == fired_naive, (
                f"divergence at position {i}: incremental={fired_inc} "
                f"naive={fired_naive}\nformula: {formula}"
            )

    @given(seed=st.integers(0, 10_000))
    def test_snapshot_restore_is_transparent(self, seed):
        """Trial evaluation (used by integrity constraints): snapshot,
        step, restore, step again — same outcome as stepping directly."""
        formula, history = random_pair(seed, length=8, max_depth=3)
        ev = IncrementalEvaluator(formula)
        plain = IncrementalEvaluator(formula)
        for state in history:
            snap = ev.snapshot()
            first = ev.step(state)
            ev.restore(snap)
            second = ev.step(state)
            direct = plain.step(state)
            assert first.fired == second.fired == direct.fired


    def test_equal_literals_of_other_types_share_no_plan_node(self):
        """``X = 1.0`` registered first, then ``X = 1``, in one plan:
        each rule binds its own literal."""
        engine = TypedEngine([1.0, 1])
        engine.post(user_event("go"))
        engine.check_against_reference()
        calls = engine.rules["r1_0"][1].calls
        assert exact([b for b, _ in calls]) == [("X", "int", "1")]

    @pytest.mark.parametrize("second", [1, True])
    def test_an_engine_does_not_bind_another_engines_constant(self, second):
        """Engine A sees ``@e(1.0)``; engine B, alive beside it, sees
        ``@e(1)`` (or ``@e(True)``) and binds that value."""
        first = TypedEngine([0.0])
        first.post(user_event("e", 1.0))
        engine = TypedEngine([0.0])
        engine.post(user_event("e", second))
        first.check_against_reference()
        engine.check_against_reference()
        calls = engine.rules["r0_1"][1].calls
        assert [repr(b["X"]) for b, _ in calls] == [repr(second)]

    def test_one_history_keeps_equal_values_of_other_types_apart(self):
        """``previously @e(X)`` after ``@e(1.0)`` and then ``@e(1)``
        binds both values, as the reference semantics does."""
        engine = TypedEngine([0.0])
        engine.post(user_event("e", 1.0), user_event("e", 1))
        engine.check_against_reference()
        last = engine.adb.history.states[-1].timestamp
        calls = engine.rules["r0_1"][1].calls
        assert exact([b for b, ts in calls if ts == last]) == [
            ("X", "float", "1.0"),
            ("X", "int", "1"),
        ]

    @given(
        literals=st.lists(
            st.sampled_from(TYPED_LITERALS), min_size=1, max_size=4
        ),
        params=st.lists(
            st.sampled_from(TYPED_LITERALS), min_size=1, max_size=3
        ),
    )
    def test_literals_of_every_type(self, literals, params):
        """Rules over literals of every type, in one plan, across engines
        alive in one process (one per event parameter) and in one engine
        that sees every parameter, bind what the reference semantics
        answers, type and sign included."""
        engines = []
        for param in params:
            engine = TypedEngine(literals)
            engine.post(
                user_event("go"),
                user_event("e", param),
                user_event("go"),
            )
            engines.append(engine)
        shared = TypedEngine(literals)
        for param in params:
            shared.post(user_event("e", param), user_event("go"))
        engines.append(shared)
        for engine in engines:
            engine.check_against_reference()


class TestConstraintProperties:
    @given(
        values=st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            min_size=1,
            max_size=6,
        ),
        env_x=st.integers(-10, 10),
        env_t=st.integers(-10, 10),
    )
    def test_simplification_preserves_semantics(self, values, env_x, env_t):
        """cand/cor/cnot over random atoms evaluate like plain boolean
        logic."""
        rng = random.Random(42)
        atoms = [
            cs.catom(
                rng.choice(["<", "<=", "=", ">", ">="]),
                cs.SVar("x"),
                cs.SConst(a),
            )
            for a, _ in values
        ]
        formula = cs.cor(
            [cs.cand(atoms[: len(atoms) // 2 + 1]), cs.cnot(atoms[0])]
        )
        env = {"x": env_x, "t": env_t}
        direct = cs.evaluate(formula, env)
        # brute-force: evaluate atoms then combine
        atom_vals = [cs.evaluate(a, env) if not isinstance(a, cs.CBool) else (a is cs.CTRUE) for a in atoms]
        expected = all(atom_vals[: len(atoms) // 2 + 1]) or (not atom_vals[0])
        assert direct == expected

    @given(
        seed=st.integers(0, 10_000),
        now=st.integers(0, 30),
    )
    def test_pruning_sound_for_future_bindings(self, seed, now):
        """prune_time_bounds(F, now, {t}) and F agree on any env binding t
        to a value strictly greater than now."""
        rng = random.Random(seed)
        atoms = []
        for _ in range(rng.randint(1, 5)):
            op = rng.choice(["<", "<=", "=", "!=", ">", ">="])
            side = rng.randrange(3)
            if side == 0:
                atoms.append(cs.catom(op, cs.SVar("t"), cs.SConst(rng.randint(0, 40))))
            elif side == 1:
                atoms.append(cs.catom(op, cs.SVar("x"), cs.SConst(rng.randint(0, 40))))
            else:
                atoms.append(cs.CBool(rng.random() < 0.5))
        formula = cs.cor([cs.cand(atoms[:2]), cs.cand(atoms[2:])]) if len(atoms) > 2 else cs.cand(atoms)
        pruned = prune_time_bounds(formula, now, {"t"})
        for t in (now + 1, now + 3, now + 10):
            for x in (0, 20, 41):
                env = {"t": t, "x": x}
                assert cs.evaluate(formula, env) == cs.evaluate(pruned, env)


class TestHistoryGenerator:
    @given(seed=st.integers(0, 1000), length=st.integers(1, 20))
    def test_random_history_well_formed(self, seed, length):
        h = random_history(random.Random(seed), length)
        assert len(h) == length
        ts = [s.timestamp for s in h]
        assert ts == sorted(ts) and len(set(ts)) == length
