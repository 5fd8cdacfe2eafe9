"""Unit tests for the state-formula (constraint) layer."""

import gc
import weakref
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.ptl import IncrementalEvaluator, parse_formula
from repro.ptl import constraints as cs
from repro.ptl.compiled import (
    _apply_steps,
    _atom_builder,
    _fast_subst,
    _partial_normalize,
    _specialization_agrees,
)
from repro.ptl.optimize import prune_time_bounds
from repro.workloads import (
    SHARP_INCREASE,
    random_walk_trace,
    stock_query_registry,
    trace_history,
)
from repro.workloads.generator import random_bounded_pair


def atom(op, left, right):
    return cs.catom(op, left, right)


X = cs.SVar("x")
T = cs.SVar("t")


class TestFolding:
    def test_ground_atom_folds(self):
        assert atom("<=", cs.SConst(3), cs.SConst(5)) is cs.CTRUE
        assert atom(">", cs.SConst(3), cs.SConst(5)) is cs.CFALSE

    def test_incomparable_atom_is_false(self):
        assert atom("<", cs.SConst("a"), cs.SConst(3)) is cs.CFALSE

    def test_cross_type_equality(self):
        assert atom("=", cs.SConst("a"), cs.SConst(3)) is cs.CFALSE
        assert atom("!=", cs.SConst("a"), cs.SConst(3)) is cs.CTRUE

    def test_sapp_folds_constants(self):
        t = cs.sapp("*", (cs.SConst(2), cs.SConst(21)))
        assert t == cs.SConst(42)

    def test_sapp_stays_symbolic(self):
        t = cs.sapp("*", (cs.SConst(2), X))
        assert isinstance(t, cs.SApp)


class TestLinearNormalization:
    def test_const_on_left_flips(self):
        a = atom("<=", cs.SConst(11), X)
        assert a == cs.CAtom(">=", X, cs.SConst(11))

    def test_multiplicative_paper_case(self):
        # 11 <= 0.5*x  ->  x >= 22  (the paper's F_{h,4})
        a = atom("<=", cs.SConst(11), cs.sapp("*", (cs.SConst(0.5), X)))
        assert a == cs.CAtom(">=", X, cs.SConst(22))

    def test_additive_paper_case(self):
        # 20 >= t - 10  ->  t <= 30  (the paper's F_{h,4})
        a = atom(">=", cs.SConst(20), cs.sapp("-", (T, cs.SConst(10))))
        assert a == cs.CAtom("<=", T, cs.SConst(30))

    def test_negative_coefficient_flips(self):
        # -2*x <= 6  ->  x >= -3
        a = atom("<=", cs.sapp("*", (cs.SConst(-2), X)), cs.SConst(6))
        assert a == cs.CAtom(">=", X, cs.SConst(-3))

    def test_division(self):
        # x / 2 >= 5  ->  x >= 10
        a = atom(">=", cs.sapp("/", (X, cs.SConst(2))), cs.SConst(5))
        assert a == cs.CAtom(">=", X, cs.SConst(10))

    def test_chained_normalization(self):
        # (x + 1) * 2 <= 10  ->  ... -> x <= 4
        inner = cs.sapp("+", (X, cs.SConst(1)))
        a = atom("<=", cs.sapp("*", (inner, cs.SConst(2))), cs.SConst(10))
        assert a == cs.CAtom("<=", X, cs.SConst(4))


class TestBooleanSimplification:
    def test_and_absorption(self):
        a = atom("<=", X, cs.SConst(3))
        assert cs.cand([cs.CTRUE, a]) == a
        assert cs.cand([cs.CFALSE, a]) is cs.CFALSE
        assert cs.cand([]) is cs.CTRUE

    def test_or_absorption(self):
        a = atom("<=", X, cs.SConst(3))
        assert cs.cor([cs.CFALSE, a]) == a
        assert cs.cor([cs.CTRUE, a]) is cs.CTRUE
        assert cs.cor([]) is cs.CFALSE

    def test_flattening_and_dedup(self):
        a = atom("<=", X, cs.SConst(3))
        b = atom(">", T, cs.SConst(0))
        nested = cs.cor([a, cs.cor([b, a])])
        assert nested == cs.COr((a, b))

    def test_complement_detection(self):
        a = atom("<=", X, cs.SConst(3))
        assert cs.cand([a, cs.cnot(a)]) is cs.CFALSE
        assert cs.cor([a, cs.cnot(a)]) is cs.CTRUE

    def test_negation_pushes_into_atoms(self):
        a = atom("<=", X, cs.SConst(3))
        assert cs.cnot(a) == cs.CAtom(">", X, cs.SConst(3))
        assert cs.cnot(cs.cnot(a)) == a

    def test_demorgan(self):
        a = atom("<=", X, cs.SConst(3))
        b = atom(">", T, cs.SConst(0))
        res = cs.cnot(cs.cand([a, b]))
        assert isinstance(res, cs.COr)


class TestSubstituteEvaluate:
    def test_substitute_partially(self):
        f = cs.cand(
            [atom("<=", X, cs.SConst(3)), atom(">=", T, cs.SConst(10))]
        )
        g = cs.substitute(f, {"x": 2})
        assert g == cs.CAtom(">=", T, cs.SConst(10))

    def test_evaluate(self):
        f = cs.cor([atom("=", X, cs.SConst(1)), atom("=", T, cs.SConst(2))])
        assert cs.evaluate(f, {"x": 1, "t": 0}) is True
        assert cs.evaluate(f, {"x": 0, "t": 0}) is False

    def test_evaluate_unbound_raises(self):
        f = atom("=", X, cs.SConst(1))
        with pytest.raises(EvaluationError):
            cs.evaluate(f, {})

    def test_size(self):
        f = cs.cand(
            [atom("<=", X, cs.SConst(3)), atom(">=", T, cs.SConst(10))]
        )
        assert cs.size(f) == 7  # and + 2*(atom + var + const)


class TestSolve:
    def test_solve_from_equalities(self):
        f = cs.cand(
            [
                cs.cor(
                    [atom("=", X, cs.SConst("a")), atom("=", X, cs.SConst("b"))]
                ),
                atom("!=", X, cs.SConst("a")),
            ]
        )
        assert cs.solve(f) == [{"x": "b"}]

    def test_solve_with_domain(self):
        f = atom(">", X, cs.SConst(5))
        assert cs.solve(f, domains={"x": [3, 7, 9]}) == [{"x": 7}, {"x": 9}]

    def test_solve_no_candidates(self):
        f = atom(">", X, cs.SConst(5))
        assert cs.solve(f) == []

    def test_solve_true_false(self):
        assert cs.solve(cs.CTRUE) == [{}]
        assert cs.solve(cs.CFALSE) == []

    def test_equality_candidates_under_negation(self):
        f = cs.cnot(atom("=", X, cs.SConst(1)))
        # negation folds to !=, no equality candidate survives — by design
        assert cs.equality_candidates(f) == {}


class TestPruning:
    def test_doomed_deadline_pruned(self):
        f = cs.cor(
            [
                cs.cand([atom(">=", X, cs.SConst(20)), atom("<=", T, cs.SConst(11))]),
                cs.cand([atom(">=", X, cs.SConst(22)), atom("<=", T, cs.SConst(30))]),
            ]
        )
        pruned = prune_time_bounds(f, now=20, time_vars={"t"})
        assert pruned == cs.cand(
            [atom(">=", X, cs.SConst(22)), atom("<=", T, cs.SConst(30))]
        )

    def test_settled_atom_becomes_true(self):
        f = atom(">", T, cs.SConst(5))
        assert prune_time_bounds(f, now=10, time_vars={"t"}) is cs.CTRUE

    def test_non_time_vars_untouched(self):
        f = atom("<=", X, cs.SConst(5))
        assert prune_time_bounds(f, now=10, time_vars={"t"}) == f

    def test_future_deadline_kept(self):
        f = atom("<=", T, cs.SConst(30))
        assert prune_time_bounds(f, now=20, time_vars={"t"}) == f

    def test_boundary_now_equals_bound(self):
        # future bindings are strictly greater than now, so t <= now is doomed
        f = atom("<=", T, cs.SConst(20))
        assert prune_time_bounds(f, now=20, time_vars={"t"}) is cs.CFALSE


# ---------------------------------------------------------------------------
# Hash-consing: exact while alive, gone when unreferenced
# ---------------------------------------------------------------------------


def rebuild_term(t):
    if isinstance(t, cs.SApp):
        return cs.sapp(t.func, tuple(rebuild_term(a) for a in t.args))
    if isinstance(t, cs.SVar):
        return cs.SVar(t.name)
    return cs.SConst(t.value)


def rebuild(c, conj, disj):
    """Reconstruct ``c`` bottom-up from fresh leaves, through ``catom`` and
    the given junction constructors (each takes an operand sequence)."""
    if isinstance(c, cs.CBool):
        return cs.cbool(c.value)
    if isinstance(c, cs.CAtom):
        return cs.catom(c.op, rebuild_term(c.left), rebuild_term(c.right))
    ops = [rebuild(x, conj, disj) for x in c.operands]
    return (conj if isinstance(c, cs.CAnd) else disj)(ops)


def fold_right(binary):
    """An n-ary constructor out of ``cand2``/``cor2``, appending to the
    front the way the recurrences do."""
    return lambda ops: reduce(lambda acc, x: binary(x, acc), reversed(ops))


def reference_prune(c, now, time_vars):
    """``prune_time_bounds`` with every junction rebuilt by the general
    constructor — no kept-subsequence fast path."""
    if isinstance(c, cs.CAnd):
        return cs.cand([reference_prune(x, now, time_vars) for x in c.operands])
    if isinstance(c, cs.COr):
        return cs.cor([reference_prune(x, now, time_vars) for x in c.operands])
    return prune_time_bounds(c, now, time_vars)


def constants_of(c):
    """The numeric constants of ``var <op> const`` atoms in ``c``."""
    if isinstance(c, cs.CAtom):
        if isinstance(c.right, cs.SConst) and cs._is_number(c.right.value):
            return {c.right.value}
        return set()
    if isinstance(c, (cs.CAnd, cs.COr)):
        return set().union(*(constants_of(x) for x in c.operands))
    return set()


def stored_formulas(formula, history, optimize=False):
    """The non-constant state formulas an evaluator holds after
    ``history`` (unoptimized by default: the deadline atoms stay in)."""
    ev = IncrementalEvaluator(formula, optimize=optimize)
    for state in history:
        ev.step(state)
    return [c for _, c in ev.stored_formulas() if not isinstance(c, cs.CBool)]


def assert_canonical(c):
    """Every way of building a formula structurally equal to the live
    ``c`` returns ``c`` itself."""
    assert rebuild(c, cs.cand, cs.cor) is c
    assert rebuild(c, fold_right(cs.cand2), fold_right(cs.cor2)) is c
    assert cs.from_payload(cs.to_payload(c)) is c
    negation = cs.cnot(c)
    assert cs.cnot(c) is negation
    assert cs.cnot(negation) is c
    assert rebuild(negation, cs.cand, cs.cor) is negation
    variables = sorted(c.variables())
    for now in sorted(constants_of(c)):
        pruned = prune_time_bounds(c, now, variables)
        assert pruned is reference_prune(c, now, variables)
        if not isinstance(pruned, cs.CBool):
            assert rebuild(pruned, cs.cand, cs.cor) is pruned
        for var in variables:
            specialized = _fast_subst(c, var, now)
            assert specialized is cs.substitute(c, {var: now})


class TestHashConsing:
    @given(seed=st.integers(0, 10_000))
    def test_live_equal_formulas_are_one_object(self, seed):
        formula, history = random_bounded_pair(seed, length=12, max_depth=3)
        for c in stored_formulas(formula, history):
            assert_canonical(c)

    def test_paper_shapes_are_canonical(self):
        sharp = parse_formula(SHARP_INCREASE, stock_query_registry())
        history = trace_history(random_walk_trace(seed=5, n=30, max_step=30.0))
        negated = parse_formula(
            "!(throughout_past[3] (previously[3] (@e1(u1))))"
        )
        _, events = random_bounded_pair(0, length=20)
        found = stored_formulas(sharp, history) + stored_formulas(
            negated, events
        )
        assert any(
            isinstance(x, cs.CAnd)
            for c in found if isinstance(c, cs.COr) for x in c.operands
        ), "want a disjunction of multi-variable conjunctions"
        for c in found:
            assert_canonical(c)

    def test_dead_formula_is_forgotten_and_rebuilds_equal(self):
        gc.collect()
        before = cs.intern_stats()["formulas"]
        a = atom(">=", X, cs.SConst(22))
        b = atom("<=", T, cs.SConst(30))
        f = cs.cand([a, b])
        # A hand-built twin: equal, never interned, survives the ``del``.
        witness = cs.CAnd((cs.CAtom(">=", X, cs.SConst(22)),
                           cs.CAtom("<=", T, cs.SConst(30))))
        assert f == witness and f is not witness
        assert hash(f) == hash(witness)
        # f, its two atoms, and the atoms' negations (complement check).
        assert cs.intern_stats()["formulas"] == before + 5
        seen = weakref.ref(f)
        del f, a, b
        assert seen() is None, "freed by reference count, no collector run"
        assert cs.intern_stats()["formulas"] == before
        again = cs.cand([atom(">=", X, cs.SConst(22)),
                         atom("<=", T, cs.SConst(30))])
        assert again == witness
        assert repr(again) == repr(witness)
        assert cs.cand([atom("<=", T, cs.SConst(30)),
                        atom(">=", X, cs.SConst(22))]) != again

    def test_node_keeps_its_negation_not_the_reverse(self):
        x = cs.cand([atom(">=", X, cs.SConst(22)), atom("<=", T, cs.SConst(30))])
        negation = weakref.ref(cs.cnot(x))
        assert negation() is not None, "x holds !x"
        assert cs.cnot(x) is negation()
        assert cs.cnot(negation()) is x

        held = cs.cnot(x)
        original = weakref.ref(x)
        del x
        assert original() is None, "!x does not hold x"
        rebuilt = cs.cnot(held)
        assert isinstance(rebuilt, cs.CAnd)
        assert cs.cnot(rebuilt) is held
        # The roles swapped: ``held`` now owns ``rebuilt``.
        survivor = weakref.ref(rebuilt)
        del rebuilt
        assert survivor() is not None
        del held
        assert survivor() is None

    def test_negation_pair_is_not_a_cycle(self):
        gc.collect()
        gc.disable()
        try:
            before = cs.intern_stats()["formulas"]
            x = cs.cor([atom(">", X, cs.SConst(1)), atom("<", T, cs.SConst(2))])
            assert cs.cnot(cs.cnot(x)) is x
            del x
            assert cs.intern_stats()["formulas"] == before
        finally:
            gc.enable()

    def test_atom_specialization_agrees_by_identity(self):
        # u <= time + w, the desugared ``previously[w]`` deadline atom.
        fixed = cs.sapp("+", (cs.SVar("u"), cs.SConst(-8)))
        op, var_side, steps = _partial_normalize("<=", fixed, dyn_on_left=True)
        builder = _atom_builder(op, var_side)
        assert _specialization_agrees(builder, steps, "<=", fixed, True)
        want = cs.catom("<=", cs.SConst(12), fixed)
        assert builder(_apply_steps(steps, 12)) is want
