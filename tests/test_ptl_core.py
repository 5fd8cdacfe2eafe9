"""Tests for PTL parsing, rewriting, reference semantics, and the
incremental algorithm — including the paper's Section 5 worked examples."""

import pytest

from repro.errors import PTLParseError, UnsafeFormulaError
from repro.events.model import transaction_commit, user_event
from repro.ptl import (
    Assign,
    Comparison,
    EvalContext,
    EventAtom,
    IncrementalEvaluator,
    Lasttime,
    Previously,
    Since,
    Var,
    answers,
    check_safety,
    free_variables,
    normalize,
    parse_formula,
    satisfies,
    unsafe_variables,
)
from repro.ptl import ast as past
from repro.ptl import constraints as cs
from repro.ptl.rewrite import expand_derived, rename_duplicate_assignments
from repro.query import ast as qast

from tests.helpers import (
    event_history,
    run_evaluator,
    stock_history,
    stock_registry,
)

#: The paper's SHARP-INCREASE style condition: the IBM price doubled
#: within 10 time units.
DOUBLED = (
    "[t := time] [x := price(IBM)] "
    "previously (price(IBM) <= 0.5 * x & time >= t - 10)"
)


@pytest.fixture
def registry():
    return stock_registry()


class TestParser:
    def test_parse_doubled(self, registry):
        f = parse_formula(DOUBLED, registry)
        assert isinstance(f, Assign) and f.var == "t"
        assert isinstance(f.body, Assign) and f.body.var == "x"
        assert isinstance(f.body.body, Previously)

    def test_parse_since(self, registry):
        f = parse_formula(
            "price(IBM) > 50 & (!@user_logout('X') since @user_login('X'))",
            registry,
        )
        assert isinstance(f, past.And)
        assert isinstance(f.operands[1], Since)

    def test_parse_event_with_variable(self):
        f = parse_formula("previously @user_login(u)")
        (inner,) = f.children()
        assert inner == EventAtom("user_login", (Var("u"),))

    def test_parse_executed(self):
        f = parse_formula("executed(r1, t) & time = t + 10")
        atom = f.operands[0]
        assert isinstance(atom, past.ExecutedAtom)
        assert atom.rule == "r1" and atom.args == ()
        assert atom.time == Var("t")

    def test_parse_aggregate(self, registry):
        f = parse_formula(
            "avg(price(IBM); time = 540; @update_stocks) > 70", registry
        )
        assert isinstance(f, Comparison)
        agg = f.left
        assert isinstance(agg, past.AggT)
        assert agg.func == "avg"
        assert isinstance(agg.start, Comparison)
        assert agg.sample == EventAtom("update_stocks")

    def test_parse_bounded_window(self, registry):
        f = parse_formula("previously[10] price(IBM) > 50", registry)
        assert isinstance(f, Previously) and f.window == 10

    def test_parse_inline_query(self):
        f = parse_formula("{RETRIEVE (S.price) FROM STOCK S} > 10")
        assert isinstance(f.left, past.QueryT)

    def test_parse_membership(self, registry):
        registry.define_text(
            "overpriced",
            (),
            "RETRIEVE (S.name) FROM STOCK S WHERE S.price >= 300",
        )
        f = parse_formula("previously (x in overpriced())", registry)
        (atom,) = f.children()
        assert isinstance(atom, past.InQuery)

    def test_unknown_query_symbol(self):
        with pytest.raises(PTLParseError):
            parse_formula("nosuch(IBM) > 5")

    def test_parse_error_trailing(self, registry):
        with pytest.raises(PTLParseError):
            parse_formula("price(IBM) > 5 extra", registry)

    def test_item_names(self):
        f = parse_formula("CUM > 70", items={"CUM"})
        assert isinstance(f.left, past.QueryT)
        assert f.left.query == qast.ItemRef("CUM")

    def test_since_left_assoc(self):
        f = parse_formula("@a since @b since @c")
        assert isinstance(f, Since)
        assert isinstance(f.lhs, Since)


class TestRewrite:
    def test_previously_expansion(self):
        f = expand_derived(Previously(EventAtom("e")))
        assert f == Since(past.TRUE, EventAtom("e"))

    def test_throughout_past_expansion(self):
        f = expand_derived(past.ThroughoutPast(EventAtom("e")))
        assert f == past.Not(Since(past.TRUE, past.Not(EventAtom("e"))))

    def test_bounded_previously_introduces_time_assignment(self):
        f = expand_derived(Previously(EventAtom("e"), window=10))
        assert isinstance(f, Assign)
        assert f.query == qast.ItemRef("time")
        assert isinstance(f.body, Since)

    def test_duplicate_assignment_renamed(self):
        inner = Assign("x", qast.ItemRef("time"), Comparison("=", Var("x"), past.ConstT(1)))
        outer = Assign(
            "x",
            qast.ItemRef("time"),
            past.And((Comparison("=", Var("x"), past.ConstT(2)), inner)),
        )
        renamed = rename_duplicate_assignments(outer)
        assert renamed.var == "x"
        inner_renamed = renamed.body.operands[1]
        assert inner_renamed.var != "x"
        # the renamed inner body uses the new name
        assert inner_renamed.body.left == Var(inner_renamed.var)

    def test_free_variables(self, registry):
        f = parse_formula(DOUBLED, registry)
        assert free_variables(f) == frozenset()
        g = parse_formula("previously @login(u)")
        assert free_variables(g) == frozenset({"u"})


class TestSafety:
    def test_event_bound_var_is_safe(self):
        check_safety(parse_formula("previously @login(u)"))

    def test_unbound_var_rejected(self):
        f = parse_formula("x > 5")
        assert unsafe_variables(f) == ["x"]
        with pytest.raises(UnsafeFormulaError):
            check_safety(f)

    def test_domain_makes_safe(self):
        f = parse_formula("x > 5")
        check_safety(f, domains={"x"})

    def test_equality_binding_is_safe(self):
        check_safety(parse_formula("x = 5 & x > 1"))


class TestReferenceSemantics:
    def test_doubled_fires_on_paper_history(self, registry):
        f = parse_formula(DOUBLED, registry)
        h = stock_history([(10, 1), (15, 2), (18, 5), (25, 8)])
        assert [satisfies(h.states, i, f) for i in range(4)] == [
            False,
            False,
            False,
            True,
        ]

    def test_doubled_does_not_fire_on_second_history(self, registry):
        f = parse_formula(DOUBLED, registry)
        h = stock_history([(10, 1), (15, 2), (18, 5), (11, 20)])
        assert not any(satisfies(h.states, i, f) for i in range(4))

    def test_since_semantics(self):
        # !logout since login
        f = parse_formula("!@logout since @login")
        h = event_history(
            [
                ([user_event("login")], 1),
                ([user_event("tick")], 2),
                ([user_event("logout")], 3),
                ([user_event("tick")], 4),
            ]
        )
        results = [satisfies(h.states, i, f) for i in range(4)]
        assert results == [True, True, False, False]

    def test_lasttime(self):
        f = parse_formula("lasttime @e")
        h = event_history([([user_event("e")], 1), ([user_event("x")], 2)])
        assert not satisfies(h.states, 0, f)
        assert satisfies(h.states, 1, f)

    def test_throughout_past(self):
        f = parse_formula("throughout_past !@bad")
        h = event_history(
            [([user_event("ok")], 1), ([user_event("bad")], 2), ([user_event("ok")], 3)]
        )
        assert satisfies(h.states, 0, f)
        assert not satisfies(h.states, 1, f)
        assert not satisfies(h.states, 2, f)

    def test_answers_event_binding(self):
        f = parse_formula("previously @login(u)")
        h = event_history(
            [
                ([user_event("login", "alice")], 1),
                ([user_event("login", "bob")], 2),
            ]
        )
        assert answers(h.states, 0, f) == [{"u": "alice"}]
        assert answers(h.states, 1, f) == [{"u": "alice"}, {"u": "bob"}]


class TestIncremental:
    def test_matches_reference_on_paper_history(self, registry):
        f = parse_formula(DOUBLED, registry)
        h = stock_history([(10, 1), (15, 2), (18, 5), (25, 8)])
        ev = IncrementalEvaluator(f)
        results = run_evaluator(ev, h)
        assert [r.fired for r in results] == [False, False, False, True]
        assert results[3].bindings == ({},)

    def test_paper_pruned_state_formula(self, registry):
        """The Section 5 optimization example: after history
        (10,1)(15,2)(18,5)(11,20) the stored state collapses to the single
        clause (x >= 22 & t <= 30)."""
        f = parse_formula(DOUBLED, registry)
        h = stock_history([(10, 1), (15, 2), (18, 5), (11, 20)])
        ev = IncrementalEvaluator(f, optimize=True)
        results = run_evaluator(ev, h)
        assert not any(r.fired for r in results)
        ((label, stored),) = ev.stored_formulas()
        assert stored == cs.cand(
            [
                cs.catom(">=", cs.SVar("x"), cs.SConst(22)),
                cs.catom("<=", cs.SVar("t"), cs.SConst(30)),
            ]
        )

    def test_unoptimized_state_grows(self, registry):
        f = parse_formula(DOUBLED, registry)
        h = stock_history([(10, 1), (15, 2), (18, 5), (11, 20)])
        opt = IncrementalEvaluator(f, optimize=True)
        raw = IncrementalEvaluator(f, optimize=False)
        run_evaluator(opt, h)
        run_evaluator(raw, h)
        assert opt.state_size() < raw.state_size()

    def test_event_since(self):
        f = parse_formula("!@logout since @login")
        h = event_history(
            [
                ([user_event("login")], 1),
                ([user_event("tick")], 2),
                ([user_event("logout")], 3),
                ([user_event("tick")], 4),
            ]
        )
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [
            True,
            True,
            False,
            False,
        ]

    def test_assigned_negative_constant_fires(self):
        f = parse_formula("[x := -5] (x < 0)")
        h = event_history([([user_event("tick")], 1), ([], 2)])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [True, True]

    def test_negated_query_fires_where_its_difference_twin_does(
        self, registry
    ):
        """``[x := -q]`` is ``[x := 0 - q]``: here, some earlier price
        was at least 5 below the current one."""
        body = "previously (price(IBM) + x <= -5)"
        h = stock_history([(10, 1), (15, 2), (18, 3), (12, 4), (25, 5)])
        fired = [
            [
                r.fired
                for r in run_evaluator(
                    IncrementalEvaluator(parse_formula(text, registry)), h
                )
            ]
            for text in (
                f"[x := -price(IBM)] {body}",
                f"[x := 0 - price(IBM)] {body}",
            )
        ]
        assert fired[0] == fired[1] == [False, True, True, False, True]

    def test_event_binding_answers(self):
        f = parse_formula("previously @login(u)")
        h = event_history(
            [
                ([user_event("login", "alice")], 1),
                ([user_event("login", "bob")], 2),
            ]
        )
        ev = IncrementalEvaluator(f)
        results = run_evaluator(ev, h)
        assert results[0].bindings == ({"u": "alice"},)
        assert sorted(b["u"] for b in results[1].bindings) == ["alice", "bob"]

    def test_lasttime_node(self):
        f = parse_formula("lasttime @e")
        h = event_history([([user_event("e")], 1), ([user_event("x")], 2)])
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [False, True]

    def test_domain_indexed_evaluation(self, registry):
        # price($s) > 50 with s ranging over a fixed stock list
        f = parse_formula("price($s) > 12", registry)
        ctx = EvalContext(domains={"s": ["IBM"]})
        ev = IncrementalEvaluator(f, ctx)
        h = stock_history([(10, 1), (15, 2)])
        results = run_evaluator(ev, h)
        assert [r.fired for r in results] == [False, True]
        assert results[1].bindings == ({"s": "IBM"},)

    def test_query_param_without_domain_rejected(self, registry):
        f = parse_formula("price($s) > 12", registry)
        with pytest.raises(UnsafeFormulaError):
            IncrementalEvaluator(f)

    def test_snapshot_restore(self):
        f = parse_formula("previously @e")
        h = event_history(
            [([user_event("x")], 1), ([user_event("e")], 2), ([user_event("x")], 3)]
        )
        ev = IncrementalEvaluator(f)
        ev.step(h[0])
        snap = ev.snapshot()
        assert not ev.step(h[1]).fired is False  # fired at state 2
        ev.restore(snap)
        # restored: as if state 2 never happened; stepping state 3 -> not fired
        assert not ev.step(h[2]).fired

    def test_bounded_window_fires_then_expires(self):
        f = parse_formula("previously[5] @e")
        h = event_history(
            [
                ([user_event("e")], 1),
                ([user_event("x")], 3),
                ([user_event("x")], 6),
                ([user_event("x")], 7),
            ]
        )
        ev = IncrementalEvaluator(f)
        assert [r.fired for r in run_evaluator(ev, h)] == [
            True,
            True,
            True,
            False,
        ]

    def test_bounded_window_memory_stays_flat(self):
        f = parse_formula("previously[5] @e")
        states = [([user_event("e")], 2 * i + 1) for i in range(200)]
        h = event_history(states)
        ev = IncrementalEvaluator(f, optimize=True)
        sizes = []
        for state in h:
            ev.step(state)
            sizes.append(ev.state_size())
        assert max(sizes[20:]) <= max(sizes[:20]) + 5
