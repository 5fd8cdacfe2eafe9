"""Integration tests for the rule system: triggers, integrity constraints,
coupling modes, executed predicate, composite/temporal actions."""

import pytest

from repro.datamodel import FLOAT, STRING, Schema
from repro.engine import ActiveDatabase
from repro.errors import DuplicateRuleError, TransactionAborted, UnknownRuleError
from repro.events import user_event
from repro.rules import (
    CompositeStep,
    CouplingMode,
    FireMode,
    RecordingAction,
    RuleManager,
    add_composite,
    add_periodic,
    add_sequence,
    infer_relevant_events,
)
from repro.ptl import parse_formula


@pytest.fixture
def adb():
    adb = ActiveDatabase(start_time=0)
    adb.create_relation(
        "STOCK", Schema.of(name=STRING, price=FLOAT), [("IBM", 40.0)]
    )
    adb.define_query(
        "price", ["name"], "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name"
    )
    return adb


@pytest.fixture
def manager(adb):
    return RuleManager(adb)


def set_price(adb, price, at_time=None):
    txn = adb.begin(at_time)
    txn.update("STOCK", lambda r: r["name"] == "IBM", lambda r: {"price": price})
    txn.post_event(user_event("update_stocks"))
    return txn.commit()


class TestTriggers:
    def test_simple_condition_fires(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger("high", "price(IBM) > 50", action)
        set_price(adb, 45.0)
        assert action.calls == []
        set_price(adb, 55.0)
        assert len(action.calls) == 1

    def test_temporal_condition(self, adb, manager):
        """The paper's introduction: value increases by a factor within a
        time window."""
        action = RecordingAction()
        manager.add_trigger(
            "doubled",
            "[t := time] [x := price(IBM)] "
            "previously (price(IBM) <= 0.5 * x & time >= t - 10)",
            action,
        )
        set_price(adb, 10.0, at_time=1)
        set_price(adb, 15.0, at_time=2)
        set_price(adb, 25.0, at_time=8)
        assert len(action.calls) == 1
        assert action.calls[0][1] == 8

    def test_event_binding_passed_to_action(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger("login", "@user_login(u)", action, params=("u",))
        adb.post_event(user_event("user_login", "alice"))
        assert action.calls[0][0] == {"u": "alice"}

    def test_fire_mode_rising_edge(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger(
            "high_once",
            "price(IBM) > 50",
            action,
            fire_mode=FireMode.RISING_EDGE,
        )
        set_price(adb, 60.0)
        set_price(adb, 70.0)  # still high: no new firing
        set_price(adb, 40.0)
        set_price(adb, 80.0)  # fresh episode
        assert len(action.calls) == 2

    def test_fire_mode_always(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger("high", "price(IBM) > 50", action)
        set_price(adb, 60.0)
        set_price(adb, 70.0)
        assert len(action.calls) == 2

    def test_t_c_a_coupling_defers_action(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger(
            "high", "price(IBM) > 50", action, coupling=CouplingMode.T_C_A
        )
        set_price(adb, 60.0)
        assert action.calls == []
        assert manager.run_pending() == 1
        assert len(action.calls) == 1

    def test_duplicate_rule_rejected(self, adb, manager):
        manager.add_trigger("r", "price(IBM) > 50", RecordingAction())
        with pytest.raises(DuplicateRuleError):
            manager.add_trigger("r", "price(IBM) > 60", RecordingAction())

    def test_remove_rule(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger("r", "price(IBM) > 50", action)
        manager.remove_rule("r")
        set_price(adb, 99.0)
        assert action.calls == []
        with pytest.raises(UnknownRuleError):
            manager.remove_rule("r")

    def test_firing_log(self, adb, manager):
        manager.add_trigger("high", "price(IBM) > 50", RecordingAction())
        set_price(adb, 60.0)
        (record,) = manager.firings_of("high")
        assert record.rule == "high"
        assert record.binding_dict == {}

    def test_db_action_runs_transaction(self, adb, manager):
        from repro.rules import DbAction

        def halve(txn, bindings):
            txn.update(
                "STOCK",
                lambda r: r["name"] == "IBM",
                lambda r: {"price": r["price"] / 2},
            )

        manager.add_trigger(
            "too_high",
            "price(IBM) > 100",
            DbAction(halve),
            fire_mode=FireMode.RISING_EDGE,
        )
        set_price(adb, 120.0)
        from repro.query import eval_scalar, parse_query

        q = parse_query("RETRIEVE (S.price) FROM STOCK S WHERE S.name = 'IBM'")
        assert eval_scalar(q, adb.state) == 60.0

    def test_failing_db_action_aborts_its_transaction(self, adb, manager):
        from repro.errors import ActionError
        from repro.rules import DbAction

        def explode(txn, bindings):
            txn.insert("STOCK", ("TMP", 1.0))
            raise RuntimeError("boom")

        manager.add_trigger("bad", "@go", DbAction(explode))
        with pytest.raises(ActionError):
            adb.post_event(user_event("go"))
        # the action's transaction rolled back; no TMP row
        assert all(r["name"] != "TMP" for r in adb.state.relation("STOCK"))
        assert not adb.txns.active

    def test_aggregate_trigger_both_pipelines(self, adb, manager):
        direct = RecordingAction()
        rewritten = RecordingAction()
        cond = "avg(price(IBM); @session_start; @update_stocks) > 50"
        manager.add_trigger("avg_direct", cond, direct)
        manager.add_trigger(
            "avg_rewritten", cond, rewritten, rewrite_aggregates=True
        )
        adb.post_event(user_event("session_start"))
        set_price(adb, 40.0)
        set_price(adb, 80.0)  # avg 60 -> both fire
        assert len(direct.calls) == len(rewritten.calls) == 1


class TestIntegrityConstraints:
    def test_static_constraint_aborts(self, adb, manager):
        manager.add_integrity_constraint("cap", "price(IBM) <= 100")
        with pytest.raises(TransactionAborted) as exc:
            set_price(adb, 150.0)
        assert "cap" in str(exc.value)
        # the update was rolled back
        from repro.query import eval_scalar, parse_query

        q = parse_query("RETRIEVE (S.price) FROM STOCK S WHERE S.name = 'IBM'")
        assert eval_scalar(q, adb.state) == 40.0

    def test_allowed_commit_passes(self, adb, manager):
        manager.add_integrity_constraint("cap", "price(IBM) <= 100")
        set_price(adb, 80.0)  # no exception

    def test_temporal_constraint(self, adb, manager):
        """A dynamic constraint: the price may never more than double in a
        single transition (refers to the previous state)."""
        manager.add_integrity_constraint(
            "no_jump",
            "[x := price(IBM)] !lasttime (price(IBM) < 0.5 * x)",
        )
        set_price(adb, 60.0)  # 40 -> 60 fine
        with pytest.raises(TransactionAborted):
            set_price(adb, 150.0)  # 60 -> 150 jump
        set_price(adb, 100.0)  # 60 -> 100 fine (abort rolled back)

    def test_abort_leaves_evaluator_consistent(self, adb, manager):
        """After an aborted attempt, the constraint keeps enforcing
        against the *committed* history, not the attempted one."""
        manager.add_integrity_constraint("cap", "price(IBM) <= 100")
        with pytest.raises(TransactionAborted):
            set_price(adb, 150.0)
        with pytest.raises(TransactionAborted):
            set_price(adb, 101.0)
        set_price(adb, 100.0)

    def test_domain_indexed_constraint(self, adb, manager):
        """An IC over every stock via a domain: no stock may exceed 100."""
        adb.execute(lambda t: t.insert("STOCK", ("XYZ", 50.0)), commit_time=1)
        manager.add_integrity_constraint(
            "cap_all",
            "!(price($s) > 100)",
            domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
        )
        set_price(adb, 90.0)  # IBM fine
        txn = adb.begin()
        txn.update(
            "STOCK", lambda r: r["name"] == "XYZ", lambda r: {"price": 200.0}
        )
        with pytest.raises(TransactionAborted):
            txn.commit()
        # XYZ rolled back; a clean update still commits
        set_price(adb, 95.0)

    def test_domain_indexed_constraint_across_aborted_trial(self, adb, manager):
        """A vetoed transaction leaves nothing behind in a domain-indexed
        IC: not the instance born for a stock first seen in the trial,
        not the trial's query values."""
        manager.add_integrity_constraint(
            "cap_all",
            "!(price($s) > 100)",
            domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
        )
        with pytest.raises(TransactionAborted):
            adb.execute(lambda t: t.insert("STOCK", ("NEW", 500.0)))
        # the same stock at a legal price is admitted ...
        adb.execute(lambda t: t.insert("STOCK", ("NEW", 50.0)))
        # ... and is enforced from then on
        txn = adb.begin()
        txn.update(
            "STOCK", lambda r: r["name"] == "NEW", lambda r: {"price": 150.0}
        )
        with pytest.raises(TransactionAborted):
            txn.commit()
        with pytest.raises(TransactionAborted):
            set_price(adb, 101.0)
        set_price(adb, 95.0)

    def test_indexed_snapshot_restore_drops_new_instances(self, adb, manager):
        """Trial evaluation of a domain-indexed condition must not leak
        evaluator instances created during the trial: a leaked instance's
        ``previously`` would go on remembering the abandoned state."""
        from repro.ptl import EvalContext, IncrementalEvaluator, parse_formula
        from repro.query.parser import parse_query
        from tests.helpers import stock_history

        f = parse_formula("previously (price($s) > 11)", adb.db.queries)
        ctx = EvalContext(
            domains={"s": parse_query("RETRIEVE (S.name) FROM STOCK S")}
        )
        ev = IncrementalEvaluator(f, ctx)
        h = stock_history([(12, 1), (10, 2)])
        snap = ev.snapshot()  # before any instances exist
        assert ev.step(h[0]).fired
        ev.restore(snap)
        assert ev.state_size() == 0
        assert not ev.step(h[1]).fired

    def test_constraint_sees_events_of_committing_txn(self, adb, manager):
        # constraint: forbid committing while user X is logged in
        manager.add_integrity_constraint(
            "no_trading_while_logged_in",
            "!( !@user_logout('X') since @user_login('X') )",
        )
        set_price(adb, 50.0)
        adb.post_event(user_event("user_login", "X"))
        with pytest.raises(TransactionAborted):
            set_price(adb, 60.0)
        adb.post_event(user_event("user_logout", "X"))
        set_price(adb, 60.0)


class TestExecutedPredicate:
    def test_sequence(self, adb, manager):
        a1, a2 = RecordingAction(), RecordingAction()
        add_sequence(
            manager,
            "seq",
            "price(IBM) > 50",
            [(a1, 0), (a2, 10)],
        )
        set_price(adb, 60.0, at_time=5)
        assert len(a1.calls) == 1 and a1.calls[0][1] == 5
        # A2 must run exactly 10 units after A1 executed
        adb.tick(at_time=12)
        assert a2.calls == []
        adb.tick(at_time=15)
        assert len(a2.calls) == 1 and a2.calls[0][1] == 15

    def test_sequence_with_params(self, adb, manager):
        a1, a2 = RecordingAction(), RecordingAction()
        add_sequence(
            manager,
            "seq",
            "@order(x)",
            [(a1, 0), (a2, 10)],
            params=("x",),
        )
        adb.post_event(user_event("order", "o1"), at_time=3)
        adb.tick(at_time=13)
        assert a2.calls == [({"x": "o1", "__t": 3}, 13)] or a2.calls == [
            ({"x": "o1"}, 13)
        ]

    def test_periodic_paper_example(self, adb, manager):
        """r: whenever price(IBM) < 60 execute BUY every 10 minutes for an
        hour (Section 7)."""
        buy = RecordingAction()
        add_periodic(
            manager, "buy_ibm", "price(IBM) < 60", buy, period=10, horizon=60
        )
        set_price(adb, 55.0, at_time=100)  # arm: buys immediately
        for t in range(101, 175):
            adb.tick(at_time=t)
        times = [t for _, t in buy.calls]
        assert times == [100, 110, 120, 130, 140, 150, 160]

    def test_executed_retention_gc(self, adb):
        """Records of a read rule older than the retention horizon (the
        newest state's time minus ``executed_retention``) are dropped."""
        manager = RuleManager(adb, executed_retention=20)
        action = RecordingAction()
        manager.add_trigger("r", "@ping", action)
        manager.add_trigger(
            "reader", "executed(r, t) & time = t + 100", RecordingAction()
        )
        for t in range(1, 60, 5):
            adb.post_event(user_event("ping"), at_time=t)
        assert len(action.calls) == 12
        assert [r.time for r in manager.executed.records()] == [
            36, 41, 46, 51, 56
        ]

    def test_three_step_sequence_chains_delays(self, adb, manager):
        a1, a2, a3 = RecordingAction(), RecordingAction(), RecordingAction()
        add_sequence(
            manager,
            "chain",
            "@go",
            [(a1, 0), (a2, 4), (a3, 6)],
        )
        adb.post_event(user_event("go"), at_time=10)
        for t in range(11, 25):
            adb.tick(at_time=t)
        assert [t for _, t in a1.calls] == [10]
        assert [t for _, t in a2.calls] == [14]   # 10 + 4
        assert [t for _, t in a3.calls] == [20]   # 14 + 6

    def test_composite_forest(self, adb, manager):
        a, b, c = RecordingAction(), RecordingAction(), RecordingAction()
        add_composite(
            manager,
            "comp",
            "@go",
            [
                CompositeStep("a", a),
                CompositeStep("b", b, after="a", delay=5),
                CompositeStep("c", c, after="a", delay=8),
            ],
        )
        adb.post_event(user_event("go"), at_time=10)
        for t in range(11, 20):
            adb.tick(at_time=t)
        assert [t for _, t in a.calls] == [10]
        assert [t for _, t in b.calls] == [15]
        assert [t for _, t in c.calls] == [18]


class TestExecutionModel:
    def test_relevance_filtering_skips_irrelevant_states(self, adb):
        manager = RuleManager(adb, relevance_filtering=True)
        action = RecordingAction()
        manager.add_trigger("login_watch", "@user_login(u)", action)
        for _ in range(10):
            adb.post_event(user_event("noise"))
        adb.post_event(user_event("user_login", "alice"))
        stats = manager.stats_of("login_watch")
        assert stats.skips == 10
        assert stats.evaluations == 1
        assert len(action.calls) == 1

    def test_relevance_inference_declines_temporal(self):
        f = parse_formula("previously @e")
        assert infer_relevant_events(f) is None
        g = parse_formula("@e & time > 5")
        assert infer_relevant_events(g) == frozenset({"e"})
        h = parse_formula("@e | time > 5")
        assert infer_relevant_events(h) is None

    def test_batched_invocation_delays_but_keeps_firings(self, adb):
        manager = RuleManager(adb, batch_size=4)
        action = RecordingAction()
        manager.add_trigger("ping", "@ping", action)
        for t in range(1, 4):
            adb.post_event(user_event("ping"), at_time=t)
        assert action.calls == []  # delayed
        adb.post_event(user_event("ping"), at_time=4)  # batch full
        assert len(action.calls) == 4  # but not lost
        adb.post_event(user_event("ping"), at_time=5)
        manager.flush()
        assert len(action.calls) == 5

    def test_batching_does_not_delay_integrity_constraints(self, adb):
        manager = RuleManager(adb, batch_size=100)
        manager.add_integrity_constraint("cap", "price(IBM) <= 100")
        with pytest.raises(TransactionAborted):
            set_price(adb, 150.0)

    def test_action_posting_events_is_processed_in_order(self, adb, manager):
        """An action that posts an event must not corrupt dispatch order
        (the manager defers nested states until the current one is done)."""
        seen = []

        def chain(ctx):
            seen.append(ctx.state.timestamp)
            if len(seen) < 3:
                ctx.engine.post_event(user_event("ping"))

        manager.add_trigger("chain", "@ping", chain)
        adb.post_event(user_event("ping"), at_time=1)
        assert len(seen) == 3
        assert seen == sorted(seen)

    def test_priority_orders_execution(self, adb, manager):
        order = []
        manager.add_trigger(
            "low", "@ping", lambda ctx: order.append("low"), priority=-1
        )
        manager.add_trigger(
            "high", "@ping", lambda ctx: order.append("high"), priority=5
        )
        manager.add_trigger(
            "mid", "@ping", lambda ctx: order.append("mid")
        )
        adb.post_event(user_event("ping"))
        assert order == ["high", "mid", "low"]

    def test_priority_ties_keep_registration_order(self, adb, manager):
        order = []
        for name in ("a", "b", "c"):
            manager.add_trigger(
                name, "@ping", lambda ctx, n=name: order.append(n)
            )
        adb.post_event(user_event("ping"))
        assert order == ["a", "b", "c"]

    def test_detach(self, adb, manager):
        action = RecordingAction()
        manager.add_trigger("r", "@ping", action)
        manager.detach()
        adb.post_event(user_event("ping"))
        assert action.calls == []
