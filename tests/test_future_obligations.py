"""Future-obligation monitors attached to the rule manager."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateRuleError,
    PTLError,
    TransactionAborted,
    UnknownRuleError,
)
from repro.events import user_event
from repro.ptl.future import FutureMonitor, Verdict, satisfies_finite
from repro.ptl.future_parser import parse_future_formula
from repro.rules import RecordingAction, RuleManager
from repro.workloads import apply_tick, make_stock_db


@pytest.fixture
def setup():
    adb = make_stock_db([("IBM", 40.0)])
    return adb, RuleManager(adb)


class TestObligations:
    def test_violation_callback_runs(self, setup):
        adb, manager = setup
        violated = RecordingAction()
        manager.add_future_monitor(
            "ack_sla",
            "always (!@req | eventually[5] @ack)",
            on_violated=violated,
        )
        adb.post_event(user_event("req"), at_time=10)
        for t in range(11, 20):
            adb.tick(at_time=t)
        assert len(violated.calls) == 1
        assert violated.calls[0][1] == 16  # first state past 10 + 5
        assert manager.monitor_resolutions("ack_sla") == [("violated", 16)]

    def test_satisfaction_callback_runs(self, setup):
        adb, manager = setup
        done = RecordingAction()
        manager.add_future_monitor(
            "rebound",
            "eventually price(IBM) > 50",
            on_satisfied=done,
        )
        apply_tick(adb, "IBM", 45.0, at_time=1)
        apply_tick(adb, "IBM", 55.0, at_time=2)
        assert [t for _, t in done.calls] == [2]

    def test_respawn_catches_repeat_violations(self, setup):
        adb, manager = setup
        violated = RecordingAction()
        manager.add_future_monitor(
            "sla",
            "eventually[3] @ack",
            on_violated=violated,
            respawn=True,
        )
        for t in range(1, 12):
            adb.tick(at_time=t)
        # anchored at t=1, violated at t=5; respawned anchored at 6,
        # violated at 10; respawned anchored at 11 (pending)
        assert [t for _, t in violated.calls] == [5, 10]

    def test_no_respawn_resolves_once(self, setup):
        adb, manager = setup
        violated = RecordingAction()
        manager.add_future_monitor(
            "sla", "eventually[3] @ack", on_violated=violated
        )
        for t in range(1, 12):
            adb.tick(at_time=t)
        assert len(violated.calls) == 1

    def test_duplicate_and_removal(self, setup):
        adb, manager = setup
        manager.add_future_monitor("m", "eventually @e")
        with pytest.raises(DuplicateRuleError):
            manager.add_future_monitor("m", "eventually @e")
        with pytest.raises(DuplicateRuleError):
            manager.add_trigger("m", "@e", RecordingAction())
        assert "m" in manager.rule_names()
        manager.remove_rule("m")
        with pytest.raises(UnknownRuleError):
            manager.monitor_resolutions("m")

    def test_monitor_sees_query_atoms(self, setup):
        adb, manager = setup
        resolved = RecordingAction()
        manager.add_future_monitor(
            "cheap_until_spike",
            "price(IBM) < 60 until price(IBM) > 100",
            on_satisfied=resolved,
        )
        apply_tick(adb, "IBM", 50.0, at_time=1)
        apply_tick(adb, "IBM", 55.0, at_time=2)
        apply_tick(adb, "IBM", 120.0, at_time=3)
        assert [t for _, t in resolved.calls] == [3]

    def test_atoms_are_roots_of_the_managers_plan(self, setup):
        """An atom is a node of the manager's plan: shared with a trigger
        whose condition it repeats, and released once its monitor has
        resolved."""
        adb, manager = setup
        manager.add_trigger("high", "price(IBM) > 50", RecordingAction())
        nodes = manager.plan.distinct_nodes()
        manager.add_future_monitor("m", "eventually price(IBM) > 50")
        assert manager.plan.distinct_nodes() == nodes
        manager.add_future_monitor("n", "eventually @ack")
        assert manager.plan.distinct_nodes() == nodes + 1
        adb.post_event(user_event("ack"), at_time=1)
        assert manager.monitor_resolutions("n") == [("satisfied", 1)]
        assert manager.plan.distinct_nodes() == nodes

    def test_hosted_monitor_does_not_step_the_managers_plan(self, setup):
        """Only the host steps its plan: a hosted monitor refuses
        ``step``, and its size is its pending formula's alone (the
        manager counts its plan once)."""
        adb, manager = setup
        manager.add_trigger("high", "price(IBM) > 50", RecordingAction())
        registered = manager.add_future_monitor("m", "eventually @ack")
        adb.post_event(user_event("tick"), at_time=1)
        epoch = manager.plan.epoch
        with pytest.raises(PTLError):
            registered.monitor.step(adb.history.states[-1])
        assert manager.plan.epoch == epoch
        assert registered.monitor.state_size() == 2


# ---------------------------------------------------------------------------
# Hosted monitor (atoms on the manager's plan) vs standalone monitor
# ---------------------------------------------------------------------------

#: Comparison, event and ``previously`` atoms; the manager's triggers
#: below share the first and the last two.
ATOMS = st.sampled_from([
    "price(IBM) > 50",
    "price(IBM) < 45",
    "@a",
    "@b",
    "previously @a",
    "previously (price(IBM) > 60)",
])


def _compose(children):
    window = st.sampled_from(["", "[3]", "[6]"])
    return st.one_of(
        children.map(lambda f: f"!({f})"),
        children.map(lambda f: f"next ({f})"),
        st.tuples(children, st.sampled_from(["&", "|", "until"]), children)
        .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        st.tuples(st.sampled_from(["eventually", "always"]), window, children)
        .map(lambda t: f"{t[0]}{t[1]} ({t[2]})"),
    )


FORMULAS = st.recursive(ATOMS, _compose, max_leaves=5)
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("tick"), st.sampled_from([40.0, 44.0, 55.0, 65.0, 70.0])
        ),
        st.tuples(st.just("ev"), st.sampled_from(["a", "b"])),
        st.tuples(st.just("new"), st.sampled_from(["X", "Y", "Z"])),
    ),
    min_size=2,
    max_size=12,
)


def _drive(adb, ops):
    names = {"IBM"}
    for t, (kind, arg) in enumerate(ops, start=1):
        if kind == "tick":
            try:
                apply_tick(adb, "IBM", arg, at_time=t)
            except TransactionAborted:
                pass
        elif kind == "ev":
            adb.post_event(user_event(arg), at_time=t)
        elif arg not in names:
            names.add(arg)
            adb.execute(
                lambda txn, n=arg: txn.insert("STOCK", (n, 50.0, n, "tech")),
                at_time=t,
            )
        else:
            adb.tick(at_time=t)


class TestHostedMatchesStandalone:
    @settings(max_examples=150, deadline=None)
    @given(text=FORMULAS, ops=OPS, respawn=st.booleans())
    # A respawned atom must not share the node of the ``armed`` instance
    # born at the step before, which has seen ``@a``.
    @example(text="previously @a", ops=[("ev", "a"), ("tick", 40.0)],
             respawn=True)
    def test_resolutions_match_and_agree_with_reference(
        self, text, ops, respawn
    ):
        adb = make_stock_db([("IBM", 40.0)])
        manager = RuleManager(adb)
        manager.add_trigger("high", "price(IBM) > 50", RecordingAction())
        manager.add_trigger(
            "armed", "previously @a & price($s) > 0", RecordingAction(),
            domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
        )
        manager.add_trigger(
            "was_high", "previously (price($s) > 60)", RecordingAction(),
            domains={"s": "RETRIEVE (S.name) FROM STOCK S"},
        )
        # Vetoes a tick to 70: a trial step the plan rolls back.
        manager.add_integrity_constraint("cap", "!(price(IBM) > 66)")
        nodes = manager.plan.distinct_nodes()
        manager.add_future_monitor("m", text, respawn=respawn)
        assert manager.plan.distinct_nodes() >= nodes

        formula = parse_future_formula(text, adb.db.queries)
        trace, starts, alone = [], [0], []
        standalone = [FutureMonitor(formula)]

        def step_alone(state):
            trace.append(state)
            monitor = standalone[-1]
            if monitor.verdict is not Verdict.PENDING:
                return
            verdict = monitor.step(state)
            if verdict is not Verdict.PENDING:
                alone.append((verdict.value, state.timestamp))
                if respawn:
                    standalone.append(FutureMonitor(formula))
                    starts.append(len(trace))

        adb.bus.subscribe(step_alone)
        _drive(adb, ops)
        manager.flush()

        assert manager.monitor_resolutions("m") == alone
        for (verdict, _), start in zip(alone, starts):
            expected = satisfies_finite(trace[start:], 0, formula)
            assert (verdict == "satisfied") == expected, (text, ops)
