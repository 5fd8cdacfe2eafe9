"""Dynamic rule lifecycle: hot add/remove/replace, shadow deployment,
and drift-tolerant checkpoint restore.

Three layers of guarantees:

* **resource release** — removing a rule releases its share of the
  shared-plan DAG (refcounted nodes, temporal prune entries, aggregate
  states); subtrees other rules share survive with their state;
* **semantics** — a hot-added rule behaves exactly like the same rule
  on a manager attached "now" (its temporal operators see only
  post-registration states); shadow rules fire observably but never
  execute actions or touch the executed store; promotion flips them
  live between two states;
* **conformance** — a hypothesis-generated interleaving of states and
  lifecycle operations (register / remove / replace / promote, with
  mid-run checkpoint + restore into a fresh manager) produces identical
  firing sequences and executed-store contents on every backend (naive
  full-history, unshared one-plan-per-rule, shared-plan);
* **execution records** — a rule's executions are recorded only while
  some live condition (trigger, shadow trigger, integrity constraint)
  reads them, or any future monitor is registered; each reader row
  matches the naive backend.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import NaiveDetector
from repro.engine import ActiveDatabase
from repro.errors import RecoveryError, TransactionAborted, UnknownRuleError
from repro.events import user_event
from repro.obs.trace import FIRING, LIFECYCLE, SHADOW_FIRING
from repro.ptl.context import EvalContext
from repro.rules.actions import RecordingAction
from repro.rules.manager import RuleManager


class NaiveRuleManager(RuleManager):
    """Reference backend: per-rule full-history re-evaluation.  The
    detector accumulates its own history from registration on, so hot
    adds get the "start from now" semantics by construction — which is
    what makes it the lifecycle oracle."""

    def __init__(self, engine, **kwargs):
        kwargs["shared_plan"] = False
        super().__init__(engine, **kwargs)

    def add_trigger(self, name, condition, action, **kwargs):
        rule = super().add_trigger(name, condition, action, **kwargs)
        reg = self._rules[name]
        reg.evaluator = NaiveDetector(
            reg.rule.condition, EvalContext(executed=self.executed)
        )
        return rule


BACKENDS = [
    ("naive", NaiveRuleManager),
    ("unshared", lambda e: RuleManager(e, shared_plan=False)),
    ("shared-plan", lambda e: RuleManager(e, shared_plan=True)),
]


#: Executed-free condition templates (the naive oracle re-evaluates old
#: states against the current executed store, which is outside the
#: paper's semantics for executed atoms).
TEMPLATES = [
    "@go",
    "@go & price > 50",
    "price > 30 & !@halt",
    "price > 50 & lasttime price <= 50",
    "previously[3] (price > 60)",
    "@go & (price > 10 since @go)",
    "[x := price] (x > 50 & @go)",
    # Aggregates whose ψ is a temporal formula that is also another
    # rule's subformula (and another aggregate's ψ): one shared node per
    # birth epoch, kept alive by whichever sharers remain.
    "sum(price; @go; lasttime (price > 50)) > 100",
    "lasttime (price > 50) & price < 40",
    "count(price; @go; lasttime (price > 50)) >= 2",
]


def make_engine(metrics=None):
    adb = ActiveDatabase(metrics=metrics)
    adb.declare_item("price", 0)
    return adb


def drive(adb, ops):
    for op in ops:
        if op[0] == "set":
            adb.execute(lambda t, v=op[1]: t.set_item("price", v))
        else:
            adb.post_event(user_event(op[1]))


def signature(manager):
    return (
        [
            (f.rule, f.bindings, f.state_index, f.timestamp, f.shadow)
            for f in manager.firings
        ],
        manager.executed.to_state(),
    )


# ---------------------------------------------------------------------------
# Resource release (the plan-leak regression)
# ---------------------------------------------------------------------------


class TestPlanRelease:
    def test_remove_rule_releases_unshared_nodes(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger(
            "keep", "price > 50 & lasttime price <= 50", RecordingAction()
        )
        baseline_nodes = manager.plan.distinct_nodes()
        manager.add_trigger(
            "transient",
            "lasttime price <= 50 & previously[3] (price > 60)",
            RecordingAction(),
        )
        grown = manager.plan.distinct_nodes()
        assert grown > baseline_nodes  # previously[3] subtree is new
        drive(adb, [("set", 20), ("set", 70), ("set", 40)])
        manager.flush()
        size_before_removal = manager.plan.state_size()
        manager.remove_rule("transient")
        # Exactly the transient rule's unshared subtree is gone; the
        # ``lasttime`` node it shared with "keep" survives.
        assert manager.plan.distinct_nodes() == baseline_nodes
        assert manager.plan.state_size() < size_before_removal
        assert manager.plan.rule_names() == ["keep"]
        # The surviving shared node kept its temporal state: "keep"
        # still sees the crossing 40 -> 55.
        drive(adb, [("set", 55)])
        manager.flush()
        assert [f.rule for f in manager.firings][-1] == "keep"
        manager.detach()

    def test_remove_rule_releases_aggregate_state(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger("anchor", "price > 90", RecordingAction())
        baseline = manager.plan.distinct_nodes()
        manager.add_trigger(
            "agg", "price > avg(price; time >= 0; price > 0)",
            RecordingAction(),
        )
        drive(adb, [("set", 10), ("set", 30), ("set", 20)])
        manager.flush()
        assert manager.plan.state_size() > 0
        manager.remove_rule("agg")
        assert manager.plan.distinct_nodes() == baseline
        # No aggregate rows may survive the owning rule.
        assert manager.plan.state_size() == 0
        manager.detach()

    def test_repeated_add_remove_is_steady_state(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger("keep", "price > 50", RecordingAction())
        drive(adb, [("set", 60)])
        manager.flush()
        nodes = manager.plan.distinct_nodes()
        for round_ in range(5):
            manager.add_trigger(
                "churn", "previously[4] (price > 60)", RecordingAction()
            )
            drive(adb, [("set", 70 + round_)])
            manager.flush()
            manager.remove_rule("churn")
            assert manager.plan.distinct_nodes() == nodes
        manager.detach()


# ---------------------------------------------------------------------------
# Hot-add semantics: "start from now"
# ---------------------------------------------------------------------------


PREFIX = [("set", 70), ("set", 20), ("ev", "go"), ("set", 65), ("set", 40)]
SUFFIX = [("set", 55), ("ev", "go"), ("set", 30), ("set", 80), ("ev", "halt")]


class TestHotAddSemantics:
    @pytest.mark.parametrize("name,factory", BACKENDS, ids=[n for n, _ in BACKENDS])
    @pytest.mark.parametrize("template", [3, 4, 5], ids=lambda t: f"t{t}")
    def test_hot_add_equals_late_attached_manager(self, name, factory, template):
        """A rule added mid-stream must fire exactly like the same rule
        on a manager attached at that point (same engine positions)."""
        adb = make_engine()
        manager = factory(adb)
        manager.add_trigger("static", TEMPLATES[1], RecordingAction())
        drive(adb, PREFIX)
        manager.flush()
        manager.add_trigger("dyn", TEMPLATES[template], RecordingAction())
        drive(adb, SUFFIX)
        manager.flush()
        live = [
            (f.rule, f.bindings, f.state_index, f.timestamp)
            for f in manager.firings
            if f.rule == "dyn"
        ]
        manager.detach()

        oracle_adb = make_engine()
        drive(oracle_adb, PREFIX)  # no manager attached yet
        oracle = factory(oracle_adb)
        oracle.add_trigger("dyn", TEMPLATES[template], RecordingAction())
        drive(oracle_adb, SUFFIX)
        oracle.flush()
        expected = [
            (f.rule, f.bindings, f.state_index, f.timestamp)
            for f in oracle.firings
        ]
        oracle.detach()
        assert live == expected

    def test_replace_restarts_temporal_state(self):
        """Replacing a rule under the *same* condition text still resets
        its temporal operators — no state carries over."""
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger(
            "r", "previously[100] (price > 60)", RecordingAction()
        )
        drive(adb, [("set", 70), ("set", 10)])
        manager.flush()
        assert len(manager.firings) == 2  # remembers the 70
        manager.replace_rule(
            "r", "previously[100] (price > 60)", RecordingAction()
        )
        drive(adb, [("set", 20)])
        manager.flush()
        # The replaced rule has not seen any price > 60 state.
        assert len(manager.firings) == 2
        manager.detach()

    def test_remove_unknown_and_reinstate_unknown_raise(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        with pytest.raises(UnknownRuleError):
            manager.remove_rule("ghost")
        with pytest.raises(UnknownRuleError):
            manager.reinstate_rule("ghost")
        manager.detach()


# ---------------------------------------------------------------------------
# Shadow deployment
# ---------------------------------------------------------------------------


class TestShadowMode:
    def test_shadow_fires_without_side_effects(self):
        adb = make_engine(metrics=True)
        manager = RuleManager(adb, shared_plan=True, trace=True)
        executed_actions = []
        manager.add_trigger(
            "probe", "price > 50", lambda ctx: executed_actions.append(ctx),
            shadow=True,
        )
        manager.add_trigger(
            "chaser", "executed(probe, t) & time >= t", RecordingAction(),
            params=("t",),
        )
        drive(adb, [("set", 60), ("set", 70)])
        manager.flush()
        # Observable: firing records (flagged), traces, metrics.
        shadow_firings = [f for f in manager.firings if f.rule == "probe"]
        assert len(shadow_firings) == 2
        assert all(f.shadow for f in shadow_firings)
        assert len(manager.trace.events(SHADOW_FIRING)) == 2
        assert (
            adb.metrics.counter("shadow_firings_total", rule="probe").value
            == 2
        )
        assert manager.shadow_rules() == ["probe"]
        # Suppressed: the action, the executed store, and anything
        # coupled through it.
        assert executed_actions == []
        assert not any(f.rule == "chaser" for f in manager.firings)
        assert len(manager.executed) == 0

        manager.promote_rule("probe")
        assert manager.shadow_rules() == []
        drive(adb, [("set", 80)])
        manager.flush()
        assert len(executed_actions) == 1
        live = [f for f in manager.firings if f.rule == "probe"][-1]
        assert not live.shadow
        assert len(manager.trace.events(FIRING)) >= 1
        drive(adb, [("set", 5)])  # executed(probe) visible from here on
        manager.flush()
        assert any(f.rule == "chaser" for f in manager.firings)
        assert len(manager.executed.records("probe")) == 1
        assert (
            adb.metrics.counter("rules_promoted_total").value == 1
        )
        ops = [e.data["op"] for e in manager.trace.events(LIFECYCLE)]
        assert "promote" in ops
        manager.detach()

    def test_promote_is_idempotent_and_checked(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger("live", "price > 50", RecordingAction())
        manager.promote_rule("live")  # already live: no-op
        with pytest.raises(UnknownRuleError):
            manager.promote_rule("ghost")
        manager.detach()


# ---------------------------------------------------------------------------
# Execution records exist only for rules a live condition reads
# ---------------------------------------------------------------------------


#: ``follow`` reads ``base``'s executions; nothing reads ``follow``'s.
BASE = "price > 50"
FOLLOW = "executed(base, t) & time <= t + 2"
LATER = [("set", 90), ("set", 20), ("ev", "go"), ("set", 75)]


def add_follow(manager, shadow=False):
    manager.add_trigger(
        "follow", FOLLOW, RecordingAction(), params=("t",), shadow=shadow
    )


def reader_first_added(adb, manager):
    """The first reader arrives hot: ``base`` ran unread until then, so
    ``follow`` sees only executions from its registration on."""
    manager.add_trigger("base", BASE, RecordingAction())
    drive(adb, PREFIX)
    manager.flush()
    assert len(manager.executed) == 0
    born = adb.now
    add_follow(manager)
    drive(adb, SUFFIX)
    manager.flush()
    times = [r.time for r in manager.executed.records()]
    assert times and min(times) > born


def reader_last_removed(adb, manager):
    """Removing the last reader drops ``base``'s records and stops
    recording; a reader added again starts from an empty past."""
    manager.add_trigger("base", BASE, RecordingAction())
    add_follow(manager)
    drive(adb, PREFIX)
    manager.flush()
    assert {r.rule for r in manager.executed.records()} == {"base"}
    manager.remove_rule("follow")
    assert len(manager.executed) == 0
    drive(adb, SUFFIX)
    manager.flush()
    assert len(manager.executed) == 0
    add_follow(manager)
    drive(adb, LATER)
    manager.flush()
    assert manager.executed.records()


def reader_replaced(adb, manager):
    """Replacing the only reader with another reader of ``base`` keeps
    ``base``'s records: the reader set changes once, after the swap."""
    manager.add_trigger("base", BASE, RecordingAction())
    add_follow(manager)
    drive(adb, PREFIX)
    manager.flush()
    kept = manager.executed.records()
    assert kept
    manager.replace_rule(
        "follow", "executed(base, t) & time <= t + 4", RecordingAction(),
        params=("t",),
    )
    assert manager.executed.records() == kept
    drive(adb, SUFFIX)
    manager.flush()
    assert manager.executed.records()[: len(kept)] == kept


def reader_in_shadow(adb, manager):
    """A shadow reader is a reader: ``base`` is recorded for it, and it
    fires (shadow-flagged) on what it reads; its own firings execute
    nothing."""
    manager.add_trigger("base", BASE, RecordingAction())
    add_follow(manager, shadow=True)
    drive(adb, PREFIX + SUFFIX)
    manager.flush()
    assert {r.rule for r in manager.executed.records()} == {"base"}
    follows = manager.firings_of("follow")
    assert follows and all(f.shadow for f in follows)


def reader_is_a_constraint(adb, manager):
    """An integrity constraint reads ``base``: no price above 85 right
    after ``base`` ran.  The vetoed commit is the proof it read."""
    manager.add_trigger("base", BASE, RecordingAction())
    manager.add_integrity_constraint(
        "calm", "!(executed(base, t) & time = t + 1 & price > 85)"
    )
    aborted = 0
    for op in PREFIX + [("set", 90), ("set", 60), ("set", 95), ("set", 30)]:
        try:
            drive(adb, [op])
        except TransactionAborted:
            aborted += 1
    manager.flush()
    assert aborted == 1
    assert {r.rule for r in manager.executed.records()} == {"base"}


def reader_is_a_monitor(adb, manager):
    """While a future monitor is registered every execution is kept
    (future formulas are not walked); its removal drops what no
    condition reads."""
    manager.add_trigger("base", BASE, RecordingAction())
    manager.add_trigger("other", "@go", RecordingAction())
    manager.add_future_monitor("m", "eventually @halt")
    drive(adb, PREFIX)
    manager.flush()
    assert {r.rule for r in manager.executed.records()} == {"base", "other"}
    manager.remove_rule("m")
    assert len(manager.executed) == 0
    add_follow(manager)
    drive(adb, SUFFIX)
    manager.flush()
    assert {r.rule for r in manager.executed.records()} == {"base"}


READER_ROWS = [
    reader_first_added,
    reader_last_removed,
    reader_replaced,
    reader_in_shadow,
    reader_is_a_constraint,
    reader_is_a_monitor,
]


class TestExecutedReaders:
    @pytest.mark.parametrize(
        "row", READER_ROWS, ids=[row.__name__ for row in READER_ROWS]
    )
    def test_row_matches_naive_backend(self, row):
        """Each row's own assertions hold on every backend, and every
        backend's firings and executed store equal the naive one's."""
        results = {}
        for name, factory in BACKENDS:
            adb = make_engine()
            manager = factory(adb)
            row(adb, manager)
            results[name] = signature(manager)
            manager.detach()
        assert results["naive"][0]
        for name, sig in results.items():
            assert sig == results["naive"], f"backend {name} diverged"

    def test_first_reader_sees_what_a_fresh_engine_sees(self):
        """A reader added to an unread rule fires exactly as the same two
        rules on a manager attached at that point."""
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        reader_first_added(adb, manager)
        live = [
            (f.bindings, f.state_index, f.timestamp)
            for f in manager.firings_of("follow")
        ]
        manager.detach()

        fresh_adb = make_engine()
        drive(fresh_adb, PREFIX)
        fresh = RuleManager(fresh_adb, shared_plan=True)
        fresh.add_trigger("base", BASE, RecordingAction())
        add_follow(fresh)
        drive(fresh_adb, SUFFIX)
        fresh.flush()
        assert live and live == [
            (f.bindings, f.state_index, f.timestamp)
            for f in fresh.firings_of("follow")
        ]
        fresh.detach()


# ---------------------------------------------------------------------------
# Differential conformance under lifecycle churn
# ---------------------------------------------------------------------------


def run_script(factory, script, checkpoint):
    """Interpret a lifecycle script against one backend.  With
    ``checkpoint=True`` every ("checkpoint",) op round-trips the manager
    through ``to_state`` -> fresh manager -> ``from_state`` (the naive
    oracle runs with ``checkpoint=False``, which is the assertion that a
    restore is semantically invisible)."""
    adb = make_engine()
    manager = factory(adb)
    manager.add_trigger("s0", TEMPLATES[1], RecordingAction())
    manager.add_trigger("s1", TEMPLATES[3], RecordingAction())
    defs = [["s0", 1, False], ["s1", 3, False]]
    counter = 0
    for op in script:
        kind = op[0]
        if kind == "set":
            adb.execute(lambda t, v=op[1]: t.set_item("price", v))
        elif kind == "ev":
            adb.post_event(user_event(op[1]))
        elif kind == "add":
            name = f"dyn{counter}"
            counter += 1
            manager.add_trigger(
                name, TEMPLATES[op[1]], RecordingAction(), shadow=op[2]
            )
            defs.append([name, op[1], op[2]])
        elif kind == "remove":
            if not defs:
                continue
            i = op[1] % len(defs)
            manager.remove_rule(defs[i][0])
            del defs[i]
        elif kind == "replace":
            if not defs:
                continue
            i = op[1] % len(defs)
            name = defs[i][0]
            manager.replace_rule(name, TEMPLATES[op[2]], RecordingAction())
            del defs[i]
            defs.append([name, op[2], False])
        elif kind == "promote":
            if not defs:
                continue
            i = op[1] % len(defs)
            manager.promote_rule(defs[i][0])
            defs[i][2] = False
        elif kind == "checkpoint":
            if not checkpoint:
                continue
            manager.flush()
            state = manager.to_state()
            manager.detach()
            manager = factory(adb)
            for name, template, shadow in defs:
                manager.add_trigger(
                    name, TEMPLATES[template], RecordingAction(),
                    shadow=shadow,
                )
            report = manager.from_state(state)
            assert report == {"added": [], "dropped": [], "changed": []}
    manager.flush()
    sig = signature(manager)
    manager.detach()
    return sig


lifecycle_scripts = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 100)),
        st.tuples(st.just("ev"), st.sampled_from(["go", "halt"])),
        st.tuples(
            st.just("add"),
            st.integers(0, len(TEMPLATES) - 1),
            st.booleans(),
        ),
        st.tuples(st.just("remove"), st.integers(0, 7)),
        st.tuples(
            st.just("replace"),
            st.integers(0, 7),
            st.integers(0, len(TEMPLATES) - 1),
        ),
        st.tuples(st.just("promote"), st.integers(0, 7)),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=6,
    max_size=14,
)


@given(script=lifecycle_scripts)
@settings(max_examples=16, deadline=None)
def test_lifecycle_backends_agree(script):
    results = {
        name: run_script(factory, script, checkpoint=(name != "naive"))
        for name, factory in BACKENDS
    }
    oracle = results["naive"]
    for name, sig in results.items():
        assert sig == oracle, (
            f"backend {name} diverged under lifecycle churn"
        )


def fifty_rule_script():
    """Deterministic churn over a 50-rule base: states interleaved with
    removals, replacements, and (shadow) additions."""
    script = []
    values = [20, 60, 40, 80, 55, 90, 30, 70]
    for i, v in enumerate(values):
        script.append(("set", v))
        if i % 3 == 1:
            script.append(("ev", "go"))
    for i in range(0, 10):
        script.append(("remove", 3 * i))
    for i in range(5):
        script.append(("replace", 2 * i, (i + 2) % len(TEMPLATES)))
    for i in range(5):
        script.append(("add", i % len(TEMPLATES), i % 2 == 0))
    script.append(("promote", 1))
    script.append(("checkpoint",))
    for i, v in enumerate(reversed(values)):
        script.append(("set", v + 1))
        if i % 3 == 2:
            script.append(("ev", "halt"))
    return script


def test_fifty_rule_churn_across_backends():
    """The acceptance bar: a 50-rule live engine with mid-stream
    lifecycle changes produces identical firings on every backend."""

    def run(factory):
        adb = make_engine()
        manager = factory(adb)
        for i in range(50):
            manager.add_trigger(
                f"r{i}", TEMPLATES[i % len(TEMPLATES)], RecordingAction(),
                priority=i % 3,
            )
        defs = [[f"r{i}", i % len(TEMPLATES), False, i % 3] for i in range(50)]
        counter = 0
        for op in fifty_rule_script():
            kind = op[0]
            if kind == "set":
                adb.execute(lambda t, v=op[1]: t.set_item("price", v))
            elif kind == "ev":
                adb.post_event(user_event(op[1]))
            elif kind == "remove":
                i = op[1] % len(defs)
                manager.remove_rule(defs[i][0])
                del defs[i]
            elif kind == "replace":
                i = op[1] % len(defs)
                name = defs[i][0]
                manager.replace_rule(
                    name, TEMPLATES[op[2]], RecordingAction()
                )
                del defs[i]
                defs.append([name, op[2], False, 0])
            elif kind == "add":
                name = f"dyn{counter}"
                counter += 1
                manager.add_trigger(
                    name, TEMPLATES[op[1]], RecordingAction(), shadow=op[2]
                )
                defs.append([name, op[1], op[2], 0])
            elif kind == "promote":
                i = op[1] % len(defs)
                manager.promote_rule(defs[i][0])
                defs[i][2] = False
            elif kind == "checkpoint":
                manager.flush()
                if isinstance(manager, NaiveRuleManager):
                    continue
                state = manager.to_state()
                manager.detach()
                manager = factory(adb)
                # Restore prerequisite: re-register the surviving rule
                # set with its live definitions (priority included).
                for name, template, shadow, priority in defs:
                    manager.add_trigger(
                        name, TEMPLATES[template], RecordingAction(),
                        shadow=shadow, priority=priority,
                    )
                manager.from_state(state)
        manager.flush()
        sig = signature(manager)
        manager.detach()
        return sig

    results = {name: run(factory) for name, factory in BACKENDS}
    oracle = results["naive"]
    assert oracle[0], "churn scenario produced no firings"
    for name, sig in results.items():
        assert sig == oracle, f"backend {name} diverged"


# ---------------------------------------------------------------------------
# Checkpoint restore across rule-set drift
# ---------------------------------------------------------------------------


class TestDriftRestore:
    def _checkpoint(self):
        adb = make_engine()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger("a", "price > 50", RecordingAction())
        manager.add_trigger(
            "b", "previously[10] (price > 50)", RecordingAction()
        )
        manager.add_trigger("d", "price > 30", RecordingAction())
        drive(adb, [("set", 60), ("set", 20)])
        manager.flush()
        state = manager.to_state()
        fired_before = len(manager.firings)
        manager.detach()
        return adb, state, fired_before

    def test_restore_reports_and_tolerates_drift(self):
        adb, state, fired_before = self._checkpoint()
        manager = RuleManager(adb, shared_plan=True)
        manager.add_trigger(
            "b", "previously[10] (price > 50)", RecordingAction()
        )
        manager.add_trigger("c", "price > 10", RecordingAction())
        manager.add_trigger("d", "price > 35", RecordingAction())  # redefined
        with pytest.raises(RecoveryError):
            manager.from_state(state)  # strict: drift rejected
        report = manager.from_state(state, strict=False)
        assert report == {
            "added": ["c"],
            "dropped": ["a"],
            "changed": ["d"],
        }
        # History of the dropped rule survives in the firing log.
        assert len(manager.firings) == fired_before
        drive(adb, [("set", 35)])
        manager.flush()
        fired = [f.rule for f in manager.firings[fired_before:]]
        # "b" kept its pre-checkpoint memory of the 60; "c" is live from
        # the restore point; "a" is gone; redefined "d" (> 35) must not
        # fire at exactly 35 — and neither would its old definition.
        assert sorted(fired) == ["b", "c"]
        drive(adb, [("set", 40)])
        manager.flush()
        assert "d" in [f.rule for f in manager.firings[fired_before:]]
        manager.detach()
