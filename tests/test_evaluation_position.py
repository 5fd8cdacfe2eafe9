"""Where a state is evaluated: once, in commit order, when it is published.

Every condition (the triggers' plan, each integrity constraint, each
future monitor) steps a state when the event bus delivers it, and the bus
delivers states in commit order: a state published while another one is
being delivered waits until that one has reached every subscriber.
Section 8 batching (``batch_size`` > 1 or an open ``engine.batch()``)
delays only what a firing puts out — its firing-log entry and its action
— never the position at which its condition was evaluated.  The oracle is
:mod:`repro.ptl.semantics` over the engine's own history.
"""

import pytest

from repro.engine import ActiveDatabase
from repro.errors import ActionError, TransactionAborted
from repro.events import user_event
from repro.ptl import satisfies
from repro.rules import DbAction, PyAction, RecordingAction, RuleManager


def oracle_indices(adb, condition) -> list:
    """Positions of ``adb``'s history that satisfy ``condition``."""
    states = adb.history.states
    return [i for i in range(len(states)) if satisfies(states, i, condition)]


def indices(manager, rule) -> list:
    return [f.state_index for f in manager.firings_of(rule)]


def post(name):
    def action(ctx):
        ctx.engine.post_event(user_event(name))

    return action


# -- executed(r, x, t) pins: batch_size 1, batch_size N, group commit --------

#: (time, event, parameter) per state.  ``spike`` fires on every @go(x); its
#: execution records are read by ``follow`` within 4 time units and
#: dropped past the 6-unit retention horizon.
EXEC_OPS = [
    (1, "go", "a"), (2, "tick", None), (3, "go", "b"), (4, "tick", None),
    (6, "tick", None), (8, "go", "c"), (9, "tick", None), (12, "tick", None),
    (13, "tick", None), (15, "go", "d"), (16, "tick", None),
    (22, "tick", None),
]

#: follow's firings within 4 time units: (x, state index).  The window is
#: inside the retention, so every mode reads the same records.
FOLLOW = [
    ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("b", 4), ("c", 6), ("c", 7),
    ("d", 10),
]

#: The same rule within 9 time units, past the 6-unit retention: which
#: records are still there depends on when outputs were last released
#: (the horizon is the newest delivered state's time at the last flush),
#: so each mode has its own firings — the same before and after stepping
#: moved to publication.
SINCE_RETENTION = {
    "batch-1": [
        ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("a", 4), ("b", 4),
        ("a", 5), ("b", 5), ("b", 6), ("c", 6), ("b", 7), ("c", 7),
        ("c", 8), ("c", 9), ("d", 10), ("d", 11),
    ],
    "batch-3": [
        ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("a", 4), ("b", 4),
        ("a", 5), ("b", 5), ("b", 6), ("c", 6), ("b", 7), ("c", 7),
        ("c", 8), ("c", 9), ("c", 10), ("d", 10), ("d", 11),
    ],
    "batch-5": [
        ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("a", 4), ("b", 4),
        ("a", 5), ("b", 5), ("a", 6), ("b", 6), ("c", 6), ("b", 7),
        ("c", 7), ("c", 8), ("c", 9), ("d", 10), ("d", 11),
    ],
    "group-commit": [
        ("a", 1), ("a", 2), ("a", 3), ("b", 3), ("a", 4), ("b", 4),
        ("a", 5), ("b", 5), ("a", 6), ("b", 6), ("c", 6), ("b", 7),
        ("c", 7), ("c", 8), ("c", 9), ("c", 10), ("d", 10), ("d", 11),
    ],
}

MODES = {
    "batch-1": {},
    "batch-3": {"batch_size": 3},
    "batch-5": {"batch_size": 5},
    "group-commit": {"group": 4},
}


def run_executed(window, batch_size=1, group=0):
    adb = ActiveDatabase()
    manager = RuleManager(adb, batch_size=batch_size, executed_retention=6)
    spike = RecordingAction()
    manager.add_trigger("spike", "@go(x)", spike, params=("x",))
    manager.add_trigger(
        "follow", f"executed(spike, x, t) & time <= t + {window}",
        RecordingAction(), params=("x", "t"),
    )

    def apply(op):
        ts, kind, x = op
        if kind == "go":
            adb.post_event(user_event("go", x), at_time=ts)
        else:
            adb.tick(at_time=ts)

    if group:
        for start in range(0, len(EXEC_OPS), group):
            with adb.batch():
                for op in EXEC_OPS[start:start + group]:
                    apply(op)
    else:
        for op in EXEC_OPS:
            apply(op)
    manager.flush()
    follow = sorted(
        (f.state_index, dict(f.bindings)["x"])
        for f in manager.firings_of("follow")
    )
    return spike.calls, [(x, i) for i, x in follow], manager.executed


@pytest.mark.parametrize("mode", list(MODES))
def test_executed_atoms_read_the_same_records_in_every_mode(mode):
    calls, follow, executed = run_executed(4, **MODES[mode])
    assert [t for _, t in calls] == [1, 3, 8, 15]
    assert follow == FOLLOW
    # The last flush came after t=22: every record is past the horizon.
    assert len(executed) == 0


@pytest.mark.parametrize("mode", list(MODES))
def test_executed_retention_horizon_per_mode(mode):
    _, follow, _ = run_executed(9, **MODES[mode])
    assert follow == SINCE_RETENTION[mode]


def test_an_actions_commit_reads_the_store_after_the_retention_discard():
    """A commit made by an action is stepped at its validation (an IC is
    registered), inside the release of the outputs that ran the action.
    The retention discard comes first, so the commit reads the store its
    delivery would: ``follow`` does not see ``a``'s record, dropped at
    the flush of t=10, at the commit made at t=11."""
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    manager = RuleManager(adb, executed_retention=6)
    manager.add_integrity_constraint("nonnegative", "price >= 0")
    manager.add_trigger("spike", "@go(x)", RecordingAction(), params=("x",))
    follow = RecordingAction()
    manager.add_trigger(
        "follow", "executed(spike, x, t) & time <= t + 20", follow,
        params=("x", "t"),
    )

    def commit(ctx):
        ctx.engine.execute(lambda t: t.set_item("price", 1), commit_time=11)

    manager.add_trigger("kick", "@kick", commit)
    adb.post_event(user_event("go", "a"), at_time=1)
    adb.post_event(user_event("kick"), at_time=10)
    assert [(s.index, s.timestamp) for s in adb.history.states] == [
        (0, 1), (1, 10), (2, 11),
    ]
    assert indices(manager, "follow") == [1]


# -- commit order -------------------------------------------------------------


def test_group_commit_steps_an_action_state_after_the_batch():
    """``@go``'s action posts ``@pong`` when the batch is durable; the
    state it appends comes after the batch's states, and ``lasttime @go``
    is evaluated on them in that order — it fires at index 1."""
    adb = ActiveDatabase()
    manager = RuleManager(adb)
    manager.add_trigger("go", "@go", post("pong"))
    after = manager.add_trigger("after_go", "lasttime @go", RecordingAction())
    with adb.batch():
        adb.post_event(user_event("go"))
        adb.post_event(user_event("other"))
        adb.post_event(user_event("other"))
    assert adb.state_count == 4
    assert oracle_indices(adb, after.condition) == [1]
    assert indices(manager, "after_go") == [1]
    assert indices(manager, "go") == [0]


def test_batch_size_delays_outputs_not_the_evaluation_position():
    adb = ActiveDatabase()
    manager = RuleManager(adb, batch_size=3)
    manager.add_trigger("go", "@go", post("pong"))
    after = manager.add_trigger("after_go", "lasttime @go", RecordingAction())
    adb.post_event(user_event("go"))
    adb.post_event(user_event("other"))
    assert manager.firings == []  # delayed
    adb.post_event(user_event("other"))  # third state: released
    assert adb.state_count == 4
    manager.flush()
    assert indices(manager, "after_go") == oracle_indices(
        adb, after.condition
    ) == [1]


def test_a_second_manager_sees_states_in_commit_order():
    adb = ActiveDatabase()
    first = RuleManager(adb)

    def chain(ctx):
        if ctx.state.index < 2:
            ctx.engine.post_event(user_event("ping"))

    first.add_trigger("chain", "@ping", chain)
    second = RuleManager(adb)
    seen = []
    second.add_trigger(
        "watch", "@ping", lambda ctx: seen.append(ctx.state.index)
    )
    adb.post_event(user_event("ping"))
    assert seen == [0, 1, 2]
    assert indices(second, "watch") == [0, 1, 2]


def test_ic_steps_every_state_an_action_commits_in_order():
    """An action commits X=1, X=2 and then X=0: the constraint has stepped
    X=1 and X=2 — neither delivered yet — before it judges X=0, and
    vetoes it.  One IC evaluation per state."""
    adb = ActiveDatabase()
    adb.declare_item("X", 0)
    manager = RuleManager(adb)
    manager.add_integrity_constraint("stay_up", "!lasttime(X > 0) | X >= 1")
    vetoed = []

    def commits(ctx):
        for value in (1, 2, 0):
            try:
                ctx.engine.execute(lambda t, v=value: t.set_item("X", v))
            except TransactionAborted:
                vetoed.append(value)

    manager.add_trigger("commits", "@go", commits)
    adb.post_event(user_event("go"))
    assert vetoed == [0]
    assert adb.state.item("X") == 2
    assert adb.state_count == 4
    assert manager.stats_of("stay_up").evaluations == 4


def test_failing_action_does_not_drop_the_state_it_committed():
    """``@go``'s action posts ``@ping`` and then raises.  The error
    propagates at once; the queued ``@ping`` state is not dropped but
    delivered, in order, by the next flush (or ahead of the next
    published state)."""
    adb = ActiveDatabase()
    manager = RuleManager(adb)

    def post_then_fail(ctx):
        ctx.engine.post_event(user_event("ping"))
        raise RuntimeError("boom")

    manager.add_trigger("go", "@go", post_then_fail)
    pinged = RecordingAction()
    manager.add_trigger("ping", "@ping", pinged)
    later = []
    adb.bus.subscribe(lambda state: later.append(state.index))
    with pytest.raises(ActionError, match="boom"):
        adb.post_event(user_event("go"))
    assert later == [0]
    manager.flush()
    assert later == [0, 1]
    assert indices(manager, "ping") == [1]
    assert len(pinged.calls) == 1
    adb.post_event(user_event("ping"))
    assert later == [0, 1, 2]


def test_failing_subscriber_names_its_state_and_strands_nothing():
    """A subscriber that raises on state #0 does not keep #0 from the
    subscribers after it; the ActionError names #0, and the #1 that
    ``@go``'s action queued is delivered ahead of the next state."""
    adb = ActiveDatabase()
    manager = RuleManager(adb)
    manager.add_trigger("go", "@go", post("ping"))
    manager.add_trigger("ping", "@ping", RecordingAction())

    def fail_on_first(state):
        if state.index == 0:
            raise RuntimeError("boom")

    adb.bus.subscribe(fail_on_first)
    later = []
    adb.bus.subscribe(lambda state: later.append(state.index))
    with pytest.raises(ActionError, match="state #0"):
        adb.post_event(user_event("go"))
    assert later == [0]
    adb.tick()
    assert later == [0, 1, 2]
    assert indices(manager, "ping") == [1]


@pytest.mark.parametrize("kind", [PyAction, DbAction])
def test_failing_action_names_the_state_it_fired_at(kind):
    adb = ActiveDatabase()
    manager = RuleManager(adb)

    def boom(*_):
        raise RuntimeError("boom")

    manager.add_trigger("bad", "@go", kind(boom))
    adb.tick(at_time=3)
    with pytest.raises(
        ActionError, match=r"rule 'bad' failed at state #1 \(t=5\): boom"
    ):
        adb.post_event(user_event("go"), at_time=5)


def test_failure_on_a_queued_state_names_that_state():
    adb = ActiveDatabase()
    manager = RuleManager(adb)
    manager.add_trigger("go", "@go", post("ping"))

    def fail_on_second(state):
        if state.index == 1:
            raise RuntimeError("boom")

    adb.bus.subscribe(fail_on_second)
    with pytest.raises(ActionError, match="state #1"):
        adb.post_event(user_event("go"))
    assert adb.state_count == 2
