"""Integrity constraints step once per state (Section 3's
``attempts_to_commit``).

The commit validator steps every IC on the candidate state; when that
candidate is published the step is kept as the IC's step for the state,
and when it is not — a veto, a commit the disk refuses, another
validator's veto — the step is undone before the IC sees anything else.
So an IC is stepped once per state, and a commit attempted from inside a
trigger cascade is judged on every state committed before it, exactly
as the same commits made directly are.
"""

import pytest

from repro.engine import ActiveDatabase
from repro.errors import StorageDegradedError, TransactionAborted
from repro.events import user_event
from repro.recovery import DISK_FULL, FaultInjector, RecoveryManager
from repro.rules import PyAction, RecordingAction, RuleManager

from tests.helpers import firing_sig

#: No price of 2 right after a price of 1.
NO_ONE_TWO = "!(price = 2 & lasttime price = 1)"
#: No price of 2 once the trigger ``one`` (a price of 1) has executed.
NO_TWO_AFTER_ONE = "!(price = 2 & executed(one, t))"
#: No commit of a transaction that raises ``bad``.
NO_BAD = "!@bad"
#: No ``ping`` once a ``bad`` has been committed.
NO_PING_AFTER_BAD = "!(@ping & previously @bad)"


def make_engine():
    adb = ActiveDatabase()
    adb.declare_item("price", 0)
    return adb


def attempt(adb, price, at_time):
    """Commit ``price``; the verdict is True when committed, False when
    an IC vetoed it."""
    try:
        adb.execute(lambda t: t.set_item("price", price), commit_time=at_time)
    except TransactionAborted:
        return False
    return True


def raise_event(adb, name, at_time):
    """Commit a transaction that writes nothing and raises ``name``; the
    verdict as in :func:`attempt`."""
    try:
        adb.execute(lambda t: t.post_event(user_event(name)), commit_time=at_time)
    except TransactionAborted:
        return False
    return True


class TestCascade:
    def test_cascade_is_vetoed_like_the_direct_sequence(self):
        direct = make_engine()
        RuleManager(direct).add_integrity_constraint("no_1_2", NO_ONE_TWO)
        assert [attempt(direct, p, t) for t, p in [(1, 1), (2, 2)]] == [
            True,
            False,
        ]

        adb = make_engine()
        manager = RuleManager(adb)
        manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        verdicts = []

        def commit_one_then_two(ctx):
            verdicts.append(attempt(ctx.engine, 1, 2))
            verdicts.append(attempt(ctx.engine, 2, 3))

        manager.add_trigger("go", "@go", PyAction(commit_one_then_two))
        adb.post_event(user_event("go"), at_time=1)
        assert verdicts == [True, False]
        assert adb.state.item("price") == 1
        assert direct.state.item("price") == 1

    def test_cascade_reads_the_executions_before_its_commit(self):
        """The IC reads ``one``'s execution at the cascade's first commit
        when it judges the second, as it does for the same two commits
        made directly: each state is settled (execution records written)
        before the next one is stepped."""

        def build():
            adb = make_engine()
            manager = RuleManager(adb)
            manager.add_trigger("one", "price = 1", RecordingAction())
            manager.add_integrity_constraint("no_2_after_1", NO_TWO_AFTER_ONE)
            return adb, manager

        direct, _ = build()
        assert [attempt(direct, p, t) for t, p in [(1, 1), (2, 2)]] == [
            True,
            False,
        ]

        adb, manager = build()
        verdicts = []

        def commit_one_then_two(ctx):
            verdicts.append(attempt(ctx.engine, 1, 2))
            verdicts.append(attempt(ctx.engine, 2, 3))

        manager.add_trigger("go", "@go", PyAction(commit_one_then_two))
        adb.post_event(user_event("go"), at_time=1)
        assert verdicts == [True, False]
        assert adb.state.item("price") == 1


class TestOneStepPerState:
    def test_ic_plan_steps_once_per_commit(self):
        adb = make_engine()
        manager = RuleManager(adb)
        manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        plan = manager.plan
        calls = []
        step = plan.step
        plan.step = lambda state: calls.append(state.index) or step(state)
        verdicts = [attempt(adb, p, t) for t, p in enumerate([5, 1, 3], 1)]
        assert verdicts == [True, True, True]
        assert calls == [0, 1, 2]
        assert manager.stats_of("no_1_2").evaluations == 3

    def test_veto_steps_the_abort_state_once(self):
        adb = make_engine()
        manager = RuleManager(adb)
        manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        plan = manager.plan
        calls = []
        step = plan.step
        plan.step = lambda state: calls.append(state.index) or step(state)
        verdicts = [attempt(adb, p, t) for t, p in [(1, 1), (2, 2), (3, 3)]]
        # the vetoed candidate is stepped, undone, and its abort state
        # (index 1 again) stepped in its place
        assert verdicts == [True, False, True]
        assert calls == [0, 1, 1, 2]
        assert manager.stats_of("no_1_2").evaluations == 3


def refuse_degraded(tmp_path, adb):
    adb.enter_degraded("test")
    return adb.exit_degraded


def refuse_disk_full(tmp_path, adb):
    injector = FaultInjector()
    RecoveryManager(tmp_path, fsync=False, injector=injector).start(adb)
    injector.arm_io(DISK_FULL, times=None)

    def heal():
        injector.disarm(DISK_FULL)
        adb.exit_degraded()

    return heal


class TestUnpublishedTrials:
    @pytest.mark.parametrize(
        "refuse", [refuse_degraded, refuse_disk_full], ids=["degraded", "disk-full"]
    )
    def test_refused_commit_leaves_no_trace(self, tmp_path, refuse):
        """A commit the disk refuses passed the IC, so its trial is
        pending when the commit fails; checkpoints and later verdicts
        equal those of a twin that never attempted it."""
        twin = make_engine()
        twin_m = RuleManager(twin)
        twin_m.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        assert attempt(twin, 1, 1)

        adb = make_engine()
        manager = RuleManager(adb)
        manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        assert attempt(adb, 1, 1)
        heal = refuse(tmp_path, adb)
        with pytest.raises(StorageDegradedError):
            attempt(adb, 7, 2)
        assert manager.to_state() == twin_m.to_state()
        heal()
        assert attempt(adb, 2, 3) is attempt(twin, 2, 3) is False
        assert manager.to_state() == twin_m.to_state()

    def test_hot_add_after_a_refused_commit(self, tmp_path):
        """A trigger added after a commit the disk refused compiles on the
        plan as it was before that commit's trial: its firings and the
        plan's checkpoint equal those of a twin that never attempted the
        commit."""

        def build():
            adb = make_engine()
            manager = RuleManager(adb)
            manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
            return adb, manager

        twin, twin_m = build()
        adb, manager = build()
        assert attempt(twin, 1, 1) and attempt(adb, 1, 1)
        heal = refuse_disk_full(tmp_path, adb)
        with pytest.raises(StorageDegradedError):
            attempt(adb, 7, 2)
        for m in (manager, twin_m):
            m.add_trigger("rise", "price > 1 & lasttime price <= 1", RecordingAction())
        heal()
        for t, p in [(3, 5), (4, 0), (5, 2), (6, 1), (7, 2)]:
            assert attempt(adb, p, t) is attempt(twin, p, t)
        manager.flush()
        twin_m.flush()
        assert firing_sig(manager) == firing_sig(twin_m)
        assert manager.firings_of("rise")
        assert manager.plan.to_state() == twin_m.plan.to_state()

    def test_second_validators_veto_undoes_the_trial(self):
        """Two managers' ICs on one engine: the first passes the
        candidate, the second vetoes it — the first's trial is undone,
        and it goes on like a twin whose transaction aborted."""
        twin = make_engine()
        twin_m = RuleManager(twin)
        twin_m.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        assert attempt(twin, 1, 1)
        txn = twin.begin()
        txn.set_item("price", 7)
        txn.abort()

        adb = make_engine()
        manager = RuleManager(adb)
        manager.add_integrity_constraint("no_1_2", NO_ONE_TWO)
        RuleManager(adb).add_integrity_constraint("cap", "price <= 5")
        assert attempt(adb, 1, 1)
        assert not attempt(adb, 7, 2)
        assert manager.plan.to_state() == twin_m.plan.to_state()
        assert attempt(adb, 2, 3) is attempt(twin, 2, 3) is False
        assert manager.plan.to_state() == twin_m.plan.to_state()

    def test_veto_of_a_txn_without_writes_steps_the_abort_state(self, tmp_path):
        """A transaction that writes nothing leaves the database object as
        it was, so its abort state shares the candidate's database, index
        and timestamp; only the events differ.  The ICs step the abort
        state, as WAL replay does: the vetoed ``bad`` never happened."""

        def setup(engine):
            manager = RuleManager(engine)
            manager.add_integrity_constraint("no_bad", NO_BAD)
            manager.add_integrity_constraint("no_ping", NO_PING_AFTER_BAD)
            return manager

        adb = ActiveDatabase()
        manager = setup(adb)
        rm = RecoveryManager(tmp_path, fsync=False)
        rm.start(adb)
        assert not raise_event(adb, "bad", 1)
        assert raise_event(adb, "ping", 2)
        rm.stop()
        replayed = RecoveryManager(tmp_path).recover(setup=setup).manager
        assert replayed.engine.state_count == adb.state_count == 2
        assert replayed.plan.to_state() == manager.plan.to_state()
