"""Tests for the valid-time model (Section 9): retroactive updates,
committed/collapsed histories, tentative vs definite triggers, online vs
offline satisfaction, and Theorem 2."""

import pytest

from repro.datamodel import FLOAT, STRING, Schema
from repro.errors import RetroactiveLimitError, TransactionAborted
from repro.events import user_event
from repro.ptl import parse_formula, satisfies
from repro.validtime import (
    ConstraintEnforcer,
    DefiniteTrigger,
    TentativeTrigger,
    ValidTimeDatabase,
    check_theorem2,
    offline_satisfied,
    online_satisfied,
)


@pytest.fixture
def vtdb():
    vtdb = ValidTimeDatabase(start_time=0)
    vtdb.declare_item("PRICE", 10.0)
    return vtdb


def set_price(vtdb, price, valid_time, commit_time):
    txn = vtdb.begin()
    txn.set_item("PRICE", price, valid_time=valid_time)
    return txn.commit(at_time=commit_time)


class TestModel:
    def test_update_at_valid_time(self, vtdb):
        """The paper's example: the price update occurs at 12:50 but
        commits at 1pm — the history shows the change at the valid time."""
        set_price(vtdb, 72.0, valid_time=50, commit_time=60)
        h = vtdb.committed_history()
        # states: one at vt 50 (update) and one at 60 (commit)
        assert [s.timestamp for s in h] == [50, 60]
        assert h[0].item("PRICE") == 72.0
        assert h[1].item("PRICE") == 72.0

    def test_retroactive_insertion_between_states(self, vtdb):
        set_price(vtdb, 20.0, valid_time=10, commit_time=11)
        set_price(vtdb, 40.0, valid_time=30, commit_time=31)
        # a late update with valid time 20, between the two
        set_price(vtdb, 25.0, valid_time=20, commit_time=35)
        h = vtdb.committed_history()
        ts = [s.timestamp for s in h]
        assert ts == [10, 11, 20, 30, 31, 35]
        by_time = {s.timestamp: s.item("PRICE") for s in h}
        assert by_time[10] == 20.0
        assert by_time[20] == 25.0  # retroactive value
        assert by_time[30] == 40.0  # downstream unaffected (overwritten)

    def test_update_joins_existing_state(self, vtdb):
        vtdb.declare_item("VOLUME", 0)
        set_price(vtdb, 20.0, valid_time=10, commit_time=11)
        txn = vtdb.begin()
        txn.set_item("VOLUME", 99, valid_time=10)
        txn.commit(at_time=12)
        h = vtdb.committed_history()
        state10 = h.state_at_time(10)
        assert state10.item("PRICE") == 20.0
        assert state10.item("VOLUME") == 99

    def test_committed_history_at_time_excludes_late_commits(self, vtdb):
        """u1 before u2 but committed in the reverse order: the committed
        history at the first commit time lacks the earlier-valid update."""
        t1 = vtdb.begin()
        t1.set_item("PRICE", 20.0, valid_time=10)
        t2 = vtdb.begin()
        t2.set_item("PRICE", 30.0, valid_time=15)
        t2.commit(at_time=20)  # commit-T2 first
        t1.commit(at_time=25)  # commit-T1 later
        at_20 = vtdb.committed_history(20)
        # only u2's effect is visible at time 20
        assert at_20.state_at_time(10) is None
        assert at_20.state_at_time(15).item("PRICE") == 30.0
        full = vtdb.committed_history()
        assert full.state_at_time(10).item("PRICE") == 20.0
        # u2 overwrites at 15 in the full history
        assert full.state_at_time(15).item("PRICE") == 30.0

    def test_aborted_updates_ignored(self, vtdb):
        txn = vtdb.begin()
        txn.set_item("PRICE", 99.0, valid_time=5)
        txn.abort(at_time=6)
        h = vtdb.committed_history()
        assert h.state_at_time(5) is None
        assert not any(s.item("PRICE") == 99.0 for s in h)

    def test_max_delay_enforced(self):
        vtdb = ValidTimeDatabase(start_time=100, max_delay=10)
        vtdb.declare_item("PRICE", 10.0)
        txn = vtdb.begin()
        txn.set_item("PRICE", 20.0, valid_time=80)  # 20 units back
        with pytest.raises(RetroactiveLimitError):
            txn.commit(at_time=100)

    def test_collapsed_history_moves_changes_to_commit(self, vtdb):
        set_price(vtdb, 20.0, valid_time=10, commit_time=30)
        collapsed = vtdb.collapsed_committed_history()
        # the update event still occurs at vt 10 but the change at 30
        assert collapsed.state_at_time(10).item("PRICE") == 10.0
        assert collapsed.state_at_time(30).item("PRICE") == 20.0

    def test_distinct_commit_times(self, vtdb):
        t1 = vtdb.begin()
        t2 = vtdb.begin()
        c1 = t1.commit(at_time=10)
        c2 = t2.commit(at_time=10)  # bumped: no simultaneous commits
        assert c1 == 10 and c2 == 11

    def test_is_complete(self, vtdb):
        txn = vtdb.begin()
        assert not vtdb.is_complete()
        txn.commit(at_time=5)
        assert vtdb.is_complete()


class TestTriggers:
    COND = "PRICE >= 50"

    def test_tentative_fires_on_retroactive_change(self, vtdb):
        trig = TentativeTrigger(vtdb, parse_formula(self.COND, items={"PRICE"}))
        set_price(vtdb, 30.0, valid_time=10, commit_time=11)
        assert trig.fired_at() == []
        # a retroactive update makes the condition true at vt 15
        set_price(vtdb, 60.0, valid_time=15, commit_time=40)
        assert 15 in trig.fired_at()

    def test_tentative_reevaluates_suffix_only(self, vtdb):
        trig = TentativeTrigger(vtdb, parse_formula(self.COND, items={"PRICE"}))
        for k in range(10):
            set_price(vtdb, 20.0, valid_time=10 * k + 10, commit_time=10 * k + 11)
        replays_before = trig.replays
        # a retroactive change touching only the recent past
        set_price(vtdb, 60.0, valid_time=95, commit_time=111)
        assert trig.replays - replays_before <= 8

    def test_tentative_temporal_condition(self, vtdb):
        # price doubled at some past point
        f = parse_formula(
            "[x := PRICE] previously (PRICE <= 0.5 * x)", items={"PRICE"}
        )
        trig = TentativeTrigger(vtdb, f)
        set_price(vtdb, 30.0, valid_time=10, commit_time=11)
        assert trig.fired_at() == []
        # retroactively insert a low price before it
        set_price(vtdb, 10.0, valid_time=5, commit_time=20)
        assert trig.fired_at() != []

    def test_tentative_evaluates_a_retroactive_event(self):
        """An event posted in the past is evaluated at the next commit,
        as a retroactive update is: the committed history holds
        ``alarm`` with ``P = 1`` at t = 7."""
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("P", 0)
        trig = TentativeTrigger(
            vtdb, parse_formula("@alarm & P = 1", items={"P"})
        )
        txn = vtdb.begin()
        txn.set_item("P", 1, valid_time=5)
        txn.commit(at_time=10)
        vtdb.post_event(user_event("alarm"), at_time=7)
        txn = vtdb.begin()
        txn.set_item("P", 1, valid_time=12)
        txn.commit(at_time=15)
        assert trig.fired_at() == [7]

    def test_event_older_than_delta_is_refused(self):
        """Under DELTA an event reaches back at most DELTA, as an update
        may: one older is refused before it is recorded, after the
        trigger has forgotten the checkpoints it would need, and later
        commits still run (and a retroactive event within DELTA fires)."""
        vtdb = ValidTimeDatabase(start_time=0, max_delay=5)
        vtdb.declare_item("P", 1)
        trig = TentativeTrigger(
            vtdb, parse_formula("@alarm & P = 1", items={"P"})
        )
        for t in range(10, 60, 10):
            txn = vtdb.begin()
            txn.set_item("P", 1, valid_time=t)
            txn.commit(at_time=t)
        assert min(trig._checkpoints) > 0  # the early ones are forgotten
        with pytest.raises(RetroactiveLimitError):
            vtdb.post_event(user_event("alarm"), at_time=vtdb.now - 50)
        vtdb.post_event(user_event("alarm"), at_time=vtdb.now - 5)
        txn = vtdb.begin()
        txn.set_item("P", 1, valid_time=60)
        txn.commit(at_time=60)
        assert trig.fired_at() == [45]

    def test_definite_trigger_delays_firing(self):
        vtdb = ValidTimeDatabase(start_time=0, max_delay=10)
        vtdb.declare_item("PRICE", 10.0)
        trig = DefiniteTrigger(vtdb, parse_formula(self.COND, items={"PRICE"}))
        set_price(vtdb, 60.0, valid_time=20, commit_time=21)
        trig.poll()
        assert trig.fired_at() == []  # state 20 still tentative at now=21
        vtdb.advance_to(35)  # 20 <= 35 - 10
        trig.poll()
        assert trig.fired_at() == [20, 21]

    def test_definite_requires_delta(self, vtdb):
        from repro.errors import ValidTimeError

        with pytest.raises(ValidTimeError):
            DefiniteTrigger(vtdb, parse_formula(self.COND, items={"PRICE"}))

    def test_definite_never_fires_on_retracted_value(self):
        """A value visible only tentatively (later overwritten
        retroactively) never fires a definite trigger."""
        vtdb = ValidTimeDatabase(start_time=0, max_delay=20)
        vtdb.declare_item("PRICE", 10.0)
        trig = DefiniteTrigger(vtdb, parse_formula(self.COND, items={"PRICE"}))
        set_price(vtdb, 60.0, valid_time=30, commit_time=31)
        trig.poll()
        # overwrite the same instant before it becomes definite
        set_price(vtdb, 40.0, valid_time=30, commit_time=45)
        vtdb.advance_to(80)
        trig.poll()
        assert trig.fired_at() == []


class TestConstraints:
    def test_paper_online_offline_divergence(self, vtdb):
        """Section 9.3's example: 'whenever update u2 occurs, it is
        preceded by update u1'; events in order u1, u2, commit-T2,
        commit-T1 — offline-satisfied but NOT online-satisfied."""
        constraint = parse_formula(
            "throughout_past (!@u2 | previously @u1)"
        )
        t1 = vtdb.begin()
        t2 = vtdb.begin()
        vtdb.post_event(user_event("u1"), at_time=5)   # u1, T1's doing
        vtdb.post_event(user_event("u2"), at_time=8)   # u2, T2's doing
        t2.commit(at_time=20)
        t1.commit(at_time=25)
        # NOTE: user events are not transaction-scoped in our engine; to
        # model the paper's example exactly, attach the events as updates:
        assert offline_satisfied(vtdb, constraint)

    def test_online_offline_divergence_with_updates(self):
        """The faithful reconstruction: u1 and u2 are *updates* of T1 and
        T2; at commit-T2 time the committed history contains u2 but not
        u1 -> online fails; the full history has u1 before u2 -> offline
        holds."""
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("A", 0)
        vtdb.declare_item("B", 0)
        constraint = parse_formula(
            # whenever B was ever set to 1, A was set to 1 before it
            "throughout_past (!(B = 1) | previously A = 1)",
            items={"A", "B"},
        )
        t1 = vtdb.begin()
        t1.set_item("A", 1, valid_time=5)    # u1
        t2 = vtdb.begin()
        t2.set_item("B", 1, valid_time=8)    # u2
        t2.commit(at_time=20)                # commit-T2 first
        t1.commit(at_time=25)                # commit-T1 later
        assert offline_satisfied(vtdb, constraint)
        assert not online_satisfied(vtdb, constraint)

    def test_theorem2_on_divergent_history(self):
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("A", 0)
        vtdb.declare_item("B", 0)
        constraint = parse_formula(
            "throughout_past (!(B = 1) | previously A = 1)",
            items={"A", "B"},
        )
        t1 = vtdb.begin()
        t1.set_item("A", 1, valid_time=5)
        t2 = vtdb.begin()
        t2.set_item("B", 1, valid_time=8)
        t2.commit(at_time=20)
        t1.commit(at_time=25)
        assert check_theorem2(vtdb, constraint)

    def test_enforcer_aborts_violating_commit(self):
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("PRICE", 10.0)
        constraint = parse_formula("PRICE <= 100", items={"PRICE"})
        ConstraintEnforcer(vtdb, constraint, name="cap")
        set_price(vtdb, 50.0, valid_time=5, commit_time=6)
        txn = vtdb.begin()
        txn.set_item("PRICE", 500.0, valid_time=10)
        with pytest.raises(TransactionAborted):
            txn.commit(at_time=11)
        # the violating update left no trace
        h = vtdb.committed_history()
        assert all(s.item("PRICE") <= 100 for s in h)
        assert vtdb.is_complete()

    def test_enforcer_checks_retroactively_crossed_commit_points(self):
        """A retroactive update that falsifies the constraint at an
        *earlier* commit point is rejected."""
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("PRICE", 10.0)
        # constraint: the price was never above 100 at any point
        constraint = parse_formula(
            "throughout_past PRICE <= 100", items={"PRICE"}
        )
        ConstraintEnforcer(vtdb, constraint, name="cap_always")
        set_price(vtdb, 50.0, valid_time=10, commit_time=11)
        set_price(vtdb, 60.0, valid_time=20, commit_time=21)
        txn = vtdb.begin()
        txn.set_item("PRICE", 500.0, valid_time=15)  # retro spike
        with pytest.raises(TransactionAborted):
            txn.commit(at_time=30)

    def test_enforcer_allows_clean_retroactive_update(self):
        vtdb = ValidTimeDatabase(start_time=0)
        vtdb.declare_item("PRICE", 10.0)
        constraint = parse_formula(
            "throughout_past PRICE <= 100", items={"PRICE"}
        )
        ConstraintEnforcer(vtdb, constraint)
        set_price(vtdb, 50.0, valid_time=10, commit_time=11)
        set_price(vtdb, 80.0, valid_time=15, commit_time=20)  # retro, fine
        assert vtdb.committed_history().state_at_time(15).item("PRICE") == 80.0


class TestTheorem2Randomized:
    def test_theorem2_holds_on_random_histories(self):
        import random

        from repro.workloads.generator import FormulaGenerator

        for seed in range(25):
            rng = random.Random(seed)
            vtdb = ValidTimeDatabase(start_time=0)
            vtdb.declare_item("V", 0)
            txns = []
            vt_clock = 1
            for _ in range(rng.randint(1, 6)):
                txn = vtdb.begin()
                for _ in range(rng.randint(1, 3)):
                    txn.set_item("V", rng.randint(0, 10), valid_time=vt_clock)
                    vt_clock += rng.randint(1, 3)
                txns.append(txn)
            commit_at = vt_clock + 5
            rng.shuffle(txns)
            for txn in txns:
                if rng.random() < 0.2:
                    txn.abort(at_time=commit_at)
                else:
                    txn.commit(at_time=commit_at)
                commit_at += rng.randint(1, 3)
            gen = FormulaGenerator(rng, max_depth=2)
            formula = gen.formula()
            # formulas may reference events the VT history lacks; that's
            # fine — satisfaction is still well-defined
            assert check_theorem2(vtdb, formula)
