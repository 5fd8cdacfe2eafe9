"""Unit tests for events, the bus, the clock, and system states."""

import pytest

from repro.errors import ActionError, ClockError
from repro.events import Clock, Event, EventBus, user_event
from repro.events.model import (
    attempts_to_commit,
    insert_tuple,
    rule_execute,
    transaction_begin,
    transaction_commit,
)
from repro.history.state import SystemState
from repro.storage.snapshot import DatabaseState


class TestEvents:
    def test_event_str(self):
        assert str(Event("e")) == "e"
        assert str(Event("e", (1, "a"))) == "e(1, 'a')"

    def test_constructors(self):
        assert transaction_begin(3) == Event("transaction_begin", (3,))
        assert transaction_commit(3).params == (3,)
        assert attempts_to_commit(9).name == "attempts_to_commit"
        assert insert_tuple("R", (1, 2)) == Event("insert_tuple", ("R", 1, 2))
        assert rule_execute("r1", ("x",)).params == ("r1", "x")
        assert user_event("login", "ann").params == ("ann",)

    def test_matches(self):
        e = Event("login", ("ann",))
        assert e.matches("login", ("ann",))
        assert not e.matches("login", ("bob",))
        assert not e.matches("logout", ("ann",))


class TestClock:
    def test_advance(self):
        clock = Clock(10)
        assert clock.advance_by(5) == 15
        assert clock.advance_to(20) == 20

    def test_strictly_increasing(self):
        clock = Clock(10)
        with pytest.raises(ClockError):
            clock.advance_to(10)
        with pytest.raises(ClockError):
            clock.advance_by(0)
        with pytest.raises(ClockError):
            clock.advance_by(-1)


class TestBus:
    def _state(self, *event_names, ts=1):
        return SystemState(
            DatabaseState({}), [Event(n) for n in event_names], ts
        )

    def test_publish_to_all(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda s: seen.append(("a", s.timestamp)))
        bus.subscribe(lambda s: seen.append(("b", s.timestamp)))
        bus.publish(self._state("e", ts=4))
        assert seen == [("a", 4), ("b", 4)]

    def test_delivers_in_publication_order(self):
        """A state published during a delivery waits until the current
        one has reached every subscriber."""
        bus = EventBus()
        seen = []

        def first(s):
            seen.append(("a", s.timestamp))
            if s.timestamp == 1:
                bus.publish(self._state("e", ts=2))
                assert [ts for _, ts in seen] == [1]  # queued, not delivered

        bus.subscribe(first)
        bus.subscribe(lambda s: seen.append(("b", s.timestamp)))
        bus.publish(self._state("e", ts=1))
        assert seen == [("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        assert not bus.pending

    def test_failing_subscriber_stops_after_its_state(self):
        """The failing state still reaches the later subscribers; what
        is queued behind it goes out ahead of the next publication."""
        bus = EventBus()
        seen = []

        def first(s):
            if s.timestamp == 1:
                bus.publish(self._state("e", ts=2))
                raise RuntimeError("boom")

        bus.subscribe(first)
        bus.subscribe(lambda s: seen.append(s.timestamp))
        with pytest.raises(ActionError, match="t=1"):
            bus.publish(self._state("e", ts=1))
        assert seen == [1]
        assert [s.timestamp for s in bus.pending] == [2]
        bus.publish(self._state("e", ts=3))
        assert seen == [1, 2, 3]

    def test_hold_delivers_after_the_work(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda s: seen.append(s.timestamp))

        def work():
            bus.publish(self._state("e", ts=1))
            seen.append("work done")

        bus.hold(work)
        assert seen == ["work done", 1]

    def test_cancel(self):
        bus = EventBus()
        seen = []
        sub = bus.subscribe(lambda s: seen.append(1))
        sub.cancel()
        bus.publish(self._state("e"))
        assert seen == []
        assert len(bus) == 0

    def test_counters(self):
        bus = EventBus()
        bus.subscribe(lambda s: None)
        sub = bus.subscribe(lambda s: None)
        bus.publish(self._state("e"))
        sub.cancel()
        bus.publish(self._state("e", ts=2))
        assert bus.dispatch_count == 2
        assert bus.delivery_count == 3


class TestSystemState:
    def test_commit_helpers(self):
        s = SystemState(
            DatabaseState({}),
            [transaction_commit(7), Event("update_stocks")],
            5,
        )
        assert s.is_commit_point()
        assert s.committed_txn() == 7
        assert s.event_names() == {"transaction_commit", "update_stocks"}

    def test_non_commit(self):
        s = SystemState(DatabaseState({}), [Event("e")], 5)
        assert not s.is_commit_point()
        assert s.committed_txn() is None

    def test_time_item(self):
        s = SystemState(DatabaseState({"V": 3}), [], 42)
        assert s.item("time") == 42
        assert s.item("V") == 3
        assert s.has_item("time") and s.has_item("V")
        assert not s.has_item("W")

    def test_with_helpers(self):
        s = SystemState(DatabaseState({}), [Event("e")], 5)
        assert s.with_index(3).index == 3
        assert s.with_events([Event("f")]).event_names() == {"f"}
        db2 = DatabaseState({"X": 1})
        assert s.with_db(db2).item("X") == 1
