"""Event bus: connects the DBMS to the temporal component.

Section 8: "whenever an event occurs the database management system invokes
the temporal component".  Subscribers receive each appended
:class:`~repro.history.state.SystemState`, in commit order: a state
published while another one is being delivered — a rule action committing
from inside the rule manager — waits in one FIFO until the current state
has reached every subscriber.  Every subscriber therefore sees every state
once, in index order, and a rule manager evaluates each state at exactly
one position: when it is delivered.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ActionError, ReproError

Listener = Callable[..., None]


class Subscription:
    """Handle for a registered listener; ``cancel()`` unsubscribes."""

    __slots__ = ("listener", "_bus", "active")

    def __init__(self, bus: "EventBus", listener: Listener):
        self.listener = listener
        self._bus = bus
        self.active = True

    def cancel(self) -> None:
        self.active = False
        self._bus._prune()


class EventBus:
    """Dispatches appended system states to subscribers, in commit order."""

    def __init__(self) -> None:
        self._subscriptions: list[Subscription] = []
        #: Published states not yet delivered to every subscriber, the one
        #: being delivered first.
        self.pending: list = []
        self._delivering = False
        self.dispatch_count = 0
        self.delivery_count = 0
        self._m_on = False
        self._m_dispatch = None
        self._m_delivery = None
        self._m_events = None

    def attach_metrics(self, registry) -> None:
        """Route throughput counters into ``registry`` (no-op registries
        leave the publish path untouched)."""
        if not registry.enabled:
            return
        self._m_dispatch = registry.counter("bus_dispatch_total")
        self._m_delivery = registry.counter("bus_delivery_total")
        self._m_events = registry.counter("bus_events_total")
        self._m_on = True

    def subscribe(self, listener: Listener) -> Subscription:
        """Register ``listener``; it receives every state published from
        now on, after the subscribers registered before it."""
        sub = Subscription(self, listener)
        self._subscriptions.append(sub)
        return sub

    def publish(self, state) -> None:
        """Deliver a newly-appended system state to every subscriber.

        Published during a delivery, the state is queued and this returns
        at once; the delivery in progress hands it on when the states
        ahead of it are done.

        A subscriber that raises does not keep the state from the
        subscribers after it.  Delivery then stops, and the failure is
        raised to the publisher that started it: a
        :class:`~repro.errors.ReproError` as it is, anything else as an
        :class:`~repro.errors.ActionError` naming the state whose
        subscriber failed.  The states still queued stay queued — a
        committed state is never dropped — and are delivered, in order,
        ahead of the next published state or by the next :meth:`hold`
        (a rule manager's ``flush()``).  Stopping matters: a failing
        action whose own transaction aborts appends a state that would
        fire it again."""
        self.pending.append(state)
        if not self._delivering:
            self._deliver()

    def hold(self, work: Callable[[], None]) -> None:
        """Run ``work()`` as part of a delivery: states it publishes are
        queued and delivered, in order, once it returns, after any state
        a failed delivery left queued.  Inside a delivery this is just
        ``work()``.  An exception from ``work`` itself is raised as it is
        and leaves the queue for the next delivery."""
        if self._delivering:
            work()
            return
        self._delivering = True
        try:
            work()
        finally:
            self._delivering = False
        self._deliver()

    def _deliver(self) -> None:
        self._delivering = True
        pending = self.pending
        failure = None
        try:
            while pending and failure is None:
                state = pending[0]
                delivered = 0
                for sub in list(self._subscriptions):
                    if not sub.active:
                        continue
                    delivered += 1
                    try:
                        sub.listener(state)
                    except Exception as exc:
                        if failure is None:
                            failure = _as_delivery_error(state, exc)
                pending.pop(0)
                self.dispatch_count += 1
                self.delivery_count += delivered
                if self._m_on:
                    self._m_dispatch.inc()
                    self._m_delivery.inc(delivered)
                    self._m_events.inc(len(state.events))
        except BaseException:
            # A crash tears through: what it left undelivered died with it.
            pending.clear()
            raise
        finally:
            self._delivering = False
        if failure is not None:
            raise failure

    def _prune(self) -> None:
        self._subscriptions = [s for s in self._subscriptions if s.active]

    def __len__(self) -> int:
        return len(self._subscriptions)


def _as_delivery_error(state, exc: Exception) -> Exception:
    """The error a subscriber's ``exc`` surfaces as.  The state is already
    appended (and, with a WAL attached, durable): a subscriber blowing up
    is an action failure, not a storage or transaction failure."""
    if isinstance(exc, ReproError):
        return exc
    error = ActionError(
        f"subscriber failed while processing state "
        f"#{state.index} (t={state.timestamp}): {exc}"
    )
    error.__cause__ = exc
    return error
