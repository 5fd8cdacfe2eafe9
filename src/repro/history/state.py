"""System states: (database state, event set, timestamp).

Section 2: "A system state is a pair (S, E) where S is the database state
and E is the set of events ... a snapshot of the system giving the database
state and the set of events that occur at a particular instant."  A
timestamp is associated with each system state and exposed through the
``time`` data item.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.datamodel.relation import Relation
from repro.events.clock import TIME_ITEM
from repro.events.model import ATTEMPTS_TO_COMMIT, TRANSACTION_COMMIT, Event
from repro.storage.snapshot import DatabaseState


def _distinct(events: Iterable[Event]) -> list[Event]:
    """``events`` without each one equal to an earlier one, in order —
    what ``dict.fromkeys`` keeps.  Keyed by the plain ``(name, params)``
    tuple, so no event's ``__hash__`` runs."""
    first: dict[tuple, Event] = {}
    for event in events:
        first.setdefault((event.name, event.params), event)
    return list(first.values())


def _with_commit(rest: tuple, txn: int) -> tuple:
    """``rest`` plus ``attempts_to_commit(txn)`` and
    ``transaction_commit(txn)``, sorted by ``str`` (the two first among
    equal keys): a compacted commit state's events."""
    params = (txn,)
    events = (
        Event(ATTEMPTS_TO_COMMIT, params),
        Event(TRANSACTION_COMMIT, params),
        *rest,
    )
    return tuple(sorted(events, key=str))


def _split_commit(events: tuple) -> Optional[tuple[int, tuple]]:
    """``(t, the other events)`` when ``events`` hold exactly one
    ``attempts_to_commit(t)`` and one ``transaction_commit(t)`` for an
    ``int`` ``t`` and :func:`_with_commit` gives ``events`` back, in
    order; else ``None``."""
    pair = [
        e for e in events
        if e.name == ATTEMPTS_TO_COMMIT or e.name == TRANSACTION_COMMIT
    ]
    if len(pair) != 2 or pair[0].name == pair[1].name:
        return None
    first, second = pair[0].params, pair[1].params
    if (
        len(first) != 1
        or first != second
        or type(first[0]) is not int
        or type(second[0]) is not int
    ):
        return None
    txn = first[0]
    rest = tuple([e for e in events if e is not pair[0] and e is not pair[1]])
    if _with_commit(rest, txn) != events:
        return None
    return txn, rest


class SystemState:
    """One element of a system history.

    ``events`` is the paper's event *set*, held as a duplicate-free tuple
    sorted by ``str`` — the order the state codec writes
    (:func:`repro.storage.persist.encode_state`) — so two states with the
    same events hold equal tuples whether the engine built them or they
    were decoded from a record.

    A commit state's ``attempts_to_commit(t)`` and
    ``transaction_commit(t)`` follow from ``t`` alone, so once a history
    has appended a successor (:meth:`supersede`) a state whose only
    commit events are those two keeps ``t`` and the other events, and
    ``events`` rebuilds the same tuple when read.

    Also satisfies the query :class:`~repro.query.evaluator.StateView`
    protocol, resolving the ``time`` item to the state's timestamp — so PTL
    atoms such as ``time <= t - 10`` evaluate naturally at any state.
    """

    __slots__ = ("db", "_events", "timestamp", "index", "delta", "_txn")

    def __init__(
        self,
        db: DatabaseState,
        events: Iterable[Event],
        timestamp: int,
        index: int = -1,
        delta: Optional[frozenset[str]] = None,
    ):
        self.db = db
        self._events = tuple(sorted(_distinct(events), key=str))
        self.timestamp = timestamp
        self.index = index
        #: Names of the database items this state's update wrote (the
        #: transaction's write-set; empty for event/tick states).  ``None``
        #: means unknown — delta-aware evaluation then falls back to the
        #: item-identity check (see :mod:`repro.query.plan`).
        self.delta = delta
        #: The committing transaction's id once :meth:`supersede` took
        #: its two commit events out of ``_events``; ``None`` until then.
        self._txn: Optional[int] = None

    @property
    def events(self) -> tuple[Event, ...]:
        if self._txn is None:
            return self._events
        return _with_commit(self._events, self._txn)

    def supersede(self, prev: Optional["SystemState"]) -> None:
        """A successor took this state's place as its history's newest:
        a single-commit state keeps its transaction id for its two commit
        events, and its other events as ``prev``'s tuple when the two hold
        the same objects (consecutive commits of one shape hold one tuple;
        equal events that print differently, ``x(1)`` and ``x(1.0)``, are
        not shared).  Any other state, and a state already superseded, is
        left as it is."""
        if self._txn is not None:
            return
        split = _split_commit(self._events)
        if split is None:
            return
        self._txn, rest = split
        if (
            prev is not None
            and len(prev._events) == len(rest)
            and all(a is b for a, b in zip(prev._events, rest))
        ):
            rest = prev._events
        self._events = rest

    # -- StateView protocol -------------------------------------------------

    def relation(self, name: str) -> Relation:
        return self.db.relation(name)

    def item(self, name: str, index: tuple = ()) -> Any:
        if name == TIME_ITEM:
            return self.timestamp
        return self.db.item(name, index)

    def has_relation(self, name: str) -> bool:
        return self.db.has_relation(name)

    def has_item(self, name: str) -> bool:
        return name == TIME_ITEM or self.db.has_item(name)

    # -- events ---------------------------------------------------------------

    def event_names(self) -> frozenset[str]:
        return frozenset(e.name for e in self.events)

    def commit_events(self) -> list[Event]:
        if self._txn is not None:
            return [Event(TRANSACTION_COMMIT, (self._txn,))]
        return [e for e in self._events if e.name == TRANSACTION_COMMIT]

    def is_commit_point(self) -> bool:
        """Whether this state contains a transaction-commit event."""
        return self._txn is not None or any(
            e.name == TRANSACTION_COMMIT for e in self._events
        )

    def committed_txn(self):
        """Id of the transaction committing at this state, or None."""
        if self._txn is not None:
            return self._txn
        for e in self._events:
            if e.name == TRANSACTION_COMMIT and e.params:
                return e.params[0]
        return None

    def with_index(self, index: int) -> "SystemState":
        return SystemState(self.db, self.events, self.timestamp, index, self.delta)

    def with_events(self, events: Iterable[Event]) -> "SystemState":
        return SystemState(self.db, events, self.timestamp, self.index, self.delta)

    def with_db(self, db: DatabaseState) -> "SystemState":
        # An arbitrary database swap invalidates the recorded write-set.
        return SystemState(db, self.events, self.timestamp, self.index, None)

    def __repr__(self) -> str:
        evs = ", ".join(map(str, self.events))
        return f"SystemState(t={self.timestamp}, events=[{evs}])"
