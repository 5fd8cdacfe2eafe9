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
from repro.events.model import TRANSACTION_COMMIT, Event
from repro.storage.snapshot import DatabaseState


class SystemState:
    """One element of a system history.

    ``events`` is the paper's event *set*, held as a duplicate-free tuple
    sorted by ``str`` — the order the state codec writes
    (:func:`repro.storage.persist.encode_state`) — so two states with the
    same events hold equal tuples whether the engine built them or they
    were decoded from a record.

    Also satisfies the query :class:`~repro.query.evaluator.StateView`
    protocol, resolving the ``time`` item to the state's timestamp — so PTL
    atoms such as ``time <= t - 10`` evaluate naturally at any state.
    """

    __slots__ = ("db", "events", "timestamp", "index", "delta")

    def __init__(
        self,
        db: DatabaseState,
        events: Iterable[Event],
        timestamp: int,
        index: int = -1,
        delta: Optional[frozenset[str]] = None,
    ):
        self.db = db
        self.events = tuple(sorted(dict.fromkeys(events), key=str))
        self.timestamp = timestamp
        self.index = index
        #: Names of the database items this state's update wrote (the
        #: transaction's write-set; empty for event/tick states).  ``None``
        #: means unknown — delta-aware evaluation then falls back to the
        #: item-identity check (see :mod:`repro.query.plan`).
        self.delta = delta

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
        return [e for e in self.events if e.name == TRANSACTION_COMMIT]

    def is_commit_point(self) -> bool:
        """Whether this state contains a transaction-commit event."""
        return any(e.name == TRANSACTION_COMMIT for e in self.events)

    def committed_txn(self):
        """Id of the transaction committing at this state, or None."""
        for e in self.events:
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
