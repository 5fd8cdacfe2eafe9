"""System histories (Section 2).

A system history is a finite sequence of system states with:

* strictly increasing timestamps (simultaneous events share one state);
* at most one ``transaction_commit`` event per state;
* in the *transaction-time* model, consecutive database states identical
  unless the event set contains a commit (the new state then reflects all
  and only the changes of the committing transaction).

The history object validates these constraints on append.  The incremental
evaluator never walks a history — it sees each state once as it is
appended — but the reference semantics, the naive baseline, and the
valid-time machinery all consume histories, so the class supports random
access and slicing.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Optional

from repro.errors import ClockError, HistoryError
from repro.events.model import Event
from repro.history.state import SystemState
from repro.storage.snapshot import DatabaseState


class SystemHistory:
    """An append-only sequence of :class:`SystemState`."""

    def __init__(
        self,
        states: Iterable[SystemState] = (),
        validate_transaction_time: bool = True,
        base_index: int = 0,
    ):
        self._states: list[SystemState] = []
        self.validate_transaction_time = validate_transaction_time
        #: Global index of this history's first state.  A crash-recovered
        #: engine keeps only the post-checkpoint suffix of the run's
        #: history; offsetting the assigned indices keeps firing records
        #: and state identities consistent across the crash.
        self.base_index = base_index
        for s in states:
            self.append(s)

    # -- construction ---------------------------------------------------------

    def append(self, state: SystemState) -> SystemState:
        """Validate and append, returning the state — ``state`` itself
        when it already carries its position's index, else a re-indexed
        copy."""
        if self._states and state.timestamp <= self._states[-1].timestamp:
            raise ClockError(
                f"timestamp {state.timestamp} not greater than previous "
                f"{self._states[-1].timestamp}"
            )
        if len(state.commit_events()) > 1:
            raise HistoryError(
                "at most one transaction may commit per system state"
            )
        if (
            self.validate_transaction_time
            and self._states
            and not state.is_commit_point()
            and state.db is not self._states[-1].db
            and state.db != self._states[-1].db
        ):
            raise HistoryError(
                "database state changed without a transaction commit"
            )
        states = self._states
        index = self.base_index + len(states)
        if state.index != index:
            state = state.with_index(index)
        if states:
            states[-1].supersede(states[-2] if len(states) > 1 else None)
        states.append(state)
        return state

    def append_state(
        self,
        db: DatabaseState,
        events: Iterable[Event],
        timestamp: int,
    ) -> SystemState:
        return self.append(SystemState(db, events, timestamp))

    # -- access ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[SystemState]:
        return iter(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SystemHistory(
                (s for s in self._states[index]),
                validate_transaction_time=False,
            )
        return self._states[index]

    @property
    def states(self) -> list[SystemState]:
        return list(self._states)

    @property
    def last(self) -> Optional[SystemState]:
        return self._states[-1] if self._states else None

    def prefix(self, length: int) -> "SystemHistory":
        """The first ``length`` states, as a history."""
        return self[:length]

    def up_to_time(self, timestamp: int) -> "SystemHistory":
        """States with timestamp <= ``timestamp``."""
        return SystemHistory(
            (s for s in self._states if s.timestamp <= timestamp),
            validate_transaction_time=False,
        )

    def commit_points(self) -> list[int]:
        """Indices of states containing a transaction-commit event
        (Section 8: 'a commit point in a history h is a state that contains
        the commit transaction event')."""
        return [i for i, s in enumerate(self._states) if s.is_commit_point()]

    def as_of(self, timestamp: int) -> Optional[SystemState]:
        """Latest state at or before ``timestamp`` (binary search —
        timestamps strictly increase)."""
        i = bisect_right(self._states, timestamp, key=lambda s: s.timestamp)
        return self._states[i - 1] if i else None

    def state_at_time(self, timestamp: int) -> Optional[SystemState]:
        for s in self._states:
            if s.timestamp == timestamp:
                return s
        return None

    def __repr__(self) -> str:
        return f"SystemHistory({len(self._states)} states)"
