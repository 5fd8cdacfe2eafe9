"""The valid-time system model (Section 9.1).

"Every update presented to the database management system is associated
with a valid time, and this valid time may precede the current time ...
the database management system makes the change retroactively."  The model
differs from transaction time in two ways: update events are placed at
their *valid* times (inserting new system states retroactively if needed),
and database states change at update times, not commit times.

:class:`ValidTimeDatabase` stores the raw material — updates with valid
times, transaction resolutions, user events — and *materializes* the
histories of Section 9 on demand:

* :meth:`system_history` — every update of every resolved-or-pending
  transaction (the fully tentative view);
* :meth:`committed_history` — the committed history at time t: states with
  timestamps <= t, with the effects (and events) of updates uncommitted in
  that prefix eliminated;
* :meth:`collapsed_committed_history` — the committed history with every
  transaction's changes applied at its commit time instead of the update
  times: "a system history in the transaction-time model" (Theorem 2's
  bridge).

The *maximum delay* DELTA bounds retroactivity: "an update cannot make a
retroactive change which goes back more than DELTA time units" — enforced
at commit, and the foundation of *definite* triggers (Section 9.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional, Sequence

from repro._value import Value
from repro.errors import (
    ClockError,
    RetroactiveLimitError,
    TransactionAborted,
    TransactionStateError,
)
from repro.events import model as ev
from repro.events.clock import Clock
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.storage.database import Database


class VTUpdate(Value):
    """One update: which item, how it changes, when it is valid, whose."""

    item: str
    apply: Callable[[Any], Any]
    valid_time: int
    txn_id: int
    seq: int  # global order for deterministic same-instant application
    event: ev.Event = None

    def __repr__(self) -> str:
        return f"VTUpdate({self.item}, vt={self.valid_time}, txn={self.txn_id})"


class VTTransaction:
    """A valid-time transaction: buffered updates, each with a valid time
    (defaulting to the current clock time)."""

    def __init__(self, txn_id: int, vtdb: "ValidTimeDatabase"):
        self.id = txn_id
        self._vtdb = vtdb
        self.active = True
        self.updates: list[VTUpdate] = []
        self.events: list[tuple[ev.Event, int]] = []

    def _require_active(self):
        if not self.active:
            raise TransactionStateError(f"transaction {self.id} is finished")

    def _push(self, item: str, fn, valid_time: Optional[int], event: ev.Event):
        self._require_active()
        vt = self._vtdb.now if valid_time is None else valid_time
        self.updates.append(
            VTUpdate(item, fn, vt, self.id, self._vtdb._next_seq(), event)
        )

    def set_item(self, name: str, value: Any, valid_time: Optional[int] = None):
        self._push(name, lambda _old: value, valid_time, ev.update_item(name))

    def insert(self, relation: str, values, valid_time: Optional[int] = None):
        schema = self._vtdb.db.schema(relation)
        coerced = schema.check_row_values(tuple(values))
        self._push(
            relation,
            lambda rel: rel.insert(coerced),
            valid_time,
            ev.insert_tuple(relation, coerced),
        )

    def delete(self, relation: str, predicate, valid_time: Optional[int] = None):
        self._vtdb.db.schema(relation)
        self._push(
            relation,
            lambda rel: rel.delete(predicate),
            valid_time,
            ev.Event(ev.DELETE_TUPLE, (relation,)),
        )

    def update(
        self, relation: str, predicate, changes, valid_time: Optional[int] = None
    ):
        self._vtdb.db.schema(relation)
        self._push(
            relation,
            lambda rel: rel.update(predicate, changes),
            valid_time,
            ev.update_item(relation),
        )

    def commit(self, at_time: Optional[int] = None) -> int:
        self._require_active()
        return self._vtdb._commit(self, at_time)

    def abort(self, at_time: Optional[int] = None) -> None:
        self._require_active()
        self._vtdb._abort(self, at_time)


class ValidTimeDatabase:
    """Valid-time active database: retroactive updates, materialized
    committed histories, commit-time integrity enforcement hooks."""

    def __init__(self, start_time: int = 0, max_delay: Optional[int] = None):
        self.db = Database()
        self.clock = Clock(start_time)
        #: The paper's DELTA; None = unbounded retroactivity.
        self.max_delay = max_delay
        self._seq = itertools.count()
        self._next_txn = itertools.count(1)
        self._updates: list[VTUpdate] = []
        self._commits: dict[int, int] = {}  # txn -> commit time
        self._aborts: dict[int, int] = {}
        self._user_events: list[tuple[ev.Event, int]] = []
        #: Times of the user events posted since the last commit: the next
        #: commit's listeners re-evaluate from the oldest.
        self._unseen_events: list[int] = []
        self._pending: dict[int, VTTransaction] = {}
        #: Called after each commit with (txn_id, commit_time,
        #: oldest_valid_time) — the trigger processors' re-evaluation hook.
        self.commit_listeners: list[Callable[[int, int, int], None]] = []
        #: Commit validators: f(candidate_committed_history, txn,
        #: commit_time) -> list of violation strings.
        self.commit_validators: list = []

    # -- catalog -----------------------------------------------------------

    def create_relation(self, name, schema, rows=()):
        return self.db.create_relation(name, schema, rows)

    def declare_item(self, name, initial):
        return self.db.declare_item(name, initial)

    def define_query(self, name, params, text):
        return self.db.define_query(name, params, text)

    # -- time ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.clock.now

    def advance_to(self, timestamp: int) -> int:
        return self.clock.advance_to(timestamp)

    def _next_seq(self) -> int:
        return next(self._seq)

    # -- transactions --------------------------------------------------------------

    def begin(self) -> VTTransaction:
        txn = VTTransaction(next(self._next_txn), self)
        self._pending[txn.id] = txn
        return txn

    def post_event(self, event: ev.Event, at_time: Optional[int] = None) -> None:
        """A user event at ``at_time`` (default: now).  One in the past
        reaches back as a retroactive update does (at most DELTA before
        now): the next commit's listeners re-evaluate from it."""
        ts = self.now if at_time is None else at_time
        if self.max_delay is not None and ts < self.now - self.max_delay:
            raise RetroactiveLimitError(
                f"event at {ts} is more than DELTA before now ({self.now})"
            )
        if at_time is not None and at_time > self.clock.now:
            self.clock.advance_to(at_time)
        self._user_events.append((event, ts))
        self._unseen_events.append(ts)

    def _commit(self, txn: VTTransaction, at_time: Optional[int]) -> int:
        commit_time = self._resolve_commit_time(at_time)
        if self.max_delay is not None:
            for u in txn.updates:
                if u.valid_time < commit_time - self.max_delay:
                    txn.active = False
                    self._aborts[txn.id] = commit_time
                    del self._pending[txn.id]
                    raise RetroactiveLimitError(
                        f"update of {u.item!r} has valid time {u.valid_time}, "
                        f"more than DELTA={self.max_delay} before commit time "
                        f"{commit_time}"
                    )
        # Trial: validators see the history as it would look committed.
        if self.commit_validators:
            trial = self._materialize(
                up_to=None,
                committed_cutoff=commit_time,
                extra_commit=(txn, commit_time),
            )
            violations = []
            for validator in self.commit_validators:
                violations.extend(validator(trial, txn, commit_time))
            if violations:
                txn.active = False
                self._aborts[txn.id] = commit_time
                del self._pending[txn.id]
                raise TransactionAborted(txn.id, "; ".join(violations))

        txn.active = False
        self._updates.extend(txn.updates)
        self._commits[txn.id] = commit_time
        del self._pending[txn.id]
        oldest = min(
            [u.valid_time for u in txn.updates] + self._unseen_events,
            default=commit_time,
        )
        self._unseen_events = []
        for listener in list(self.commit_listeners):
            listener(txn.id, commit_time, oldest)
        return commit_time

    def _abort(self, txn: VTTransaction, at_time: Optional[int]) -> None:
        txn.active = False
        self._aborts[txn.id] = self._resolve_commit_time(at_time)
        del self._pending[txn.id]

    def _resolve_commit_time(self, at_time: Optional[int]) -> int:
        taken = set(self._commits.values()) | set(self._aborts.values())
        if at_time is not None:
            if at_time < self.clock.now:
                raise ClockError(
                    f"commit time {at_time} is before the clock ({self.clock.now})"
                )
            while at_time in taken:
                # "no two transactions commit simultaneously"
                at_time += 1
            if at_time > self.clock.now:
                self.clock.advance_to(at_time)
            return at_time
        t = self.clock.now
        while t in taken:
            t += 1
        if t > self.clock.now:
            self.clock.advance_to(t)
        return t

    # -- history materialization ---------------------------------------------------

    def system_history(self) -> SystemHistory:
        """The fully tentative history: all updates of committed
        transactions plus updates of still-pending ones."""
        pending_updates = [
            u for txn in self._pending.values() for u in txn.updates
        ]
        return self._materialize(
            up_to=None,
            committed_cutoff=None,
            include_updates=self._updates + pending_updates,
        )

    def committed_history(
        self, t: Optional[int] = None, committed_by: Optional[int] = None
    ) -> SystemHistory:
        """The committed history at time ``t`` (default: infinity).

        ``committed_by`` overrides which transactions count as committed
        (default: those committed by ``t``).  The definite-trigger
        machinery passes ``committed_by=now`` with ``t=now - DELTA``: all
        *currently known* commits contribute, but only to states old
        enough to be final.
        """
        cutoff = t if committed_by is None else committed_by
        return self._materialize(up_to=t, committed_cutoff=cutoff)

    def collapsed_committed_history(
        self, t: Optional[int] = None
    ) -> SystemHistory:
        """The committed history with database changes applied at commit
        time — a transaction-time history (Section 9.3, Theorem 2)."""
        return self._materialize(up_to=t, committed_cutoff=t, collapse=True)

    def _materialize(
        self,
        up_to: Optional[int],
        committed_cutoff: Optional[int],
        include_updates: Optional[Sequence[VTUpdate]] = None,
        collapse: bool = False,
        extra_commit: Optional[tuple] = None,
    ) -> SystemHistory:
        """Rebuild a history from the raw material.

        ``committed_cutoff``: only updates of transactions committed at or
        before this time are included (None with ``include_updates`` given
        = tentative view).  ``up_to``: drop states after this timestamp.
        ``collapse``: apply changes at commit times (transaction time).
        ``extra_commit``: (txn, commit_time) treated as committed — the
        trial view used by commit validators.
        """
        commits = dict(self._commits)
        updates = list(self._updates) if include_updates is None else list(
            include_updates
        )
        if extra_commit is not None:
            txn, commit_time = extra_commit
            commits[txn.id] = commit_time
            updates.extend(txn.updates)

        if include_updates is None:
            def committed(u: VTUpdate) -> bool:
                ct = commits.get(u.txn_id)
                if ct is None:
                    return False
                if committed_cutoff is not None and ct > committed_cutoff:
                    return False
                return True

            updates = [u for u in updates if committed(u)]

        # Build the event/change timeline.
        timeline: dict[int, dict] = {}

        def slot(ts: int) -> dict:
            return timeline.setdefault(ts, {"events": [], "updates": []})

        for u in updates:
            effect_time = commits[u.txn_id] if collapse else u.valid_time
            entry = slot(effect_time)
            entry["updates"].append(u)
            if u.event is not None:
                slot(u.valid_time)["events"].append(u.event)
        for txn_id, ct in commits.items():
            if committed_cutoff is not None and ct > committed_cutoff:
                continue
            slot(ct)["events"].append(ev.transaction_commit(txn_id))
        for txn_id, at in self._aborts.items():
            if committed_cutoff is not None and at > committed_cutoff:
                continue
            slot(at)["events"].append(ev.transaction_abort(txn_id))
        for event, ts in self._user_events:
            if committed_cutoff is not None and ts > committed_cutoff:
                continue
            slot(ts)["events"].append(event)

        history = SystemHistory(validate_transaction_time=False)
        db = self.db.state
        for ts in sorted(timeline):
            if up_to is not None and ts > up_to:
                break
            entry = timeline[ts]
            changes: dict[str, Any] = {}
            for u in sorted(entry["updates"], key=lambda u: u.seq):
                current = changes.get(u.item, db.raw_item(u.item))
                changes[u.item] = u.apply(current)
            if changes:
                db = db.with_updates(changes)
            history.append(SystemState(db, entry["events"], ts))
        return history

    # -- resolution queries -------------------------------------------------------

    def is_complete(self) -> bool:
        """A *complete* history: every started transaction committed or
        aborted (Section 9.3)."""
        return not self._pending

    def definite_horizon(self) -> Optional[int]:
        """States at or before this timestamp are *definite*: no future
        update can retroactively change them.

        The paper says a value is definite once it is DELTA old; at the
        exact boundary a commit happening at this very instant may still
        reach ``now - DELTA``, so the horizon is ``now - DELTA - 1``
        (commits at later instants reach strictly past it).
        """
        if self.max_delay is None:
            return None
        return self.now - self.max_delay - 1
