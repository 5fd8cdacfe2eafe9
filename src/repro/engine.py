"""The active database engine: storage + clock + events + history.

:class:`ActiveDatabase` is the transaction-time system of Section 2.  It
owns the :class:`~repro.storage.database.Database`, the global
:class:`~repro.events.clock.Clock`, the
:class:`~repro.events.bus.EventBus` feeding the temporal component, and
(optionally) the full :class:`~repro.history.history.SystemHistory`.

Lifecycle of a committing transaction::

    txn = adb.begin()                  # system state with transaction_begin
    txn.insert("STOCK", (...,))        # buffered
    txn.commit()                       # candidate state built; integrity
                                       # constraints checked at the
                                       # attempts_to_commit event; on
                                       # success the commit state is
                                       # appended and published

Integrity-constraint checking is pluggable: the rule manager registers a
*commit validator* receiving the candidate system state and returning
violations; any violation turns the commit into an abort (Section 3: an
integrity constraint "is a rule in which the action is abort(X)").
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from repro.datamodel.relation import STATS as VERSION_STATS
from repro.errors import (
    ClockError,
    HistoryError,
    QueueFullError,
    ReproError,
    StorageDegradedError,
    TransactionAborted,
)
from repro.events import model as ev
from repro.events.bus import EventBus
from repro.events.clock import Clock
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.obs.metrics import as_registry
from repro.storage.database import Database
from repro.storage.transactions import Transaction, TransactionManager, TxnStatus

#: A commit validator inspects the candidate commit state and returns
#: human-readable violations (empty sequence = transaction may commit).
CommitValidator = Callable[[SystemState, Transaction], Sequence[str]]


class ActiveDatabase:
    """Transaction-time active database engine."""

    def __init__(
        self,
        start_time: int = 0,
        keep_history: bool = True,
        begin_states: bool = False,
        metrics=None,
        max_queue: int = 1024,
    ):
        """``begin_states=True`` records a system state for every
        ``transaction_begin`` event (the paper's model records a state per
        event occurrence).  The default omits them: most conditions only
        observe commit points and user events, and workloads then control
        commit timestamps directly.

        ``metrics`` (``None``/``True``/a registry) enables engine-level
        counters and event-bus throughput metrics; a
        :class:`~repro.rules.manager.RuleManager` attached to this engine
        inherits the registry by default.

        ``max_queue`` bounds the ingest queue used by :meth:`enqueue` /
        :meth:`drain` (update batching with group commit)."""
        self.db = Database()
        self.begin_states = begin_states
        self.clock = Clock(start_time)
        self.bus = EventBus()
        self.history: Optional[SystemHistory] = (
            SystemHistory() if keep_history else None
        )
        self.txns = TransactionManager()
        self._commit_validators: list[CommitValidator] = []
        self._last_state: Optional[SystemState] = None
        self._state_count = 0
        self.metrics = as_registry(metrics)
        self._obs_on = self.metrics.enabled
        self._m_states = self.metrics.counter("engine_states_total")
        self._m_commits = self.metrics.counter("engine_commits_total")
        self._m_aborts = self.metrics.counter("engine_aborts_total")
        self._m_history_len = self.metrics.gauge("engine_history_len")
        self._m_demoted = self.metrics.gauge("storage_versions_demoted")
        self._m_materialised = self.metrics.counter(
            "storage_version_materialisations_total"
        )
        self.bus.attach_metrics(self.metrics)
        # -- ingest batching / group commit --------------------------------
        #: True while a batch() is open: durability consumers amortize
        #: their fsync, rule managers hold firings and actions until the
        #: batch is durable.
        self.in_batch = False
        #: A durability provider (the WAL when attached) offering
        #: begin_group()/end_group() and prepare(); None when nothing
        #: durable is wired.
        self.durability = None
        #: Tiered-history runtime (see :mod:`repro.history.spill`) when
        #: :func:`~repro.history.spill.attach_tiered_history` is wired.
        self.tiered = None
        # -- degraded read-only mode ---------------------------------------
        #: True once a disk stayed unwritable past bounded retries: every
        #: state append (commit, event, tick) is refused with
        #: :class:`~repro.errors.StorageDegradedError` until
        #: :meth:`exit_degraded` verifies the disk recovered.  Reads,
        #: queries, and rule evaluation over committed states continue.
        self.degraded = False
        self.degraded_reason: Optional[str] = None
        self._m_degraded = self.metrics.gauge("storage_degraded")
        #: Called (no args) after each batch turns durable.
        self.batch_listeners: list[Callable[[], None]] = []
        self.max_queue = max(1, max_queue)
        self._txn_queue: deque = deque()
        self._m_queue_depth = self.metrics.gauge("batch_queue_depth")
        self._m_batches = self.metrics.counter("batch_commits_total")
        self._m_batch_txns = self.metrics.histogram("batch_txns")

    # -- catalog delegation ---------------------------------------------------

    def create_relation(self, name, schema, rows=()):
        return self.db.create_relation(name, schema, rows)

    def define_query(self, name, params, text):
        return self.db.define_query(name, params, text)

    def declare_item(self, name, initial):
        return self.db.declare_item(name, initial)

    def declare_indexed_item(self, name, default=None):
        return self.db.declare_indexed_item(name, default)

    @property
    def state(self):
        """Current committed database state."""
        return self.db.state

    @property
    def now(self) -> int:
        return self.clock.now

    @property
    def last_state(self) -> Optional[SystemState]:
        """Most recently appended system state (kept even without history)."""
        return self._last_state

    def as_of(self, timestamp: int) -> Optional[SystemState]:
        """The system state as of ``timestamp`` (the latest state at or
        before it) — point-in-time querying over the kept history."""
        if self.history is None:
            raise HistoryError("as_of needs keep_history=True")
        return self.history.as_of(timestamp)

    @property
    def state_count(self) -> int:
        return self._state_count

    # -- temporal component -------------------------------------------------------

    def rule_manager(self, **kwargs):
        """Attach a :class:`~repro.rules.manager.RuleManager` (the paper's
        temporal component) to this engine and return it.  Keyword
        arguments pass through — e.g. ``relevance_filtering=True``."""
        from repro.rules.manager import RuleManager

        return RuleManager(self, **kwargs)

    # -- integrity-constraint hook ------------------------------------------------

    def add_commit_validator(self, validator: CommitValidator) -> None:
        self._commit_validators.append(validator)

    def remove_commit_validator(self, validator: CommitValidator) -> None:
        self._commit_validators.remove(validator)

    # -- time ----------------------------------------------------------------------

    def _next_timestamp(self, at_time: Optional[int]) -> int:
        last_ts = self._last_state.timestamp if self._last_state else None
        if at_time is not None:
            if at_time > self.clock.now:
                self.clock.advance_to(at_time)
            elif at_time < self.clock.now:
                raise ClockError(
                    f"cannot schedule event at {at_time}: clock is at "
                    f"{self.clock.now}"
                )
            if last_ts is not None and at_time <= last_ts:
                raise ClockError(
                    f"timestamp {at_time} not after last system state "
                    f"({last_ts})"
                )
            return at_time
        if last_ts is None or self.clock.now > last_ts:
            return self.clock.now
        return self.clock.advance_by(1)

    # -- degraded read-only mode ---------------------------------------------

    def enter_degraded(self, reason: str) -> None:
        """Switch to degraded read-only mode: the disk stayed unwritable
        past bounded retries, so durable appends are refused cleanly
        (typed :class:`StorageDegradedError`) instead of letting the
        in-memory and durable histories diverge.  Idempotent."""
        if not self.degraded:
            self.degraded = True
            self._m_degraded.set(1)
        self.degraded_reason = reason

    def exit_degraded(self) -> None:
        """Leave degraded mode after probing that the disk writes again.
        Each attached storage consumer (durability provider, tiered
        store) is probed with a real write+fsync; an unhealthy disk
        raises ``OSError`` and the engine stays degraded."""
        if not self.degraded:
            return
        if self.durability is not None and hasattr(self.durability, "probe"):
            self.durability.probe()
        if self.tiered is not None:
            self.tiered.probe()
        self.degraded = False
        self.degraded_reason = None
        self._m_degraded.set(0)

    def _prepare_durable(self, state: SystemState) -> None:
        """Make ``state`` durable *before* it is installed anywhere.  In
        degraded mode the append is refused outright; otherwise an I/O
        failure in the provider surfaces here, leaving memory untouched."""
        if self.degraded:
            raise StorageDegradedError(
                f"storage degraded ({self.degraded_reason}); refusing to "
                f"append state at t={state.timestamp} — call "
                "exit_degraded() once the disk recovers",
                reason=self.degraded_reason or "",
            )
        if self.durability is not None and hasattr(self.durability, "prepare"):
            self.durability.prepare(state)

    # -- state appends ----------------------------------------------------------------

    _NO_DELTA: frozenset = frozenset()

    def _new_state(
        self,
        db_state,
        events: Iterable[ev.Event],
        ts: int,
        delta: Optional[frozenset] = _NO_DELTA,
    ) -> SystemState:
        """The state the next append will add: the one object a commit
        validator judges, the WAL logs, the history keeps and the bus
        publishes."""
        return SystemState(
            db_state, events, ts, index=self._state_count, delta=delta
        )

    def _append(self, state: SystemState, prepared: bool = False) -> SystemState:
        if not prepared:
            self._prepare_durable(state)
        if self.history is not None:
            state = self.history.append(state)
        self._state_count += 1
        self._last_state = state
        if self._obs_on:
            self._m_states.inc()
            if self.history is not None:
                self._m_history_len.set(len(self.history))
            self._m_demoted.set(VERSION_STATS.demoted)
            folded = VERSION_STATS.materialisations
            self._m_materialised.inc(folded - self._m_materialised.value)
        # A subscriber's failure surfaces here (EventBus.publish): the
        # state is appended either way.
        self.bus.publish(state)
        return state

    def post_event(
        self,
        event: Union[ev.Event, Iterable[ev.Event]],
        at_time: Optional[int] = None,
    ) -> SystemState:
        """Record one event (or a set of simultaneous events) occurring
        outside any transaction; appends one system state."""
        events = [event] if isinstance(event, ev.Event) else list(event)
        ts = self._next_timestamp(at_time)
        return self._append(self._new_state(self.db.state, events, ts))

    def tick(self, at_time: Optional[int] = None) -> SystemState:
        """Advance time and record a clock-tick event (so conditions like
        ``time = 540`` have a state at which to be observed)."""
        return self.post_event(ev.Event(ev.CLOCK_TICK), at_time)

    # -- transactions --------------------------------------------------------------------

    def begin(self, at_time: Optional[int] = None) -> Transaction:
        txn = self.txns.begin(self.db, self)
        if self.begin_states:
            ts = self._next_timestamp(at_time)
            state = self._append(
                self._new_state(self.db.state, [ev.transaction_begin(txn.id)], ts)
            )
            txn.begin_time = state.timestamp
        else:
            if at_time is not None and at_time > self.clock.now:
                self.clock.advance_to(at_time)
            txn.begin_time = self.clock.now
        return txn

    def execute(
        self,
        work: Callable[[Transaction], Any],
        at_time: Optional[int] = None,
        commit_time: Optional[int] = None,
    ) -> Transaction:
        """Run ``work`` inside a fresh transaction and commit it."""
        txn = self.begin(at_time)
        try:
            work(txn)
        except Exception:
            if txn.status is TxnStatus.ACTIVE:
                txn.abort(reason="exception in transaction body")
            raise
        txn.commit(commit_time)
        return txn

    # -- ingest batching / group commit --------------------------------------------

    @contextmanager
    def batch(self):
        """Group-commit scope: every state appended inside the ``with``
        block is logged to the WAL (when attached) without an fsync of its
        own; one fsync at block exit makes the whole batch durable
        atomically — recovery replays the batch entirely or not at all,
        never a prefix.  Rule managers evaluate every state when it is
        published, as outside a batch, and hold what a firing puts out —
        its firing-log entry and its action — until the batch is durable
        (integrity constraints veto *inside* the batch)."""
        if self.in_batch:
            raise ReproError("engine batches do not nest")
        self.in_batch = True
        if self.durability is not None:
            self.durability.begin_group()
        try:
            yield self
        finally:
            self.in_batch = False
            if self.durability is not None:
                self.durability.end_group()
        # Only on clean exit (durable point reached): let the temporal
        # component release the firings and actions it held.
        if self._obs_on:
            self._m_batches.inc()
        for listener in list(self.batch_listeners):
            listener()

    def enqueue(self, work: Callable[[Transaction], Any]) -> int:
        """Queue a transaction body for the next :meth:`drain`; returns
        the queue depth.  Raises :class:`QueueFullError` past
        ``max_queue`` — backpressure, not silent loss."""
        if len(self._txn_queue) >= self.max_queue:
            raise QueueFullError(
                f"ingest queue full ({self.max_queue} transactions); "
                "drain() before enqueueing more"
            )
        self._txn_queue.append(work)
        depth = len(self._txn_queue)
        if self._obs_on:
            self._m_queue_depth.set(depth)
        return depth

    @property
    def queue_depth(self) -> int:
        return len(self._txn_queue)

    def drain(self, max_batch: Optional[int] = None) -> list[Transaction]:
        """Run queued transaction bodies (up to ``max_batch``) inside one
        :meth:`batch`: their WAL records reach the disk with a single
        fsync and their firings and actions are released by the temporal
        component in one round.  A transaction aborted by an integrity
        constraint stays aborted without poisoning the rest of the batch.
        Returns the finished transactions (committed and aborted)."""
        count = len(self._txn_queue)
        if max_batch is not None:
            count = min(count, max_batch)
        if count == 0:
            return []
        done: list[Transaction] = []
        with self.batch():
            for _ in range(count):
                work = self._txn_queue.popleft()
                txn = self.begin()
                try:
                    work(txn)
                    txn.commit()
                except TransactionAborted:
                    # An integrity-constraint veto aborts this
                    # transaction only; the batch carries on.
                    pass
                except Exception:
                    if txn.status is TxnStatus.ACTIVE:
                        txn.abort(reason="exception in transaction body")
                    raise
                done.append(txn)
        if self._obs_on:
            self._m_queue_depth.set(len(self._txn_queue))
            self._m_batch_txns.observe(count)
        return done

    def _commit(self, txn: Transaction, at_time: Optional[int]) -> SystemState:
        ts = self._next_timestamp(at_time)
        candidate_db = txn.apply_to(self.db.state)
        txn_params = (txn.id,)  # one tuple for both of the commit's events
        events = [
            ev.Event(ev.ATTEMPTS_TO_COMMIT, txn_params),
            ev.Event(ev.TRANSACTION_COMMIT, txn_params),
            *txn.events,
        ]
        candidate = self._new_state(candidate_db, events, ts, txn.write_set())

        violations: list[str] = []
        for validator in self._commit_validators:
            violations.extend(validator(candidate, txn))

        if violations:
            self.txns.finish(txn, TxnStatus.ABORTED)
            if self._obs_on:
                self._m_aborts.inc()
            self._append(
                self._new_state(
                    self.db.state,
                    [ev.attempts_to_commit(txn.id), ev.transaction_abort(txn.id)],
                    ts,
                )
            )
            raise TransactionAborted(txn.id, "; ".join(violations))

        # Durable point: the commit record reaches the WAL *before* the
        # new database state is installed — an unwritable disk refuses the
        # commit cleanly (memory untouched, transaction still ACTIVE for
        # the caller to abort) instead of leaving the in-memory and
        # durable histories divergent.  Once installed, the transaction is
        # COMMITTED before rule actions run: an exception raised by an
        # action (publication below) surfaces as a typed ActionError with
        # the commit already decided, instead of masquerading as a
        # transaction failure.
        self._prepare_durable(candidate)
        self.db._set_state(candidate_db)
        self.txns.finish(txn, TxnStatus.COMMITTED)
        if self._obs_on:
            self._m_commits.inc()
        return self._append(candidate, prepared=True)

    def _abort(
        self, txn: Transaction, at_time: Optional[int], reason: str
    ) -> SystemState:
        ts = self._next_timestamp(at_time)
        self.txns.finish(txn, TxnStatus.ABORTED)
        if self._obs_on:
            self._m_aborts.inc()
        return self._append(
            self._new_state(self.db.state, [ev.transaction_abort(txn.id)], ts)
        )
