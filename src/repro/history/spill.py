"""Tiered history: a memory governor + transparent spill to segments.

ROADMAP item 3: bounded-memory pruning handles time-bounded operators,
but the engine's :class:`~repro.history.history.SystemHistory`,
auxiliary-relation versions, and unbounded-``Since`` storage still grow
in RAM forever.  This module splits each into a *hot*
recent window kept in memory and an *archival* past spilled to the
checksummed segments of :class:`~repro.storage.tiers.SegmentStore`:

* :class:`MemoryGovernor` — tracks estimated bytes per account against a
  configurable budget;
* :class:`TieredHistory` — a drop-in ``SystemHistory`` whose cold prefix
  lives in segments, faulted back transparently (and lazily) on
  deep-past reads (``as_of``, iteration, ``explain_firing`` walks);
* :class:`TieredRuntime` / :func:`attach_tiered_history` — wires a live
  engine: accounts every appended state, spills when over budget, enters
  the engine's degraded read-only mode when the disk stays unwritable,
  and archives everything at checkpoint time so
  :func:`restore_tiers` can rebuild a spilled run bit-identically.

Unbounded-``Since`` stored formulas are *accounted* (they are consulted
at every step, so spilling them would just move the hot loop to disk);
history states and auxiliary-relation versions are *spilled*.  Execution
records are not a tier: the rule manager keeps only those some live
condition reads, and those are consulted at every step.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_right
from pathlib import Path
from typing import Callable, Optional, Union

from repro.datamodel.relation import Relation
from repro.errors import HistoryError
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.obs.metrics import as_registry
from repro.storage.persist import apply_state, encode_state, state_events
from repro.storage.snapshot import IndexedItem
from repro.storage.tiers import SegmentRecords, SegmentStore

PathLike = Union[str, Path]

#: Default budget before spilling begins (64 MiB of estimated bytes).
DEFAULT_BUDGET = 64 * 1024 * 1024
#: Default number of recent states kept hot in memory.
DEFAULT_HOT_WINDOW = 256
#: Conventional segment subdirectory inside a recovery directory.
SEGMENT_DIR_NAME = "segments"

#: Per-unit RAM estimates.  A hot state's fixed part is its SystemState,
#: event set, events, write-set and DatabaseState item table (measured:
#: ~1.25 kB for a three-item database and a four-event commit); a row only
#: the past still holds is a Row, its value tuple and a boxed value or two.
_EST_STATE_BYTES = 1280
_EST_ROW_BYTES = 200
_EST_AUX_ROW_BYTES = 120
_EST_FORMULA_BYTES = 80

_ABSENT = object()


def _version_bytes(value, prev) -> int:
    """What the hot window keeps because one database item went from
    ``prev`` to ``value``.  A relation that replaced a relation leaves its
    predecessor behind: a reverse row-delta once the engine superseded it
    (two row tuples, plus the rows the successor dropped — the others are
    shared), the table it still owns otherwise.  The newest table itself
    is the current database's, not the history's.  Anything else costs
    its container: the entry table of an indexed item, a boxed scalar."""
    if isinstance(value, Relation):
        if prev is value:
            return 0
        if not isinstance(prev, Relation):
            return sys.getsizeof(value.rows)
        delta = prev.delta_onto(value)
        if delta is None:
            return sys.getsizeof(prev.rows)
        removed, added = delta
        return (
            sys.getsizeof(removed)
            + sys.getsizeof(added)
            + len(removed) * _EST_ROW_BYTES
        )
    if isinstance(value, IndexedItem):
        return sys.getsizeof(value._entries)
    return sys.getsizeof(value)


def _state_ram_bytes(state: SystemState, prev: Optional[SystemState]) -> int:
    """Estimated bytes ``state`` allocated beyond its predecessor: the
    fixed per-state part plus what each item of its write-set left behind
    (:func:`_version_bytes`).  An unknown write-set (``delta is None``)
    falls back to item identity against ``prev``, as delta-aware
    evaluation does."""
    db = state.db

    def before(name):
        if prev is not None and prev.db.has_item(name):
            return prev.db.raw_item(name)
        return _ABSENT

    names = state.delta
    if names is None:
        names = [
            n for n in db.item_names() if before(n) is not db.raw_item(n)
        ]
    return _EST_STATE_BYTES + sum(
        _version_bytes(db.raw_item(n), before(n))
        for n in names
        if db.has_item(n)
    )


def _records_of(states):
    """The records of one history segment, one at a time: the first a
    snapshot head, each later one a row delta off its predecessor."""
    prev_db = None
    for state in states:
        record = encode_state(state, prev_db)
        record["i"] = state.index
        yield record
        prev_db = state.db


# -- the governor ----------------------------------------------------------


class MemoryGovernor:
    """Byte-budget accounting across the growable stores.

    Accounts are callables returning an *estimated* figure of bytes of
    RAM; the governor sums them against ``budget_bytes`` and the runtime
    spills while :meth:`over_budget`.  Estimates are deliberately cheap
    (a running sum of container sizes for the history, counts times a
    constant for the rest) — the point is a trigger that tracks what the
    process holds, not an allocator-grade measurement."""

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET, metrics=None):
        self.budget_bytes = max(0, int(budget_bytes))
        self._accounts: dict[str, Callable[[], int]] = {}
        self.metrics = as_registry(metrics)
        self._m_bytes = self.metrics.gauge("governor_bytes")
        self._m_budget = self.metrics.gauge("governor_budget_bytes")
        self._m_budget.set(self.budget_bytes)

    def register(self, name: str, estimate: Callable[[], int]) -> None:
        self._accounts[name] = estimate

    def unregister(self, name: str) -> None:
        self._accounts.pop(name, None)

    def usage(self) -> dict[str, int]:
        return {name: int(fn()) for name, fn in self._accounts.items()}

    def total(self) -> int:
        total = sum(int(fn()) for fn in self._accounts.values())
        self._m_bytes.set(total)
        return total

    def over_budget(self) -> bool:
        return self.total() > self.budget_bytes

    def __repr__(self) -> str:
        return (
            f"MemoryGovernor({self.total()}/{self.budget_bytes} bytes, "
            f"accounts={sorted(self._accounts)})"
        )


# -- the tiered history ----------------------------------------------------


class TieredHistory(SystemHistory):
    """A system history whose cold prefix lives in on-disk segments.

    Positions ``[0, archived)`` are covered by sealed segments (the
    *catalog*); positions ``[mem_start, total)`` are in memory.  The two
    ranges may overlap — after :meth:`archive` (checkpoint flush), and
    because :meth:`spill` seals a batch ahead of what it evicts: reads
    prefer memory, and a later spill advances ``mem_start`` without
    rewriting anything.  The invariant is ``mem_start <= archived``: no
    gap — every position is in at least one tier.

    A deep-past read faults *one* segment's verified bytes and
    materialises *one* state from them, decoding only the records it
    replays (row deltas, so small): a forward cursor replays the delta
    chain, so sequential access is linear and two consecutive faulted
    states share every row that did not change.

    ``base_index`` keeps the parent-class meaning (index of the first
    *in-memory* state) and is advanced as states are dropped, so
    :meth:`SystemHistory.append` assigns globally consistent indices
    unchanged."""

    def __init__(
        self,
        store: SegmentStore,
        hot_window: int = DEFAULT_HOT_WINDOW,
        validate_transaction_time: bool = True,
        metrics=None,
        segment_records: int = 2048,
    ):
        super().__init__((), validate_transaction_time)
        self._store = store
        self.hot_window = max(1, int(hot_window))
        self.segment_records = max(16, int(segment_records))
        #: Segment descriptors, in position order; meta carries
        #: first_pos/first_index/first_ts/last_ts for targeted faulting.
        #: ``_first_pos`` / ``_first_ts`` are its bisect keys.
        self._catalog: list[dict] = []
        self._first_pos: list[int] = []
        self._first_ts: list[int] = []
        self._archived = 0  # positions covered by the catalog
        self._mem_start = 0  # position of self._states[0]
        #: The one faulted segment: (segment number, its records), and
        #: the cursor into it: (k, the state records[k] describes).
        self._cache: Optional[tuple[int, SegmentRecords]] = None
        self._cursor: tuple[int, Optional[SystemState]] = (-1, None)
        #: The RAM account: what each hot state added (aligned with
        #: ``_states``) and the running sum the governor reads.
        self._state_bytes: list[int] = []
        self._hot_bytes = 0
        self.metrics = as_registry(metrics)
        self._m_spilled_bytes = self.metrics.counter("history_spilled_bytes")
        self._m_spilled = self.metrics.gauge("history_spilled_states")
        self._m_hot = self.metrics.gauge("history_hot_states")
        self._m_hot_bytes = self.metrics.gauge("history_hot_bytes")
        self._m_faults = self.metrics.counter("history_faults_total")
        self._m_faulted = self.metrics.gauge("history_faulted_records")
        self._m_cache_bytes = self.metrics.gauge("history_fault_cache_bytes")

    # -- sizing ------------------------------------------------------------

    def __len__(self) -> int:
        return self._mem_start + len(self._states)

    @property
    def hot_states(self) -> int:
        return len(self._states)

    @property
    def spilled_states(self) -> int:
        return self._mem_start

    def estimated_hot_bytes(self) -> int:
        """Estimated bytes of RAM the hot window holds beyond the current
        database state — the history's account with the governor."""
        return self._hot_bytes

    def append(self, state: SystemState) -> SystemState:
        prev = self._states[-1] if self._states else None
        state = super().append(state)
        self._account(state, prev)
        return state

    def _account(self, state: SystemState, prev: Optional[SystemState]) -> None:
        cost = _state_ram_bytes(state, prev)
        self._state_bytes.append(cost)
        self._hot_bytes += cost
        self._report_hot()

    def _report_hot(self) -> None:
        self._m_hot.set(len(self._states))
        self._m_hot_bytes.set(self._hot_bytes)

    # -- access ------------------------------------------------------------

    def _norm(self, index: int) -> int:
        total = len(self)
        if index < 0:
            index += total
        if not 0 <= index < total:
            raise IndexError(index)
        return index

    def _segment_for(self, position: int) -> int:
        seg = bisect_right(self._first_pos, position) - 1
        if seg < 0:
            raise HistoryError(
                f"position {position} precedes the segment catalog"
            )
        return seg

    def _segment_records(self, seg: int) -> SegmentRecords:
        if self._cache is None or self._cache[0] != seg:
            # Let go of the previous segment and its cursor state first:
            # a fault holds one segment, never two.
            self._cache, self._cursor = None, (-1, None)
            records = self._store.load_segment(self._catalog[seg])
            self._m_faults.inc()
            self._m_faulted.set(len(records))
            self._m_cache_bytes.set(records.nbytes)
            self._cache = (seg, records)
        return self._cache[1]

    def _faulted_state(self, seg: int, k: int) -> SystemState:
        """The state record ``k`` of segment ``seg`` describes: the delta
        chain replayed forward from the cursor (from the segment's
        snapshot head when the cursor is already past ``k``), decoding
        each record it applies once."""
        records = self._segment_records(seg)
        at, state = self._cursor
        if at > k:
            at, state = -1, None
        if at < k:
            db = None if state is None else state.db
            for j in range(at + 1, k + 1):
                record = records[j]
                db = apply_state(db, record)
            events, delta = state_events(record)
            state = SystemState(
                db, events, record["ts"], index=record["i"], delta=delta
            )
            self._cursor = (k, state)
        return state

    def _state_at(self, position: int) -> SystemState:
        if position >= self._mem_start:
            return self._states[position - self._mem_start]
        seg = self._segment_for(position)
        return self._faulted_state(seg, position - self._first_pos[seg])

    def __getitem__(self, index):
        if isinstance(index, slice):
            rng = range(*index.indices(len(self)))
            return SystemHistory(
                (self._state_at(i) for i in rng),
                validate_transaction_time=False,
            )
        return self._state_at(self._norm(index))

    def __iter__(self):
        for position in range(self._mem_start):
            yield self._state_at(position)
        yield from self._states

    @property
    def states(self) -> list[SystemState]:
        return list(self)

    @property
    def last(self) -> Optional[SystemState]:
        # Freshly restored, the hot window is empty and the newest state
        # is the final record of the final segment.
        return self[-1] if len(self) else None

    def as_of(self, timestamp: int) -> Optional[SystemState]:
        """Latest state at or before ``timestamp``; faults at most one
        segment — the transparent deep-past read path."""
        if self._states and timestamp >= self._states[0].timestamp:
            i = bisect_right(
                self._states, timestamp, key=lambda s: s.timestamp
            )
            return self._states[i - 1] if i else None
        seg = bisect_right(self._first_ts, timestamp) - 1
        if seg < 0:
            return None
        k = bisect_right(
            self._segment_records(seg), timestamp, key=lambda r: r["ts"]
        )
        return self._faulted_state(seg, k - 1)

    def up_to_time(self, timestamp: int) -> SystemHistory:
        return SystemHistory(
            itertools.takewhile(
                lambda s: s.timestamp <= timestamp, iter(self)
            ),
            validate_transaction_time=False,
        )

    def state_at_time(self, timestamp: int) -> Optional[SystemState]:
        state = self.as_of(timestamp)
        return state if state is not None and state.timestamp == timestamp else None

    def commit_points(self) -> list[int]:
        return [i for i, s in enumerate(self) if s.is_commit_point()]

    # -- spilling ----------------------------------------------------------

    def _catalog_append(self, info: dict) -> None:
        self._catalog.append(info)
        self._first_pos.append(info["meta"]["first_pos"])
        self._first_ts.append(info["meta"]["first_ts"])

    def _archive_to(self, position: int) -> None:
        """Extend catalog coverage to ``position`` (exclusive)."""
        while self._archived < position:
            count = min(
                position - self._archived, self.segment_records
            )
            start = self._archived - self._mem_start
            chunk = self._states[start : start + count]
            info = self._store.write_segment(
                "history",
                _records_of(chunk),
                meta={
                    "first_pos": self._archived,
                    "first_index": chunk[0].index,
                    "first_ts": chunk[0].timestamp,
                    "last_ts": chunk[-1].timestamp,
                },
            )
            self._catalog_append(info)
            self._archived += count
            self._m_spilled_bytes.inc(info["bytes"])

    def spill(self, keep_hot: Optional[int] = None) -> int:
        """Move cold states to segments, keeping the ``keep_hot`` (default
        ``hot_window``) most recent in memory.  Atomic: segments are
        sealed and fsynced before anything leaves memory — an I/O error
        mid-spill loses nothing.  Returns how many states were dropped
        from memory."""
        keep = self.hot_window if keep_hot is None else max(0, keep_hot)
        target = max(0, len(self) - keep)
        if target <= self._mem_start:
            return 0
        if target > self._archived:
            # Seal a batch, not one file per check: archive a quarter of
            # the hot window ahead of what is evicted (the ranges may
            # overlap), so the spills that follow only evict.
            ahead = self._archived + self.hot_window // 4
            self._archive_to(min(len(self), max(target, ahead)))
        dropped = target - self._mem_start
        del self._states[:dropped]
        self._hot_bytes -= sum(self._state_bytes[:dropped])
        del self._state_bytes[:dropped]
        self._mem_start = target
        self.base_index += dropped
        self._m_spilled.set(self._mem_start)
        self._report_hot()
        return dropped

    def archive(self) -> dict:
        """Seal *everything* into segments without evicting the hot
        window — the checkpoint flush that makes a spilled run fully
        restorable — and return the tier descriptor for the checkpoint."""
        self._archive_to(len(self))
        return self.tier_state()

    def tier_state(self) -> dict:
        return {
            "segments": [dict(info) for info in self._catalog],
            "archived": self._archived,
            "hot_window": self.hot_window,
            # Global index of position 0: positions are local to this
            # history (an engine recovered mid-run keeps only a suffix),
            # so restore() needs the offset to keep indices consistent.
            "index_base": self.base_index - self._mem_start,
        }

    @classmethod
    def restore(
        cls,
        store: SegmentStore,
        tier_state: dict,
        metrics=None,
        verify: bool = True,
    ) -> "TieredHistory":
        """Rebuild a tiered history from a checkpoint descriptor.

        With ``verify`` (the default) every referenced segment is loaded
        and checked against its fingerprint before use; anything missing
        or mismatched raises :class:`~repro.errors.RecoveryError`, and
        unreferenced segment files (crash debris) are quarantined."""
        history = cls(
            store, hot_window=tier_state["hot_window"], metrics=metrics
        )
        for info in tier_state["segments"]:
            history._catalog_append(dict(info))
        history._archived = tier_state["archived"]
        history._mem_start = history._archived
        history.base_index = tier_state["index_base"] + history._mem_start
        if verify:
            for info in history._catalog:
                store.verify(info)
        history._m_spilled.set(history._mem_start)
        return history


# -- the runtime glue ------------------------------------------------------


class TieredRuntime:
    """Wires a live engine to the governor and the segment store.

    Subscribed on the event bus *behind* the WAL and the rule manager:
    by the time a spill decision runs, the state is durable and the
    temporal component has seen it.  A spill that keeps failing after
    bounded retries puts the engine into degraded read-only mode instead
    of raising into the committing transaction — the commit that
    triggered the spill is already durable; only *future* durable work
    is refused."""

    def __init__(
        self,
        engine,
        store: SegmentStore,
        governor: MemoryGovernor,
        history: TieredHistory,
        manager=None,
        spill_check_every: int = 8,
    ):
        self.engine = engine
        self.store = store
        self.governor = governor
        self.history = history
        self.manager = None
        self.spill_check_every = max(1, spill_check_every)
        self._since_check = 0
        self._aux_stores: list = []
        governor.register("history", history.estimated_hot_bytes)
        if manager is not None:
            self.adopt_manager(manager)
        self._subscription = engine.bus.subscribe(self._on_state)
        engine.tiered = self

    # -- wiring ------------------------------------------------------------

    def adopt_manager(self, manager) -> None:
        """Account the temporal component's stored formulas with the
        governor."""
        self.manager = manager
        if hasattr(manager, "total_state_size"):
            self.governor.register(
                "since",
                lambda: manager.total_state_size() * _EST_FORMULA_BYTES,
            )

    def track_aux(self, aux_store) -> None:
        """Account (and spill) an auxiliary-relation store's versions."""
        self._aux_stores.append(aux_store)
        self.governor.register(
            f"aux:{id(aux_store):x}",
            lambda: aux_store.total_rows() * _EST_AUX_ROW_BYTES,
        )

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        if getattr(self.engine, "tiered", None) is self:
            self.engine.tiered = None

    # -- spill policy ------------------------------------------------------

    def _on_state(self, state) -> None:
        self._since_check += 1
        if self._since_check < self.spill_check_every:
            return
        self._since_check = 0
        self.maybe_spill()

    def maybe_spill(self) -> int:
        """Spill cold data while over budget; returns states spilled.

        ``OSError`` surviving the store's retry loop flips the engine to
        degraded read-only mode (nothing is lost — the in-memory copy is
        kept); a :class:`SimulatedCrash` tears through like a real
        crash."""
        if getattr(self.engine, "degraded", False):
            return 0
        if not self.governor.over_budget():
            return 0
        spilled = 0
        try:
            spilled = self.history.spill()
            horizon = (
                self.history._states[0].timestamp
                if self.history._states
                else None
            )
            for aux in self._aux_stores:
                if horizon is not None and hasattr(aux, "spill_cold"):
                    aux.spill_cold(horizon, self.store)
        except OSError as exc:
            self.engine.enter_degraded(f"history spill failed: {exc}")
        return spilled

    # -- checkpoint integration -------------------------------------------

    def archive(self) -> dict:
        """Flush every tier to sealed segments and return the checkpoint
        descriptor (segment names + fingerprints)."""
        return {
            "history": self.history.archive(),
            "budget_bytes": self.governor.budget_bytes,
        }

    def probe(self) -> None:
        self.store.probe()


def attach_tiered_history(
    engine,
    directory: PathLike,
    budget_bytes: int = DEFAULT_BUDGET,
    hot_window: int = DEFAULT_HOT_WINDOW,
    manager=None,
    injector=None,
    fsync: bool = True,
    retries: int = 3,
    backoff: float = 0.002,
    spill_check_every: int = 8,
    segment_records: int = 2048,
) -> TieredRuntime:
    """Put ``engine.history`` behind the memory governor.

    Existing states migrate into the hot window of a new
    :class:`TieredHistory`; from here on the runtime spills cold data to
    ``directory`` whenever the governor's budget is exceeded.  Returns
    the :class:`TieredRuntime` (also reachable as ``engine.tiered`` —
    checkpoints use that hook to archive and reference segments)."""
    if engine.history is None:
        raise HistoryError(
            "tiered history needs an engine with keep_history=True"
        )
    store = SegmentStore(
        directory,
        fsync=fsync,
        injector=injector,
        metrics=engine.metrics,
        retries=retries,
        backoff=backoff,
    )
    history = TieredHistory(
        store,
        hot_window=hot_window,
        validate_transaction_time=engine.history.validate_transaction_time,
        metrics=engine.metrics,
        segment_records=segment_records,
    )
    history.base_index = engine.history.base_index
    prev = None
    for state in engine.history._states:
        history._states.append(state)
        history._account(state, prev)
        prev = state
    engine.history = history
    governor = MemoryGovernor(budget_bytes, metrics=engine.metrics)
    return TieredRuntime(
        engine,
        store,
        governor,
        history,
        manager=manager,
        spill_check_every=spill_check_every,
    )


def restore_tiers(
    engine,
    tiers: dict,
    directory: PathLike,
    injector=None,
    verify: bool = True,
) -> TieredRuntime:
    """Rebuild the tiered runtime from a checkpoint's ``tiers`` section
    (fingerprint-verified).  The engine's history becomes a
    :class:`TieredHistory` whose archive is the checkpointed segment set;
    call :meth:`TieredRuntime.adopt_manager` once the rule manager is
    restored to put its stored formulas back under the governor.

    Segment files the history does not list are quarantined.  That
    includes the ``seg-executed-*`` files of a checkpoint written while
    execution records still spilled (its ``tiers.executed`` section):
    they only ever held records of rules no condition read, which the
    manager no longer keeps."""
    store = SegmentStore(
        directory, injector=injector, metrics=engine.metrics
    )
    live = [info["name"] for info in tiers["history"]["segments"]]
    history = TieredHistory.restore(
        store,
        tiers["history"],
        metrics=engine.metrics,
        verify=verify,
    )
    store.quarantine_orphans(live)
    engine.history = history
    governor = MemoryGovernor(tiers["budget_bytes"], metrics=engine.metrics)
    return TieredRuntime(engine, store, governor, history)
