"""Durable write-ahead log of committed system states.

Every state the engine appends — transaction commits, user events, clock
ticks — is written to an append-only JSONL file *before* the engine
installs and publishes it (:meth:`WriteAheadLog.prepare`, called from
:meth:`repro.engine.ActiveDatabase._prepare_durable`), so no rule action
observes a state that is not logged.  Each record carries the state's
identity and delta::

    {"seq": 7, "ts": 12, "events": [["transaction_commit", [3]]],
     "changes": {"price": {"kind": "scalar", "value": 60.0},
                 "STOCK": {"kind": "rows", "del": [["IBM", 55.0]],
                           "add": [["IBM", 60.0]]}},
     "delta": ["STOCK", "price"]}

plus one *base* record (``"seq": null``) capturing the full catalog when
the log is first attached, so a log is replayable even without a
checkpoint.  The log is the system's one per-state record:
:meth:`repro.recovery.manager.RecoveryManager.audit` replays it into the
whole history offline.  Torn final records (a crash mid-append) are
detected and truncated by :func:`load_wal`; corruption anywhere else
raises :class:`~repro.errors.RecoveryError`.

Records are written by :func:`repro.storage.persist.encode_state`, the
codec the history segments also use: a changed relation
is logged as the rows that left and the rows that came
(``"kind": "rows"``), every other change as its full image — which is
also all that a log written before row deltas holds, so older logs
replay unchanged.  A row delta is relative to the previous *logged*
state, and that chain cannot have a hole: ``_prev`` advances only after
a record's write succeeded, :func:`load_wal` only ever drops a *suffix*
(a torn tail, an unmarked group), and recovery refuses a ``seq`` gap.

Group commit (:meth:`WriteAheadLog.begin_group` / ``end_group``, driven
by :meth:`repro.engine.ActiveDatabase.batch`): records inside a group are
tagged ``"g": <id>`` and written *without* per-record fsync; the group
ends with a commit-marker record ``{"g": id, "end": true}`` followed by a
single fsync.  :func:`load_wal` drops (and truncates) a trailing group
that lacks its marker — a crash mid-batch loses the batch atomically,
never a prefix of it.  Untagged records keep their own fsync and remain
individually durable, so group and non-group traffic interleave safely.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.errors import RecoveryError, StorageDegradedError
from repro.recovery.faultinject import (
    DISK_FULL,
    FSYNC_FAIL,
    MID_GROUP_COMMIT,
    MID_WAL,
    POST_COMMIT,
    PRE_COMMIT,
)
from repro.storage.persist import (
    encode_catalog,
    encode_state,
    fsync_dir,
    retry_io,
)

PathLike = Union[str, Path]


class WriteAheadLog:
    """Append-only durable log of (seq, ts, events, changes, delta)."""

    def __init__(
        self,
        path: PathLike,
        fsync: bool = True,
        injector=None,
        retries: int = 3,
        backoff: float = 0.002,
    ):
        self.path = Path(path)
        self.fsync = fsync
        self.injector = injector
        self.retries = retries
        self.backoff = backoff
        self.records_written = 0
        self._prev = None
        self._fp = None
        self._m_records = None
        self._m_bytes = None
        self._m_groups = None
        self._m_retries = None
        #: Active group id (None outside a group) and whether the group
        #: has written any record yet (empty groups skip the marker).
        self._group: Optional[int] = None
        self._group_dirty = False
        self._next_group = 0
        self._engine = None

    @classmethod
    def attach(
        cls,
        engine,
        path: PathLike,
        fsync: bool = True,
        injector=None,
    ) -> "WriteAheadLog":
        """Start logging ``engine``'s states to ``path``.

        If the file is empty (or absent) a base record with the full
        current state and query catalog is written first.  From then on
        the engine hands every state to :meth:`prepare` before it
        installs and publishes it."""
        wal = cls(path, fsync=fsync, injector=injector)
        wal._prev = engine.db.state
        fresh = not wal.path.exists() or wal.path.stat().st_size == 0
        wal._fp = open(wal.path, "a")
        if fresh:
            wal._write_line(
                {"seq": None, "ts": None, **encode_catalog(engine.db)}
            )
            # Make the log file's *name* durable too: a crash right after
            # creation must not lose the base record to an unsynced
            # directory entry.
            fsync_dir(wal.path.parent if str(wal.path.parent) else ".")
        wal._engine = engine
        # The engine prepares every state with us, and its batch()
        # amortizes our fsync via begin_group()/end_group().
        engine.durability = wal
        registry = getattr(engine, "metrics", None)
        if registry is not None and registry.enabled:
            wal._m_records = registry.counter("wal_records_total")
            wal._m_bytes = registry.gauge("wal_bytes")
            wal._m_groups = registry.counter("wal_group_commits_total")
            wal._m_retries = registry.counter("io_retries_total")
        return wal

    # -- appending ---------------------------------------------------------

    def prepare(self, state) -> None:
        """Write ``state``'s record durably *before* the engine installs
        it (called for every appended state via
        :meth:`~repro.engine.ActiveDatabase._prepare_durable`)."""
        if self.injector is not None:
            self.injector.hit(PRE_COMMIT)
        record = encode_state(state, self._prev)
        record["seq"] = state.index
        if self._group is not None:
            record["g"] = self._group
        self._write_line(record)
        self._prev = state.db
        if self.injector is not None:
            self.injector.hit(POST_COMMIT)

    def _durable_write(self, text: str, sync: bool) -> None:
        """Append ``text`` (and optionally fsync) with bounded
        retry-with-backoff on transient ``OSError``.  A failed attempt is
        rewound (seek + truncate back to its start offset) so a retry —
        or any later record — never duplicates bytes.  Exhaustion and
        non-transient errors (ENOSPC above all) flip the engine into
        degraded read-only mode and surface as
        :class:`~repro.errors.StorageDegradedError`."""

        def attempt() -> None:
            if self.injector is not None:
                self.injector.io_check(DISK_FULL)
            start = self._fp.tell()
            try:
                self._fp.write(text)
                self._fp.flush()
                if sync:
                    if self.injector is not None:
                        self.injector.io_check(FSYNC_FAIL)
                    os.fsync(self._fp.fileno())
            except OSError:
                try:
                    self._fp.seek(start)
                    self._fp.truncate(start)
                except OSError:
                    pass
                raise

        def note(exc: OSError, _attempt: int) -> None:
            if self._m_retries is not None:
                self._m_retries.inc()

        try:
            retry_io(
                attempt,
                retries=self.retries,
                backoff=self.backoff,
                on_retry=note,
            )
        except OSError as exc:
            if self._engine is not None and hasattr(
                self._engine, "enter_degraded"
            ):
                self._engine.enter_degraded(f"WAL append failed: {exc}")
            raise StorageDegradedError(
                f"WAL append to {str(self.path)!r} failed after "
                f"{self.retries} retries: {exc}",
                reason=str(exc),
            ) from exc

    def _write_line(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        if self.injector is not None and self.injector.due(MID_WAL):
            # Torn write: a prefix of the record reaches the disk, then
            # the "machine" dies.
            torn = line[: max(1, len(line) // 2)]
            self._fp.write(torn)
            self._fp.flush()
            os.fsync(self._fp.fileno())
            self.injector.hit(MID_WAL)
        # Group commit defers durability to the single fsync in
        # end_group(); the record is still flushed (visible to load_wal
        # for inspection) but not yet guaranteed on disk.
        self._durable_write(line, sync=self._group is None and self.fsync)
        if self._group is not None:
            self._group_dirty = True
        self.records_written += 1
        if self._m_records is not None:
            self._m_records.inc()
            self._m_bytes.set(self._fp.tell())

    # -- group commit ------------------------------------------------------

    def begin_group(self) -> int:
        """Start a commit group: subsequent records are tagged with the
        group id and their fsyncs deferred until :meth:`end_group`."""
        if self._group is not None:
            raise RecoveryError("WAL commit groups do not nest")
        self._group = self._next_group
        self._next_group += 1
        self._group_dirty = False
        return self._group

    def end_group(self) -> None:
        """Close the current group: write its commit marker and make the
        whole batch durable with one fsync.  An empty group (no records
        written) leaves no trace in the log."""
        if self._group is None:
            raise RecoveryError("end_group() without begin_group()")
        group, self._group = self._group, None
        if not self._group_dirty:
            return
        if self.injector is not None:
            self.injector.hit(MID_GROUP_COMMIT)
        marker = json.dumps({"g": group, "end": True}) + "\n"
        self._durable_write(marker, sync=self.fsync)
        if self._m_groups is not None:
            self._m_groups.inc()
            self._m_bytes.set(self._fp.tell())

    def probe(self) -> None:
        """Verify the log is writable again (degraded-mode exit): flush
        and fsync the descriptor.  Raises ``OSError`` while the disk is
        still unhealthy."""
        if self.injector is not None:
            self.injector.io_check(DISK_FULL)
            self.injector.io_check(FSYNC_FAIL)
        self._fp.flush()
        os.fsync(self._fp.fileno())

    def detach(self) -> None:
        if self._engine is not None:
            if getattr(self._engine, "durability", None) is self:
                self._engine.durability = None
            self._engine = None
        if self._fp is not None:
            self._fp.close()
            self._fp = None


def load_wal(
    path: PathLike, truncate_torn: bool = True
) -> tuple[list[dict], bool]:
    """Read a WAL; returns ``(records, torn)``.

    A torn *final* record — the signature of a crash mid-append — is
    dropped, and with ``truncate_torn`` (the default) the file itself is
    truncated back to the last complete record so later appends produce a
    clean log.  A malformed record with complete records *after* it is
    real corruption and raises :class:`~repro.errors.RecoveryError`.

    Group atomicity: records tagged ``"g"`` whose commit marker
    (``{"g": id, "end": true}``) never made it to the log — a crash
    mid-group-commit — are dropped (and truncated) as a unit, so a batch
    replays entirely or not at all.  Because groups are written
    sequentially, an unmarked group is always a suffix of the log."""
    target = Path(path)
    if not target.exists():
        return [], False
    data = target.read_bytes()
    records: list[dict] = []
    starts: list[int] = []
    offset = 0
    good_end = 0
    torn = False
    while offset < len(data):
        newline = data.find(b"\n", offset)
        end = len(data) if newline < 0 else newline + 1
        raw = data[offset:end]
        stripped = raw.strip()
        if stripped:
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if data[end:].strip():
                    raise RecoveryError(
                        f"corrupt WAL record at byte {offset} of "
                        f"{str(path)!r} (not the final record)"
                    ) from None
                torn = True
                break
            records.append(record)
            starts.append(offset)
            good_end = end
        offset = end
    # Drop a trailing group that never got its commit marker: all-or-
    # nothing, never a prefix.  Group ids restart with every attach, so
    # only a marker *after* a group's records closes it.
    open_groups: dict = {}  # group id -> index of its first record
    for i, record in enumerate(records):
        if "g" in record:
            if record.get("end"):
                open_groups.pop(record["g"], None)
            else:
                open_groups.setdefault(record["g"], i)
    cut = min(open_groups.values(), default=None)
    if cut is not None:
        good_end = starts[cut]
        records = records[:cut]
        torn = True
    if torn and truncate_torn:
        with open(target, "rb+") as fp:
            fp.truncate(good_end)
    return records, torn
