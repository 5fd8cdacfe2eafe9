"""Change log: a durable record of every system state, replayable offline.

The engine keeps the current state; the temporal component keeps only what
its conditions need.  For *offline* auditing — checking a new temporal
constraint against last week's activity, or re-running the reference
semantics over an incident window — a durable log of (timestamp, events,
changed items) suffices to reconstruct the full system history:

    log = ChangeLog.attach(engine)          # record as the system runs
    log.to_jsonl(path)                      # persist
    history = ChangeLog.from_jsonl(path).replay()
    satisfies(history.states, i, constraint)

Replay reproduces timestamps, event names/parameters, write-sets and
database states exactly.  Records are the state records of
:func:`repro.storage.persist.encode_state` — the codec the WAL and the
history segments use: a changed relation is recorded as its row delta
(``"kind": "rows"``) against the previous record, anything else as the
full image that snapshots use; the base record holds full images only.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Optional, Union

from repro.errors import StorageError
from repro.history.history import SystemHistory
from repro.history.state import SystemState
from repro.storage.persist import (
    _encode_item,
    apply_state,
    atomic_write_text,
    encode_state,
    state_events,
)
from repro.storage.snapshot import DatabaseState, supersede

PathLike = Union[str, Path]


class ChangeLog:
    """Per-state deltas captured off the engine's event bus."""

    def __init__(self) -> None:
        #: Each record: {"ts", "events": [[name, [params]]], "delta",
        #: "changes": {item: payload}} — the first record carries the
        #: full base state.
        self.records: list[dict] = []
        self._prev: Optional[DatabaseState] = None
        self._subscription = None
        self._registry = None
        self._m_records = None
        #: Records already persisted by append_jsonl / the stream.
        self._appended = 0
        self._stream = None
        self._stream_fsync = False

    # -- recording ------------------------------------------------------------

    @classmethod
    def attach(cls, engine) -> "ChangeLog":
        """Start recording the engine's published states (the base state
        is captured now; attach before the workload runs)."""
        log = cls()
        log._prev = engine.db.state
        log.records.append(
            {
                "ts": None,
                "events": [],
                "changes": {
                    name: _encode_item(engine.db.state.raw_item(name))
                    for name in engine.db.state.item_names()
                },
            }
        )
        log._subscription = engine.bus.subscribe(log._on_state)
        registry = getattr(engine, "metrics", None)
        if registry is not None and registry.enabled:
            log._registry = registry
            log._m_records = registry.counter("changelog_records_total")
        return log

    def _on_state(self, state: SystemState) -> None:
        self.records.append(encode_state(state, self._prev))
        self._prev = state.db
        if self._stream is not None:
            self._stream_records()
        if self._m_records is not None:
            self._m_records.inc()

    def detach(self) -> None:
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        self.close_stream()

    # -- persistence ---------------------------------------------------------------

    def to_jsonl(self, path: PathLike) -> None:
        """Rewrite ``path`` with the full record list.  The write is
        atomic (sibling temp file + fsync + rename): a crash mid-save
        leaves any previous log intact."""
        text = "".join(
            json.dumps(record, sort_keys=True) + "\n"
            for record in self.records
        )
        atomic_write_text(path, text)
        if self._registry is not None:
            self._registry.gauge("changelog_bytes").set(len(text))

    def append_jsonl(self, path: PathLike, fsync: bool = False) -> int:
        """Streaming append: write only the records captured since the
        last append (or since the log was loaded), returning how many were
        written.  Unlike :meth:`to_jsonl`, cost is proportional to the new
        records, not the log length."""
        pending = self.records[self._appended :]
        if pending:
            with open(path, "a") as fp:
                for record in pending:
                    fp.write(json.dumps(record, sort_keys=True) + "\n")
                fp.flush()
                if fsync:
                    os.fsync(fp.fileno())
            self._appended = len(self.records)
        return len(pending)

    def stream_to(self, path: PathLike, fsync: bool = False) -> None:
        """Open ``path`` for continuous appending: already-captured
        records are flushed now, and every future record is appended as it
        is captured (with an fsync per record when ``fsync`` is true)."""
        self.close_stream()
        self._stream = open(path, "a")
        self._stream_fsync = fsync
        self._stream_records()

    def close_stream(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _stream_records(self) -> None:
        pending = self.records[self._appended :]
        if not pending:
            return
        for record in pending:
            self._stream.write(json.dumps(record, sort_keys=True) + "\n")
        self._stream.flush()
        if self._stream_fsync:
            os.fsync(self._stream.fileno())
        self._appended = len(self.records)

    @classmethod
    def from_jsonl(cls, path: PathLike) -> "ChangeLog":
        """Load a log.  A torn *trailing* record (crash mid-append) is
        skipped with a warning; corruption anywhere else raises
        :class:`~repro.errors.StorageError`."""
        log = cls()
        lines = Path(path).read_text().splitlines()
        for i, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError:
                if any(rest.strip() for rest in lines[i + 1 :]):
                    raise StorageError(
                        f"corrupt change log record at line {i + 1} "
                        f"of {str(path)!r}"
                    ) from None
                warnings.warn(
                    f"change log {str(path)!r}: skipping torn trailing "
                    f"record at line {i + 1}",
                    stacklevel=2,
                )
                break
            log.records.append(record)
        if not log.records:
            raise StorageError(f"empty change log {str(path)!r}")
        log._appended = len(log.records)
        return log

    # -- replay -----------------------------------------------------------------------

    def replay(self) -> SystemHistory:
        """Reconstruct the system history the log recorded."""
        if not self.records or self.records[0]["ts"] is not None:
            raise StorageError("log has no base-state record")
        db = apply_state(DatabaseState({}), self.records[0])
        history = SystemHistory(validate_transaction_time=False)
        for record in self.records[1:]:
            prev, db = db, apply_state(db, record)
            supersede(prev, db)
            events, delta = state_events(record)
            history.append(SystemState(db, events, record["ts"], delta=delta))
        return history

    def __len__(self) -> int:
        return max(0, len(self.records) - 1)
