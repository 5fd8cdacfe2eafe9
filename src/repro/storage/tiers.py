"""Checksummed on-disk segments for the tiered history subsystem.

A :class:`SegmentStore` owns a directory of append-only *segments*: each
segment is one jsonl file written once and sealed — a header line carrying
the record count and a SHA-256 over the payload, followed by the records
(same jsonl idiom as :mod:`repro.storage.log`).  The payload hash doubles
as the segment's *fingerprint*: checkpoints reference live segments by
``(name, sha256)`` and recovery refuses to load anything that does not
match — a corrupted segment is never read back as data.

Every disk path is hardened:

* writes go through :func:`retry_io` — bounded retry-with-backoff on
  *transient* ``OSError`` (EIO, EAGAIN, ...); ENOSPC is not transient and
  surfaces immediately so callers can enter degraded mode;
* segment load truncates a torn trailing record (crash mid-write), then
  validates the header count and payload hash — a torn or unsealed
  segment is *refused*, not half-read.  Nothing is parsed to verify: the
  hash runs over the file's bytes in place, and the loaded segment is a
  :class:`SegmentRecords` that decodes a record only when it is read;
* :meth:`SegmentStore.quarantine_orphans` renames segment files that no
  manifest or checkpoint references (the debris of a crash mid-spill) so
  they can never shadow live data;
* the directory is fsynced after each segment creation and the manifest
  is replaced via :func:`~repro.storage.persist.atomic_write_text`.

Fault injection: the store honours the ``mid-segment-write`` /
``torn-segment`` crash points and the ``disk-full`` / ``fsync-fail``
I/O fault points of :mod:`repro.recovery.faultinject`.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import time
from array import array
from collections.abc import Sequence
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import RecoveryError, StorageError
from repro.obs.metrics import as_registry
from repro.storage.persist import atomic_write_text, fsync_dir

PathLike = Union[str, Path]

SEGMENT_FORMAT = 1
HEADER_KIND = "segment-header"
MANIFEST_NAME = "MANIFEST.json"

#: Errnos worth retrying: the disk may answer on the next attempt.
#: ENOSPC is deliberately absent — a full disk does not heal by waiting,
#: it degrades the engine.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.EBUSY, errno.ETIMEDOUT}
)


def retry_io(
    fn: Callable,
    retries: int = 3,
    backoff: float = 0.002,
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[OSError, int], None]] = None,
):
    """Run ``fn`` with bounded retry-with-backoff on transient ``OSError``.

    Each retry doubles the backoff.  Non-transient errnos (ENOSPC above
    all) and exhaustion propagate the original ``OSError`` to the caller,
    whose job is then to degrade, not to loop."""
    attempt = 0
    while True:
        try:
            return fn()
        except OSError as exc:
            transient = exc.errno in TRANSIENT_ERRNOS
            if not transient or attempt >= retries:
                raise
            if on_retry is not None:
                on_retry(exc, attempt)
            sleep(backoff * (2 ** attempt))
            attempt += 1


class SegmentRecords(Sequence):
    """The records of one loaded segment, decoded when read.

    Holds the segment file's verified bytes and the offset at which each
    record's line starts; reading record ``k`` parses that line alone
    (a fresh object per read).  A reader that bisects or replays a prefix
    pays for the records it touches, not for the segment."""

    __slots__ = ("_data", "_starts")

    def __init__(self, data: bytes, starts: array):
        self._data = data
        #: ``len(self) + 1`` offsets: record ``k`` is the line
        #: ``data[starts[k]:starts[k + 1]]``.
        self._starts = starts

    @property
    def nbytes(self) -> int:
        """Bytes of segment file held (header included)."""
        return len(self._data)

    def __len__(self) -> int:
        return len(self._starts) - 1

    def __getitem__(self, index: int):
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(index)
        starts = self._starts
        return json.loads(self._data[starts[index] : starts[index + 1]])


class SegmentStore:
    """A directory of sealed, checksummed jsonl segments."""

    def __init__(
        self,
        directory: PathLike,
        fsync: bool = True,
        injector=None,
        metrics=None,
        retries: int = 3,
        backoff: float = 0.002,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.injector = injector
        self.retries = retries
        self.backoff = backoff
        self._sleep = sleep
        self.metrics = as_registry(metrics)
        self._m_faults = self.metrics.counter("segment_faults_total")
        self._m_retries = self.metrics.counter("io_retries_total")
        self._m_segments = self.metrics.gauge("segments_total")
        self._m_write_s = self.metrics.histogram("segment_write_seconds")
        self._m_load_s = self.metrics.histogram("segment_load_seconds")
        self._next_id = self._scan_next_id()
        #: The manifest as last written by this store (read once from the
        #: file): a segment write extends it and replaces the file
        #: atomically, without re-reading what it wrote itself.
        self._manifest: Optional[dict] = None

    # -- naming ------------------------------------------------------------

    def _scan_next_id(self) -> int:
        highest = 0
        for path in self.directory.glob("seg-*.jsonl*"):
            stem = path.name.split(".", 1)[0]
            try:
                highest = max(highest, int(stem.rsplit("-", 1)[-1]))
            except ValueError:
                continue
        return highest + 1

    def segment_path(self, name: str) -> Path:
        return self.directory / name

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # -- writing -----------------------------------------------------------

    def _retry(self, fn):
        def note(exc: OSError, attempt: int) -> None:
            self._m_retries.inc()

        return retry_io(
            fn,
            retries=self.retries,
            backoff=self.backoff,
            sleep=self._sleep,
            on_retry=note,
        )

    def write_segment(
        self, tier: str, records: Iterable, meta: Optional[dict] = None
    ) -> dict:
        """Seal ``records`` into a new segment; returns its descriptor
        ``{name, tier, count, sha256, bytes, meta}``.

        ``records`` may be any iterable (a generator is consumed once):
        each record is encoded once, to one ASCII line, as it arrives.
        The write is a single pass — header, payload, fsync, directory
        fsync — retried as a whole on transient errors (reopening with
        ``"wb"`` makes a retry idempotent).  A crash mid-write leaves a
        file that load/quarantine will refuse; the caller must not drop
        its in-memory copy until this method returns."""
        from repro.recovery.faultinject import (
            DISK_FULL,
            FSYNC_FAIL,
            MID_SEGMENT_WRITE,
            TORN_SEGMENT,
        )

        name = f"seg-{tier}-{self._next_id:06d}.jsonl"
        self._next_id += 1
        sha = hashlib.sha256()
        lines = []
        for record in records:
            line = (json.dumps(record, sort_keys=True) + "\n").encode("ascii")
            sha.update(line)
            lines.append(line)
        digest = sha.hexdigest()
        payload_bytes = sum(map(len, lines))
        header = (
            json.dumps(
                {
                    "kind": HEADER_KIND,
                    "format": SEGMENT_FORMAT,
                    "tier": tier,
                    "count": len(lines),
                    "sha256": digest,
                    "meta": meta or {},
                },
                sort_keys=True,
            )
            + "\n"
        ).encode("ascii")
        path = self.segment_path(name)
        injector = self.injector

        def write_file() -> None:
            with open(path, "wb") as fp:
                if injector is not None:
                    injector.io_check(DISK_FULL)
                fp.write(header)
                if injector is not None and injector.due(MID_SEGMENT_WRITE):
                    # Half the payload reaches the disk, then the machine
                    # dies with the segment unsealed.
                    fp.write(b"".join(lines)[: payload_bytes // 2])
                    fp.flush()
                    os.fsync(fp.fileno())
                    injector.hit(MID_SEGMENT_WRITE)
                if injector is not None and injector.due(TORN_SEGMENT) and lines:
                    # All but half of the final record reaches the disk.
                    torn = payload_bytes - max(1, len(lines[-1]) // 2)
                    fp.write(b"".join(lines)[:torn])
                    fp.flush()
                    os.fsync(fp.fileno())
                    injector.hit(TORN_SEGMENT)
                fp.writelines(lines)
                fp.flush()
                if self.fsync:
                    if injector is not None:
                        injector.io_check(FSYNC_FAIL)
                    os.fsync(fp.fileno())

        started = time.perf_counter()
        try:
            self._retry(write_file)
        except OSError:
            self._m_faults.inc()
            # Never leave a half-written file where a live segment name
            # points; the in-memory copy is still authoritative.
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        if self.fsync:
            fsync_dir(self.directory)
        info = {
            "name": name,
            "tier": tier,
            "count": len(lines),
            "sha256": digest,
            "bytes": len(header) + payload_bytes,
            "meta": meta or {},
        }
        self._update_manifest(info)
        self._m_write_s.observe(time.perf_counter() - started)
        self._m_segments.inc()
        return info

    def _update_manifest(self, info: dict) -> None:
        manifest = self._manifest or self.read_manifest()
        manifest = {**manifest, "segments": manifest["segments"] + [info]}
        atomic_write_text(
            self.manifest_path,
            json.dumps(manifest, sort_keys=True),
            fsync=self.fsync,
        )
        # Only now: memory must not run ahead of the file it mirrors.
        self._manifest = manifest

    def read_manifest(self) -> dict:
        if not self.manifest_path.exists():
            return {"format": SEGMENT_FORMAT, "segments": []}
        try:
            return json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StorageError(
                f"unreadable segment manifest {str(self.manifest_path)!r}: "
                f"{exc}"
            ) from exc

    # -- loading -----------------------------------------------------------

    def load_segment(self, ref: Union[str, dict]) -> SegmentRecords:
        """Load and verify one sealed segment; returns its records, each
        decoded when read.

        ``ref`` is a descriptor (fingerprint verified) or a bare name
        (header self-check only).  A torn trailing record is truncated,
        after which any header/count/hash mismatch means the segment
        never sealed (or rotted) and it is refused with
        :class:`~repro.errors.RecoveryError` — no partial reads.  A
        corrupt record is refused by the payload hash, so no record is
        parsed to verify the segment."""
        name = ref if isinstance(ref, str) else ref["name"]
        expected_sha = None if isinstance(ref, str) else ref["sha256"]
        path = self.segment_path(name)
        started = time.perf_counter()
        if not path.exists():
            self._m_faults.inc()
            raise RecoveryError(f"missing history segment {name!r}")
        data = path.read_bytes()
        # Torn tail: bytes after the final newline are a record the crash
        # cut short.  Truncate them; the checks below then refuse the
        # unsealed segment.
        end = data.rfind(b"\n") + 1
        if not end:
            self._m_faults.inc()
            raise RecoveryError(f"segment {name!r} is empty or torn")
        body = data.index(b"\n") + 1
        try:
            header = json.loads(data[:body])
        except ValueError:
            header = None
        if not isinstance(header, dict) or header.get("kind") != HEADER_KIND:
            self._m_faults.inc()
            raise RecoveryError(f"segment {name!r} has no header")
        starts = array("q")
        at = body
        while at < end:
            starts.append(at)
            at = data.index(b"\n", at) + 1
        starts.append(end)
        records = SegmentRecords(data, starts)
        digest = hashlib.sha256(memoryview(data)[body:end]).hexdigest()
        if len(records) != header["count"] or digest != header["sha256"]:
            self._m_faults.inc()
            raise RecoveryError(
                f"segment {name!r} failed verification: "
                f"{len(records)}/{header['count']} records, "
                f"payload hash {'mismatch' if digest != header['sha256'] else 'ok'}"
                " — refusing to load a torn or corrupted segment"
            )
        if expected_sha is not None and digest != expected_sha:
            self._m_faults.inc()
            raise RecoveryError(
                f"segment {name!r} does not match its checkpointed "
                f"fingerprint — refusing to load"
            )
        self._m_load_s.observe(time.perf_counter() - started)
        return records

    def verify(self, ref: dict) -> None:
        """Full fingerprint verification of one referenced segment."""
        self.load_segment(ref)

    def quarantine_orphans(self, live_names) -> list[str]:
        """Rename segment files not in ``live_names`` to ``*.orphan`` so
        crash debris (an unsealed spill) can never be confused with live
        data.  Returns the quarantined names."""
        live = set(live_names)
        quarantined = []
        for path in sorted(self.directory.glob("seg-*.jsonl")):
            if path.name not in live:
                os.replace(path, path.with_suffix(path.suffix + ".orphan"))
                quarantined.append(path.name)
                self._m_faults.inc()
        if quarantined and self.fsync:
            fsync_dir(self.directory)
        return quarantined

    def probe(self) -> None:
        """Verify the directory is writable again (degraded-mode exit):
        write, fsync, and remove a probe file.  Raises ``OSError`` while
        the disk is still unhealthy."""
        from repro.recovery.faultinject import DISK_FULL, FSYNC_FAIL

        path = self.directory / ".probe"
        with open(path, "w") as fp:
            if self.injector is not None:
                self.injector.io_check(DISK_FULL)
            fp.write("ok")
            fp.flush()
            if self.injector is not None:
                self.injector.io_check(FSYNC_FAIL)
            os.fsync(fp.fileno())
        os.unlink(path)
