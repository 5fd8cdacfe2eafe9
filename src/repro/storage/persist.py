"""JSON persistence: the durable encodings of the database.

The paper's model keeps "only the current information" in the database
(Section 10 — history is the temporal component's business).  This
module holds the two encodings the durable layer writes it in:

* the *catalog* — every item's full image and every named query
  (:func:`encode_catalog`) — which the checkpoint (the present state) and
  the write-ahead log's base record both carry;
* the one *state-record* codec (:func:`encode_state` /
  :func:`apply_state`) shared by the write-ahead log and the history
  segments.

A state record describes one system state relative to the previous
*logged* state, and it versions data the way Section 5's auxiliary
relations do — by tuple: a changed relation is written as the rows that
left and the rows that came
(``{"kind": "rows", "del": [...], "add": [...]}``), not as its image, so
a version costs what changed.  Everything else (a scalar, an
:class:`~repro.storage.snapshot.IndexedItem`, a new item, a schema
change, a bulk rewrite whose delta would outgrow the image) stays the
full image of :func:`_encode_item`, which is all that logs written before
row deltas contain — the reader has no format branch.

It also holds the disk helpers the write-ahead log and the segment store
share: :func:`fsync_dir`, :func:`atomic_write_text` and :func:`retry_io`.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Optional, Union

from repro.datamodel.relation import Relation, sort_rows
from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.types import ValueType
from repro.errors import DataModelError, StorageError
from repro.events.model import Event
from repro.storage.snapshot import DatabaseState, IndexedItem

PathLike = Union[str, Path]


def fsync_dir(path: PathLike) -> None:
    """fsync a directory so a rename or file creation inside it survives a
    crash — ``os.replace`` makes the swap atomic but only a directory
    fsync makes it durable.  A no-op on platforms/filesystems that refuse
    to open directories."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


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


def atomic_write_text(
    path: PathLike,
    text: str,
    fsync: bool = True,
    before_replace: Optional[Callable[[str], None]] = None,
) -> None:
    """Durably replace ``path`` with ``text``: write a sibling temp file,
    flush (and by default fsync) it, ``os.replace`` over the target, then
    fsync the parent directory so the rename itself survives a crash.
    A crash at any point leaves either the old file or the new one — never
    a truncated mix.  ``before_replace`` is a fault-injection hook called
    with the temp path after the write but before the rename."""
    target = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) if str(target.parent) else ".",
        prefix=target.name + ".",
        suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(text)
            fp.flush()
            if fsync:
                os.fsync(fp.fileno())
        if before_replace is not None:
            before_replace(tmp)
        os.replace(tmp, target)
        if fsync:
            fsync_dir(target.parent if str(target.parent) else ".")
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _encode_value(value: Any):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    raise StorageError(f"cannot serialize value {value!r}")


def _encode_rows(rows) -> list:
    return [list(map(_encode_value, r.values)) for r in rows]


def _encode_item(value: Any):
    if isinstance(value, Relation):
        return {
            "kind": "relation",
            "schema": [[a.name, a.vtype.value] for a in value.schema],
            "rows": _encode_rows(value.sorted_rows()),
        }
    if isinstance(value, IndexedItem):
        return {
            "kind": "indexed",
            "default": _encode_value(value._default),
            "entries": [
                [list(map(_encode_value, k)), _encode_value(value.get(k))]
                for k in value.indices()
            ],
        }
    return {"kind": "scalar", "value": _encode_value(value)}


def _decode_item(payload: dict):
    kind = payload.get("kind")
    if kind == "relation":
        schema = Schema(
            [Attribute(name, ValueType(vtype)) for name, vtype in payload["schema"]]
        )
        return Relation.from_values(schema, [tuple(r) for r in payload["rows"]])
    if kind == "indexed":
        return IndexedItem(
            {tuple(k): v for k, v in payload["entries"]},
            payload["default"],
        )
    if kind == "scalar":
        return payload["value"]
    raise StorageError(f"unknown item kind {kind!r}")


def encode_catalog(db) -> dict:
    """The catalog of ``db`` (a :class:`~repro.storage.database.Database`):
    ``"items"``, every item's full image, and ``"queries"``, every named
    query's parameters and text.  A checkpoint and the WAL's base record
    both embed it; recovery's ``_restore_items`` / ``_restore_queries``
    read it back."""
    state = db.state
    return {
        "items": {
            name: _encode_item(state.raw_item(name))
            for name in state.item_names()
        },
        "queries": {
            name: {
                "params": list(db.queries.get(name).params),
                "text": str(db.queries.get(name).body),
            }
            for name in db.queries.names()
        },
    }


# -- state records: one codec for the WAL and the history segments -----------


def encode_change(prev: Any, value: Any) -> dict:
    """The payload that takes one item from ``prev`` (``None``: the item
    is new) to ``value``.  Two relations over one schema give a row delta,
    rows in :func:`~repro.datamodel.relation.sort_rows` order so the bytes
    are deterministic; the full image is written instead when the delta
    would be the larger of the two (the image holds every row plus a
    schema entry per attribute), and when a row to delete is not equal
    to itself (a NaN) — the reader finds deleted rows by value.  When
    ``prev`` is held as a reverse delta off ``value`` (the hot history,
    see :meth:`Relation.supersede`) that delta is read, not recomputed
    from two materialised tables."""
    if (
        isinstance(prev, Relation)
        and isinstance(value, Relation)
        and prev.schema == value.schema
    ):
        delta = prev.delta_onto(value)
        if delta is None:
            before, after = prev.rows, value.rows
            delta = before - after, after - before
        removed, added = delta
        if len(removed) + len(added) <= len(value) + len(
            value.schema
        ) and all(v == v for row in removed for v in row.values):
            return {
                "kind": "rows",
                "del": _encode_rows(sort_rows(removed)),
                "add": _encode_rows(sort_rows(added)),
            }
    return _encode_item(value)


def apply_change(prev: Any, payload: dict) -> Any:
    """Inverse of :func:`encode_change`.  A row delta shares every
    untouched :class:`~repro.datamodel.tuples.Row` of ``prev`` and builds
    only the rows that came; it is refused with
    :class:`~repro.errors.StorageError` when ``prev`` is not the relation
    it was computed against."""
    if payload.get("kind") != "rows":
        return _decode_item(payload)
    if not isinstance(prev, Relation):
        raise StorageError(
            f"row delta against {type(prev).__name__}, not a relation"
        )
    try:
        return prev.with_row_changes(payload["del"], payload["add"])
    except DataModelError as exc:
        raise StorageError(str(exc)) from exc


def _item_or_none(db: DatabaseState, name: str) -> Any:
    return db.raw_item(name) if db.has_item(name) else None


def encode_state(state, prev_db: Optional[DatabaseState]) -> dict:
    """The record of one system state: timestamp, events, write-set and
    the ``"changes"`` of its database against ``prev_db``, the previous
    *logged* state.  With ``prev_db=None`` the record is self-contained —
    the full image under ``"items"`` (a segment's snapshot head).
    Callers add their own identity keys (``seq``, ``i``, ``g``)."""
    db = state.db
    record = {
        "ts": state.timestamp,
        "events": [
            [e.name, [_encode_value(p) for p in e.params]]
            for e in state.events  # already sorted by str
        ],
        "delta": None if state.delta is None else sorted(state.delta),
    }
    if prev_db is None:
        record["items"] = {
            name: _encode_item(db.raw_item(name)) for name in db.item_names()
        }
    else:
        record["changes"] = {
            name: encode_change(_item_or_none(prev_db, name), db.raw_item(name))
            for name in db.changed_items(prev_db)
        }
    return record


def apply_state(db: Optional[DatabaseState], record: dict) -> DatabaseState:
    """The database state ``record`` describes, given ``db``, the state
    the record before it described (ignored by a self-contained record).
    Unchanged items — and the untouched rows of changed relations — are
    shared with ``db``."""
    if "items" in record:
        return DatabaseState(
            {name: _decode_item(p) for name, p in record["items"].items()}
        )
    return db.with_updates(
        {
            name: apply_change(_item_or_none(db, name), payload)
            for name, payload in record["changes"].items()
        }
    )


def state_events(record: dict) -> tuple[list[Event], Optional[frozenset]]:
    """The events and write-set (``None``: not recorded) of ``record``."""
    delta = record.get("delta")
    return (
        [Event(name, tuple(params)) for name, params in record["events"]],
        None if delta is None else frozenset(delta),
    )
