"""Newline-delimited JSON session protocol for the serving layer.

One frame per line, UTF-8 JSON, terminated by ``\\n``.  Client frames are
*requests* — objects with an ``"op"`` key and an optional client-chosen
``"id"`` echoed verbatim in the reply.  Server frames are either
*replies* (``{"ok": true/false, ...}``) or *notifications*
(``{"ev": "firing" | "ic_veto", "tenant": ..., ...}``) pushed for every
tenant the session has opened.  Requests may be pipelined: transaction
replies arrive when their group commit turns durable, so a session can
keep streaming while a batch drains.

Requests
--------
``hello``                  server identity, protocol version, frame limit
``ping``                   liveness probe
``open``    tenant        open (lazily recover) a tenant; start notifications
``txn``     tenant stmts  apply one transaction; reply after group commit
``query``   tenant text   evaluate query text against the committed state
``stats``   [tenant]      server (and optionally tenant) statistics
``close``   tenant        detach this session from a tenant
``evict``   tenant        checkpoint-then-close the tenant now (admin)

Transaction statements (``stmts`` — a JSON list, applied atomically)::

    ["set", item, value]            txn.set_item
    ["insert", relation, [v, ...]]  txn.insert
    ["delete", relation, {attr: value, ...}]   equality match
    ["update", relation, {attr: value, ...}, {attr: value, ...}]
    ["event", name, params...]      txn.post_event (user event)

Typed errors: every refused frame gets ``{"ok": false, "error":
{"type": <constant below>, "message": ...}}`` plus structured detail
keys (queue depths for backpressure, limits for oversized frames).  A
refused frame never corrupts tenant state: admission rejects before the
engine sees the transaction, and malformed frames are dropped at the
framing layer.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Iterable, Optional

from repro.errors import ProtocolError
from repro.events.model import Event

#: Wire protocol version, bumped on incompatible frame changes.
PROTOCOL_VERSION = 1

#: Default cap on one frame's encoded size (requests and replies).
DEFAULT_MAX_FRAME = 256 * 1024

# -- typed error identifiers -------------------------------------------------

#: The frame was not valid JSON (or not a JSON object).
ERR_MALFORMED = "malformed_frame"
#: The frame exceeded the negotiated size limit; the connection closes
#: (NDJSON cannot resynchronise inside an unbounded line).
ERR_OVERSIZED = "oversized_frame"
#: Structurally valid JSON but not a valid request (missing/bad fields).
ERR_INVALID = "invalid_request"
#: The ``op`` value names no known operation.
ERR_UNKNOWN_OP = "unknown_op"
#: The tenant id failed validation (unsafe or empty path component).
ERR_INVALID_TENANT = "invalid_tenant"
#: The session used a tenant it never opened.
ERR_TENANT_NOT_OPEN = "tenant_not_open"
#: The session opened a tenant it already holds open.
ERR_TENANT_ALREADY_OPEN = "tenant_already_open"
#: Admission control refused the transaction (per-tenant queue bound).
ERR_BACKPRESSURE = "backpressure"
#: The tenant has undrained transactions (eviction refused).
ERR_TENANT_BUSY = "tenant_busy"
#: Query parse/evaluation failure.
ERR_QUERY = "query_error"
#: The tenant engine is in degraded read-only mode.
ERR_DEGRADED = "storage_degraded"
#: Unexpected server-side failure (the frame was not applied).
ERR_INTERNAL = "internal"

#: Operations a session may request.
OPS = frozenset(
    {"hello", "ping", "open", "txn", "query", "stats", "close", "evict"}
)

#: Statement kinds accepted inside a ``txn`` frame.
STATEMENT_KINDS = frozenset({"set", "insert", "delete", "update", "event"})


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: dict) -> bytes:
    """Encode one frame: compact JSON + newline."""
    return (
        json.dumps(payload, separators=(",", ":"), sort_keys=True, default=str)
        + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes, max_frame: int = DEFAULT_MAX_FRAME) -> dict:
    """Decode one request line into a frame dict.

    Raises :class:`~repro.errors.ProtocolError` with a typed error
    identifier: ``oversized_frame`` past ``max_frame`` bytes,
    ``malformed_frame`` for bad JSON or a non-object, and
    ``invalid_request`` / ``unknown_op`` for a missing or unknown op.
    """
    if len(line) > max_frame:
        raise ProtocolError(
            ERR_OVERSIZED,
            f"frame of {len(line)} bytes exceeds the {max_frame}-byte limit",
            frame_bytes=len(line),
            max_frame=max_frame,
        )
    try:
        frame = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(
            ERR_MALFORMED, f"frame is not valid JSON: {exc}"
        ) from exc
    if not isinstance(frame, dict):
        raise ProtocolError(
            ERR_MALFORMED,
            f"frame must be a JSON object, got {type(frame).__name__}",
        )
    op = frame.get("op")
    if not isinstance(op, str):
        raise ProtocolError(ERR_INVALID, 'frame is missing a string "op"')
    if op not in OPS:
        raise ProtocolError(
            ERR_UNKNOWN_OP, f"unknown op {op!r}", op=op
        )
    return frame


# ---------------------------------------------------------------------------
# Replies and notifications
# ---------------------------------------------------------------------------


def ok_reply(frame_id: Any = None, **fields) -> dict:
    reply = {"ok": True, **fields}
    if frame_id is not None:
        reply["id"] = frame_id
    return reply


def error_reply(
    error: ProtocolError, frame_id: Any = None
) -> dict:
    reply = {
        "ok": False,
        "error": {
            "type": error.type,
            "message": str(error),
            **error.detail,
        },
    }
    if frame_id is not None:
        reply["id"] = frame_id
    return reply


def firing_notification(tenant_id: str, record) -> dict:
    """Encode a :class:`~repro.rules.rule.FiringRecord` as a push frame."""
    return {
        "ev": "firing",
        "tenant": tenant_id,
        "rule": record.rule,
        "bindings": [[k, v] for k, v in record.bindings],
        "state_index": record.state_index,
        "timestamp": record.timestamp,
        "shadow": record.shadow,
    }


def veto_notification(
    tenant_id: str, rule: str, txn_id: int, state_index: int, timestamp: int
) -> dict:
    """Encode one integrity-constraint veto of transaction ``txn_id`` (an
    entry of its ``vetoes``) as a push frame."""
    return {
        "ev": "ic_veto",
        "tenant": tenant_id,
        "rule": rule,
        "txn": txn_id,
        "state_index": state_index,
        "timestamp": timestamp,
    }


# ---------------------------------------------------------------------------
# Transaction statements
# ---------------------------------------------------------------------------


def _match_predicate(match: dict) -> Callable:
    items = tuple(match.items())

    def predicate(row) -> bool:
        return all(row[attr] == value for attr, value in items)

    return predicate


def _check_mapping(value, what: str) -> dict:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) for k in value
    ):
        raise ProtocolError(
            ERR_INVALID, f"{what} must be an object with string keys"
        )
    return value


def compile_statements(stmts) -> Callable:
    """Validate ``stmts`` and compile them into a transaction body.

    Returns ``work(txn)`` applying every statement in order; raises a
    typed ``invalid_request`` :class:`~repro.errors.ProtocolError` for
    anything structurally wrong, *before* the engine is touched.
    """
    if not isinstance(stmts, list) or not stmts:
        raise ProtocolError(
            ERR_INVALID, '"stmts" must be a non-empty JSON list'
        )
    compiled: list[Callable] = []
    for i, stmt in enumerate(stmts):
        if not isinstance(stmt, list) or not stmt or not isinstance(
            stmt[0], str
        ):
            raise ProtocolError(
                ERR_INVALID,
                f"statement {i} must be a list starting with a kind string",
            )
        kind = stmt[0]
        if kind not in STATEMENT_KINDS:
            raise ProtocolError(
                ERR_INVALID,
                f"statement {i}: unknown kind {kind!r}",
                kind=kind,
            )
        if kind == "set":
            if len(stmt) != 3 or not isinstance(stmt[1], str):
                raise ProtocolError(
                    ERR_INVALID, f"statement {i}: want [set, item, value]"
                )
            name, value = stmt[1], stmt[2]
            compiled.append(lambda txn, n=name, v=value: txn.set_item(n, v))
        elif kind == "insert":
            if (
                len(stmt) != 3
                or not isinstance(stmt[1], str)
                or not isinstance(stmt[2], list)
            ):
                raise ProtocolError(
                    ERR_INVALID,
                    f"statement {i}: want [insert, relation, [values...]]",
                )
            rel, values = stmt[1], tuple(stmt[2])
            compiled.append(lambda txn, r=rel, v=values: txn.insert(r, v))
        elif kind == "delete":
            if len(stmt) != 3 or not isinstance(stmt[1], str):
                raise ProtocolError(
                    ERR_INVALID,
                    f"statement {i}: want [delete, relation, {{match}}]",
                )
            rel = stmt[1]
            match = _check_mapping(stmt[2], f"statement {i} match")
            pred = _match_predicate(match)
            compiled.append(lambda txn, r=rel, p=pred: txn.delete(r, p))
        elif kind == "update":
            if len(stmt) != 4 or not isinstance(stmt[1], str):
                raise ProtocolError(
                    ERR_INVALID,
                    f"statement {i}: want [update, relation, {{match}}, "
                    f"{{changes}}]",
                )
            rel = stmt[1]
            match = _check_mapping(stmt[2], f"statement {i} match")
            changes = _check_mapping(stmt[3], f"statement {i} changes")
            pred = _match_predicate(match)
            compiled.append(
                lambda txn, r=rel, p=pred, c=changes: txn.update(
                    r, p, lambda _row, cc=c: cc
                )
            )
        else:  # event
            if len(stmt) < 2 or not isinstance(stmt[1], str):
                raise ProtocolError(
                    ERR_INVALID,
                    f"statement {i}: want [event, name, params...]",
                )
            event = Event(stmt[1], tuple(stmt[2:]))
            compiled.append(lambda txn, e=event: txn.post_event(e))

    def work(txn) -> None:
        for apply_stmt in compiled:
            apply_stmt(txn)

    return work
