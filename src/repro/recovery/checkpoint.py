"""Checkpoints: one JSON document holding engine + evaluator state.

A checkpoint bounds recovery work — the WAL tail older than the
checkpoint is never re-evaluated.  It captures the engine (clock, state
count, catalog, current state, named queries) and, optionally, the whole
temporal component via :meth:`repro.rules.manager.RuleManager.to_state`
(evaluator states, executed store, firings, pending detached actions,
quarantine bookkeeping).

The write is atomic (:func:`repro.storage.persist.atomic_write_text`): a
crash mid-checkpoint leaves the previous checkpoint intact, which the
fault-injection matrix exercises via the ``mid-checkpoint`` crash point.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from repro.errors import RecoveryError
from repro.recovery.faultinject import MID_CHECKPOINT
from repro.storage.persist import atomic_write_text, encode_catalog

PathLike = Union[str, Path]

#: The one version number of ``checkpoint.json``.  Every section inside
#: the document (manager, plans, evaluators, tiers) is versioned by it
#: and carries none of its own; bump it whenever any section's shape
#: changes.  :func:`read_checkpoint`
#: refuses every other value — there is no reader for an older document.
FORMAT_VERSION = 4


def write_checkpoint(
    path: PathLike, engine, manager=None, injector=None
) -> dict:
    """Atomically write a checkpoint of ``engine`` (and ``manager``) to
    ``path``; returns the payload that was written."""
    last = engine.last_state
    payload = {
        "format": FORMAT_VERSION,
        "clock": engine.now,
        "state_count": engine.state_count,
        "last": None if last is None else [last.timestamp, last.index],
        **encode_catalog(engine.db),
        "manager": None if manager is None else manager.to_state(),
    }
    tiered = getattr(engine, "tiered", None)
    if tiered is not None:
        # Seal the tiered history's in-memory tail into segments and
        # reference every live segment by (name, sha256) fingerprint:
        # recovery restores the spilled run bit-identically or refuses.
        payload["tiers"] = tiered.archive()
    text = json.dumps(payload, sort_keys=True)
    before_replace = None
    if injector is not None:
        def before_replace(tmp: str) -> None:
            injector.hit(MID_CHECKPOINT)
    atomic_write_text(path, text, before_replace=before_replace)
    registry = getattr(engine, "metrics", None)
    if registry is not None and registry.enabled:
        registry.counter("recovery_checkpoints_total").inc()
        registry.gauge("recovery_checkpoint_bytes").set(len(text))
    return payload


def read_checkpoint(path: PathLike) -> Optional[dict]:
    """Load a checkpoint; ``None`` if ``path`` does not exist.  A
    document of any other format version is refused here, whole, before
    any section of it reaches an engine or a manager."""
    target = Path(path)
    if not target.exists():
        return None
    try:
        payload = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise RecoveryError(
            f"unreadable checkpoint {str(path)!r}: {exc}"
        ) from exc
    if payload.get("format") != FORMAT_VERSION:
        raise RecoveryError(
            f"unsupported checkpoint format {payload.get('format')!r} in "
            f"{str(path)!r} (this build reads format {FORMAT_VERSION})"
        )
    return payload
