"""Structured trace events: what fired, when, and why.

Reaction RuleML and ECA-LP treat introspection of rule execution as a
first-class concern of an active-rule system; this sink records ordered,
structured events (rule firings, action executions, integrity-constraint
vetoes, monitor resolutions) that the rule manager emits.  A firing event
carries enough identity (rule name, state index, bindings) to reconstruct
the *why* with :func:`repro.ptl.explain.explain` — see
:meth:`repro.rules.manager.RuleManager.explain_firing`.

Memory is bounded: the sink keeps the most recent ``limit`` events (the
sequence number keeps counting, so gaps are detectable).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Optional

#: Default retained-event cap.
DEFAULT_TRACE_LIMIT = 10_000

#: Event kinds the rule manager emits.
FIRING = "firing"
ACTION = "action"
ACTION_FAILURE = "action_failure"
IC_VIOLATION = "ic_violation"
MONITOR = "monitor"
#: A shadow rule's condition fired (action suppressed).
SHADOW_FIRING = "shadow_firing"
#: A rule-base change on a live manager (add/remove/replace/promote).
LIFECYCLE = "lifecycle"


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation.

    ``seq`` is a global, strictly increasing sequence number; ``timestamp``
    is the system-state timestamp the event refers to (not wall clock).
    """

    seq: int
    kind: str
    timestamp: Optional[int]
    data: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "data": dict(self.data),
        }


class TraceSink:
    """Ordered, bounded buffer of :class:`TraceEvent`."""

    enabled = True

    def __init__(self, limit: Optional[int] = DEFAULT_TRACE_LIMIT):
        self._events: deque[TraceEvent] = deque(maxlen=limit)
        self._seq = 0

    def emit(self, kind: str, timestamp: Optional[int] = None,
             **data) -> TraceEvent:
        event = TraceEvent(self._seq, kind, timestamp, data)
        self._seq += 1
        self._events.append(event)
        return event

    # -- reading --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(tuple(self._events))

    @property
    def emitted(self) -> int:
        """Total events ever emitted (>= len() once the buffer wraps)."""
        return self._seq

    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e.kind == kind]

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self._events]

    def clear(self) -> None:
        self._events.clear()


class NullTraceSink:
    """No-op sink (the disabled path): emits nothing, stores nothing."""

    enabled = False

    def emit(self, kind: str, timestamp: Optional[int] = None,
             **data) -> None:
        return None

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    emitted = 0

    def events(self, kind: Optional[str] = None) -> list:
        return []

    def to_dicts(self) -> list:
        return []

    def clear(self) -> None:
        pass


NULL_TRACE = NullTraceSink()


def as_trace(spec):
    """``None``/``False`` -> no-op sink; ``True`` -> fresh bounded sink; a
    sink passes through unchanged."""
    if spec is None or spec is False:
        return NULL_TRACE
    if spec is True:
        return TraceSink()
    if isinstance(spec, (TraceSink, NullTraceSink)):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as a trace sink")
