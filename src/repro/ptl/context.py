"""Shared evaluation context for the PTL evaluators.

Both the reference (offline) semantics and the incremental algorithm need:

* the rule-execution store backing the ``executed`` predicate (Section 7) —
  "the temporal component needs to maintain an additional auxiliary
  relation ... about the execution of each rule";
* *domains* for free variables: the paper grounds free variables by
  indexing state "with different values for the free variables" (Section
  6.1.1); a domain declares where those values come from (a fixed list or
  a query evaluated against the current state, e.g. all stock names).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.datamodel.relation import Relation
from repro.query.ast import Query
from repro.query.evaluator import StateView, eval_query


@dataclass(frozen=True, slots=True)
class ExecutionRecord:
    """One rule execution: rule name, parameter tuple, commit time.

    ``status`` is ``"ok"`` for a successful action, ``"failed"`` when the
    action raised and was isolated (see action failure isolation in
    :mod:`repro.rules.manager`).  Failed executions still satisfy the
    ``executed`` predicate — the rule *fired*; only its side effect was
    lost — so condition evaluation is independent of action health."""

    rule: str
    params: tuple
    time: int
    status: str = "ok"


class ExecutedStore:
    """Append-only store of rule executions.

    The paper: "only information necessary for future evaluation of
    conditions will be maintained" — :meth:`discard_before` implements that
    garbage collection (driven by the rule manager's retention analysis).
    """

    def __init__(self) -> None:
        self._records: list[ExecutionRecord] = []
        #: Spill tier (see :mod:`repro.history.spill`): cold records move
        #: to checksummed segments and fault back on read.  ``None`` until
        #: :meth:`enable_spill` — the store is pure-RAM by default.
        self._spill: Optional[dict] = None
        self._spilled_count = 0
        #: Watermark from :meth:`discard_before`: faulted records older
        #: than this are filtered out, so spilling never resurrects
        #: records the retention analysis already discarded.
        self._discard_horizon: Optional[int] = None

    # -- spill tier ----------------------------------------------------------

    def enable_spill(self, store, pinned=()) -> None:
        """Let cold records spill to ``store`` (a
        :class:`~repro.storage.tiers.SegmentStore`).  ``pinned`` rules are
        never spilled — their records back live ``executed`` atoms and are
        consulted every step."""
        self._spill = {
            "store": store,
            "catalog": [],
            "pinned": frozenset(pinned),
            "cache": None,  # (segment name, decoded records)
        }

    def set_pinned(self, pinned) -> None:
        if self._spill is not None:
            self._spill["pinned"] = frozenset(pinned)

    def spill_cold(self, horizon: int) -> int:
        """Seal records with ``time < horizon`` (excluding pinned rules)
        into a segment and drop them from memory; returns how many moved.
        Atomic — nothing leaves memory until the segment is sealed."""
        if self._spill is None:
            return 0
        pinned = self._spill["pinned"]
        cold = [
            r
            for r in self._records
            if r.time < horizon and r.rule not in pinned
        ]
        if not cold:
            return 0
        from repro.ptl.constraints import encode_value

        rows = [
            [r.rule, encode_value(r.params), r.time, r.status]
            for r in cold
        ]
        info = self._spill["store"].write_segment(
            "executed",
            rows,
            meta={"first_time": cold[0].time, "last_time": cold[-1].time},
        )
        self._spill["catalog"].append(info)
        cold_ids = {id(r) for r in cold}
        self._records = [
            r for r in self._records if id(r) not in cold_ids
        ]
        self._spilled_count += len(cold)
        return len(cold)

    def _spilled_records(self, rule, before) -> list["ExecutionRecord"]:
        """Fault spilled records matching the filters back from segments
        (one-segment cache; deep-past reads only — pinned rules never
        land here)."""
        if self._spill is None or not self._spilled_count:
            return []
        from repro.ptl.constraints import decode_value

        out = []
        for info in self._spill["catalog"]:
            cache = self._spill["cache"]
            if cache is not None and cache[0] == info["name"]:
                decoded = cache[1]
            else:
                decoded = [
                    ExecutionRecord(r, decode_value(p), t, s)
                    for r, p, t, s in self._spill["store"].load_segment(info)
                ]
                self._spill["cache"] = (info["name"], decoded)
            for rec in decoded:
                if rule is not None and rec.rule != rule:
                    continue
                if before is not None and rec.time >= before:
                    continue
                if (
                    self._discard_horizon is not None
                    and rec.time < self._discard_horizon
                ):
                    continue
                out.append(rec)
        return out

    def tier_state(self) -> Optional[dict]:
        """Checkpoint descriptor for the spill tier (segment names +
        fingerprints); ``None`` when nothing has spilled."""
        if self._spill is None or not self._spill["catalog"]:
            return None
        return {
            "segments": [dict(info) for info in self._spill["catalog"]],
            "spilled": self._spilled_count,
            "discard_horizon": self._discard_horizon,
            "pinned": sorted(self._spill["pinned"]),
        }

    def restore_tier(self, tier_state: dict) -> None:
        """Re-link checkpointed spill segments after :meth:`from_state`
        (requires :meth:`enable_spill` first)."""
        if self._spill is None:
            raise ValueError("restore_tier() before enable_spill()")
        self._spill["catalog"] = [
            dict(info) for info in tier_state["segments"]
        ]
        self._spill["pinned"] = frozenset(tier_state.get("pinned", ()))
        self._spilled_count = tier_state["spilled"]
        self._discard_horizon = tier_state.get("discard_horizon")

    def record(
        self, rule: str, params: tuple, time: int, status: str = "ok"
    ) -> ExecutionRecord:
        rec = ExecutionRecord(rule, tuple(params), time, status)
        self._records.append(rec)
        return rec

    def mark_failed(self, rec: ExecutionRecord) -> ExecutionRecord:
        """Replace ``rec`` with a ``status="failed"`` copy in place."""
        failed = ExecutionRecord(rec.rule, rec.params, rec.time, "failed")
        for i in range(len(self._records) - 1, -1, -1):
            if self._records[i] is rec:
                self._records[i] = failed
                break
        return failed

    def records(
        self, rule: Optional[str] = None, before: Optional[int] = None
    ) -> list[ExecutionRecord]:
        out = self._records
        if rule is not None:
            out = [r for r in out if r.rule == rule]
        if before is not None:
            out = [r for r in out if r.time < before]
        if self._spilled_count and (
            rule is None or rule not in self._spill["pinned"]
        ):
            return self._spilled_records(rule, before) + list(out)
        return list(out)

    def discard_before(self, time: int) -> int:
        """Drop records older than ``time``; returns how many were dropped.
        Spilled segments stay on disk (they are archival) but faulted
        reads respect the watermark, so discarded records never
        reappear."""
        before = len(self._records)
        self._records = [r for r in self._records if r.time >= time]
        if self._spill is not None:
            self._discard_horizon = (
                time
                if self._discard_horizon is None
                else max(self._discard_horizon, time)
            )
        return before - len(self._records)

    def __len__(self) -> int:
        return len(self._records) + self._spilled_count

    # -- serialization (recovery checkpoints) --------------------------------

    def to_state(self) -> list:
        from repro.ptl.constraints import encode_value

        return [
            [r.rule, encode_value(r.params), r.time, r.status]
            for r in self._records
        ]

    def from_state(self, state: list) -> None:
        from repro.ptl.constraints import decode_value

        self._records = [
            ExecutionRecord(rule, decode_value(params), time, status)
            for rule, params, time, status in state
        ]


#: A domain is a fixed collection of values or a query evaluated at the
#: current state (rows of a 1-column result become scalars).
DomainSpec = Union[Sequence, Query]


def domain_values(spec: DomainSpec, state: StateView) -> list:
    if isinstance(spec, Query):
        result = eval_query(spec, state)
        if isinstance(result, Relation):
            values = []
            for row in result.sorted_rows():
                values.append(row[0] if len(row) == 1 else row.values)
            return values
        return [result]
    return list(spec)


@dataclass
class EvalContext:
    """Everything an evaluator needs beyond the history itself."""

    executed: ExecutedStore = field(default_factory=ExecutedStore)
    domains: Mapping[str, DomainSpec] = field(default_factory=dict)

    def domain_for(self, var: str, state: StateView) -> Optional[list]:
        if var not in self.domains:
            return None
        return domain_values(self.domains[var], state)
