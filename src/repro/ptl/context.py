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
    conditions will be maintained".  The rule manager applies that twice:
    it records executions only of rules some live condition reads (and
    :meth:`keep_only` drops a rule's records when its last reader goes),
    and :meth:`discard_before` drops records past the retention horizon.
    """

    def __init__(self) -> None:
        self._records: list[ExecutionRecord] = []

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
        return list(out)

    def discard_before(self, time: int) -> int:
        """Drop records older than ``time``; returns how many were dropped."""
        before = len(self._records)
        self._records = [r for r in self._records if r.time >= time]
        return before - len(self._records)

    def keep_only(self, rules) -> None:
        """Drop the records of every rule not in ``rules``."""
        self._records = [r for r in self._records if r.rule in rules]

    def __len__(self) -> int:
        return len(self._records)

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
