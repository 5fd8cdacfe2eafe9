"""Auxiliary relations R_x with ``T_start``/``T_end`` (Section 5).

"Corresponding to x, we use an auxiliary relation R_x with k+2 attributes.
This relation captures the values of the query q at different instances of
time. ... The last two attributes, denoted by T_start and T_end, denote an
interval of time during which the particular tuple in the relation is
valid.  Initially ... T_start = T and T_end = MAX. ... the value of the
query q at any previous time can be retrieved by performing a selection,
followed by a projection."

The incremental evaluator folds query values directly into its state
formulas, but the auxiliary relation is the *implementation technique*
behind the Sybase prototype ([8]) and is what the valid-time machinery
uses for point-in-time retrieval; it is also the data structure whose
growth benchmark E4 measures when the optimization is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.query.ast import Query
from repro.query.evaluator import StateView
from repro.ptl.values import UNDEFINED, eval_query_value

#: The paper's MAX sentinel for open validity intervals.
MAX_TIME = None


@dataclass
class VersionRow:
    """One version of the query value: valid during [t_start, t_end)."""

    value: Any
    t_start: int
    t_end: Optional[int] = MAX_TIME  # None = open (the paper's MAX)

    def covers(self, t: int) -> bool:
        if t < self.t_start:
            return False
        return self.t_end is MAX_TIME or t < self.t_end


class AuxiliaryRelation:
    """Versioned values of one query over time (the paper's R_x)."""

    def __init__(self, name: str, query: Query):
        from repro.ptl.incremental import _atom_gate, gated_query_value

        self.name = name
        self.query = query
        self._rows: list[VersionRow] = []
        self._gate = _atom_gate((query,))
        self._gated = gated_query_value
        #: Spill tier (see :meth:`spill_cold`): closed versions archived
        #: to segments, faulted back by :meth:`value_at`.
        self._spill_store = None
        self._spill_catalog: list[dict] = []
        self._spilled_rows = 0

    # -- maintenance -----------------------------------------------------------

    def observe(self, state: StateView, timestamp: int) -> Any:
        """Evaluate the query at a new state; open a new version row iff
        the value changed ("later, as the value of query q changes ...
        T_start and T_end are appropriately modified")."""
        value = self._gated(self._gate, self.query, state)
        if self._rows and self._rows[-1].value == value:
            return value
        if self._rows:
            self._rows[-1].t_end = timestamp
        self._rows.append(VersionRow(value, timestamp))
        return value

    def prune_before(self, timestamp: int) -> int:
        """Drop versions that ended before ``timestamp`` (the bounded-
        operator optimization applied to the auxiliary relation); returns
        the number of rows dropped."""
        before = len(self._rows)
        self._rows = [
            r
            for r in self._rows
            if r.t_end is MAX_TIME or r.t_end > timestamp
        ]
        return before - len(self._rows)

    def spill_cold(self, horizon: int, store) -> int:
        """Move *closed* versions with ``t_end <= horizon`` to a sealed
        segment of ``store`` (the memory governor's archival tier for
        R_x); :meth:`value_at` faults them back for deep-past reads.
        Returns how many rows moved."""
        cold = [
            r
            for r in self._rows
            if r.t_end is not MAX_TIME and r.t_end <= horizon
        ]
        if not cold:
            return 0
        from repro.ptl.constraints import encode_value

        info = store.write_segment(
            "aux",
            [[encode_value(r.value), r.t_start, r.t_end] for r in cold],
            meta={
                "relation": self.name,
                "first_ts": cold[0].t_start,
                "last_ts": cold[-1].t_end,
            },
        )
        cold_ids = {id(r) for r in cold}
        self._rows = [r for r in self._rows if id(r) not in cold_ids]
        self._spill_catalog.append(info)
        self._spill_store = store
        self._spilled_rows += len(cold)
        return len(cold)

    # -- retrieval -----------------------------------------------------------------

    def value_at(self, t: int) -> Any:
        """The query's value at time ``t`` — the paper's selection +
        projection on R_x.  Spilled versions are consulted transparently
        when ``t`` precedes the in-memory rows."""
        for row in self._rows:
            if row.covers(t):
                return row.value
        if self._spilled_rows:
            from repro.ptl.constraints import decode_value

            for info in self._spill_catalog:
                meta = info.get("meta", {})
                if meta.get("first_ts") is not None and t < meta["first_ts"]:
                    continue
                for value, t_start, t_end in self._spill_store.load_segment(
                    info
                ):
                    if VersionRow(decode_value(value), t_start, t_end).covers(t):
                        return decode_value(value)
        return UNDEFINED

    @property
    def rows(self) -> list[VersionRow]:
        return list(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __repr__(self) -> str:
        return f"AuxiliaryRelation({self.name!r}, {len(self._rows)} versions)"


class AuxiliaryStore:
    """One auxiliary relation per assignment variable of a formula.

    Built from a normalized formula's assignments; ``observe`` is called
    with each appended system state.
    """

    def __init__(self) -> None:
        self._relations: dict[str, AuxiliaryRelation] = {}

    @classmethod
    def for_formula(cls, formula) -> "AuxiliaryStore":
        from repro.ptl import ast as past

        store = cls()
        for var, query in past.assigned_variables(formula).items():
            store.track(var, query)
        return store

    def track(self, name: str, query: Query) -> AuxiliaryRelation:
        rel = AuxiliaryRelation(name, query)
        self._relations[name] = rel
        return rel

    def observe(self, state: StateView, timestamp: int) -> None:
        for rel in self._relations.values():
            rel.observe(state, timestamp)

    def relation(self, name: str) -> AuxiliaryRelation:
        return self._relations[name]

    def names(self) -> list[str]:
        return sorted(self._relations)

    def total_rows(self) -> int:
        return sum(len(r) for r in self._relations.values())

    def row_counts(self) -> dict[str, int]:
        """Per-variable version-row counts — the auxiliary-relation side
        of the bounded-memory accounting that the compiled-backend
        regression tests pin alongside the evaluators' ``stored_size``
        (the recurrence backend must not change what is retained)."""
        return {name: len(rel) for name, rel in sorted(self._relations.items())}

    def prune_before(self, timestamp: int) -> int:
        return sum(r.prune_before(timestamp) for r in self._relations.values())

    def spill_cold(self, horizon: int, store) -> int:
        """Spill every relation's closed cold versions (see
        :meth:`AuxiliaryRelation.spill_cold`)."""
        return sum(
            r.spill_cold(horizon, store) for r in self._relations.values()
        )
