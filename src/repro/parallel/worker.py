"""The resident shard worker: one shard's rules, plan, and state.

A worker is initialised once with its shard's full context — rule
definitions (conditions as PTL text, re-parsed locally), the query
catalog, the current database items, and the executed-store contents —
and thereafter receives only *delta* step records (the WAL record shape:
seq, ts, events, changed items, write-set).  It keeps the shard's
:class:`~repro.ptl.plan.SharedPlan` and database state resident across
steps, so the per-state payload is proportional to the write-set, not the
database.

Evaluation mirrors the serial :class:`~repro.rules.manager.RuleManager`
exactly (the conformance suite holds both to the same firing sequences):

* the shard plan steps on every dispatched state (shared temporal state
  must see every state it is dispatched — the parent only withholds
  states from a shard when the whole shard is stateless and event-gated);
* per rule, in priority order, relevance filtering skips reading the
  result, and :func:`~repro.rules.manager.apply_fire_mode` applies the
  rising-edge memory;
* firings of rules with ``record_executions`` are recorded in the
  worker-local executed store *after* all rules evaluated the state and
  before the next state is evaluated — matching the serial manager, where
  state N's actions run before state N+1 is evaluated, so co-sharded
  ``executed(r, ...)`` conditions see their antecedents.  (Deliberate
  divergence: detached ``T_C_A`` firings are recorded here at firing
  time, whereas the parent's authoritative store records them when the
  application drains the queue — see ``docs/PARALLEL.md``.)

The module-level ``_init_worker``/``_step_worker``/``_snapshot_worker``/
``_admin_worker`` functions wrap a process-global worker instance for use with a
``ProcessPoolExecutor(max_workers=1)`` per shard; ``_crash_worker`` is
the fault-injection hook the crash-recovery tests use.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.errors import RecoveryError
from repro.events.model import Event
from repro.history.state import SystemState
from repro.ptl import constraints as cs
from repro.ptl.compiled import ptl_compile_enabled, set_ptl_compile
from repro.ptl.context import EvalContext, ExecutedStore
from repro.ptl.parser import parse_formula
from repro.ptl.plan import SharedPlan
from repro.query.ast import Query
from repro.query.parser import parse_query
from repro.query.subst import QueryRegistry
from repro.rules.manager import apply_fire_mode
from repro.rules.rule import CouplingMode, FireMode
from repro.storage.persist import _decode_item, _encode_item
from repro.storage.snapshot import DatabaseState


# -- payload codecs ---------------------------------------------------------


def encode_domains(domains) -> dict:
    """Encode an ``EvalContext.domains`` mapping for shipment: query
    specs go as re-parsable text, fixed value lists by value."""
    out = {}
    for var, spec in (domains or {}).items():
        if isinstance(spec, Query):
            out[var] = {"kind": "query", "text": str(spec)}
        else:
            out[var] = {
                "kind": "values",
                "values": [cs.encode_value(v) for v in spec],
            }
    return out


def decode_domains(payload: dict) -> dict:
    out = {}
    for var, spec in (payload or {}).items():
        if spec["kind"] == "query":
            out[var] = parse_query(spec["text"])
        else:
            out[var] = [cs.decode_value(v) for v in spec["values"]]
    return out


def encode_bindings(bindings) -> list:
    """Firing bindings as sorted key/value pair lists (the
    :class:`~repro.rules.rule.FiringRecord` binding shape)."""
    return [
        [[k, cs.encode_value(v)] for k, v in sorted(b.items())]
        for b in bindings
    ]


def decode_bindings(payload: list) -> list[dict]:
    return [
        {k: cs.decode_value(v) for k, v in pairs} for pairs in payload
    ]


def _encode_prev(prev: frozenset) -> list:
    return [
        [[k, cs.encode_value(v)] for k, v in pairs] for pairs in sorted(prev)
    ]


def _decode_prev(payload: list) -> frozenset:
    return frozenset(
        tuple((k, cs.decode_value(v)) for k, v in pairs) for pairs in payload
    )


class _WorkerRule:
    """One rule as the worker sees it: evaluation-relevant fields only
    (actions stay with the parent; workers never execute side effects)."""

    __slots__ = (
        "index",
        "name",
        "params",
        "coupling",
        "fire_mode",
        "relevant_events",
        "record_executions",
        "priority",
        "shadow",
        "evaluator",
        "prev_bindings",
    )

    def __init__(self, spec: dict):
        self.index = spec["index"]
        self.name = spec["name"]
        self.params = tuple(spec["params"])
        self.coupling = CouplingMode(spec["coupling"])
        self.fire_mode = FireMode(spec["fire_mode"])
        self.relevant_events = (
            None
            if spec["relevant_events"] is None
            else frozenset(spec["relevant_events"])
        )
        self.record_executions = spec["record_executions"]
        self.priority = spec["priority"]
        self.shadow = bool(spec.get("shadow", False))
        self.evaluator = None
        self.prev_bindings: frozenset = _decode_prev(spec.get("prev", []))


class ShardWorker:
    """One shard's resident evaluation state (usable in-process too —
    :class:`~repro.parallel.runtime.ThreadShardRuntime` holds these
    directly)."""

    def __init__(self, payload: dict):
        self.shard: int = payload["shard"]
        self.retention: Optional[int] = payload["retention"]
        self.seq: Optional[int] = payload["seq"]
        # The parent pins the recurrence backend at seal time so every
        # shard process evaluates in the same mode it does (the flag is
        # process-global).
        set_ptl_compile(payload["ptl_compile"])
        self.db = DatabaseState(
            {
                name: _decode_item(item)
                for name, item in payload["items"].items()
            }
        )
        self.queries = QueryRegistry()
        for name, qdef in sorted(payload["queries"].items()):
            self.queries.define_text(name, tuple(qdef["params"]), qdef["text"])
        self._scalar_items = {
            name
            for name in self.db.item_names()
            if not self.db.has_relation(name)
        }
        self.executed = ExecutedStore()
        self.executed.from_state(payload["executed"])
        self.plan = SharedPlan(EvalContext(executed=self.executed))
        self.rules: list[_WorkerRule] = []
        for spec in payload["rules"]:
            self._install_rule(spec)
        self._reorder()
        if payload["plan"] is not None:
            self.plan.from_state(payload["plan"])

    def _install_rule(self, spec: dict) -> _WorkerRule:
        rule = _WorkerRule(spec)
        formula = parse_formula(
            spec["formula"], self.queries, self._scalar_items
        )
        ctx = EvalContext(
            executed=self.executed,
            domains=decode_domains(spec.get("domains")),
        )
        rule.evaluator = self.plan.add_rule(rule.name, formula, ctx)
        self.rules.append(rule)
        return rule

    def _reorder(self) -> None:
        #: Priority order (higher first, ties by registration index) —
        #: the serial manager's ``_ordered_rules``.
        self._ordered = sorted(self.rules, key=lambda r: -r.priority)

    # -- rule-base administration (hot add/remove/shadow flip) --------------

    def admin(self, ops: list[dict]) -> None:
        """Apply rule-base changes to the live shard.  The runtime
        refreshes this shard's rebuild baseline immediately afterwards —
        the crash-replay tail holds only step records, so a baseline
        predating the change would resurrect the old rule base."""
        for op in ops:
            kind = op["op"]
            if kind == "add":
                self._install_rule(op["spec"])
            elif kind == "remove":
                name = op["name"]
                self.plan.remove_rule(name)
                self.rules = [r for r in self.rules if r.name != name]
            elif kind == "set_shadow":
                for rule in self.rules:
                    if rule.name == op["name"]:
                        rule.shadow = bool(op["shadow"])
                        break
                else:
                    raise RecoveryError(
                        f"shard {self.shard}: set_shadow for unknown "
                        f"rule {op['name']!r}"
                    )
            else:
                raise RecoveryError(f"unknown shard admin op {kind!r}")
        self._reorder()

    # -- stepping -----------------------------------------------------------

    def step(self, records: list[dict]) -> list[dict]:
        """Apply a batch of WAL-shaped step records; returns, per record,
        the fired rules and their bindings (encoded)."""
        out = []
        for record in records:
            out.append(self._step_one(record))
        if self.retention is not None and records:
            horizon = records[-1]["ts"] - self.retention
            self.executed.discard_before(horizon)
        return out

    def _step_one(self, record: dict) -> dict:
        seq = record["seq"]
        if self.seq is not None and seq <= self.seq:
            raise RecoveryError(
                f"shard {self.shard}: step record {seq} is not past the "
                f"last applied record {self.seq}"
            )
        changes = {
            name: _decode_item(item)
            for name, item in record["changes"].items()
        }
        if changes:
            self.db = self.db.with_updates(changes)
        events = [Event(name, tuple(params)) for name, params in record["events"]]
        delta = record["delta"]
        state = SystemState(
            self.db,
            events,
            record["ts"],
            index=seq,
            delta=None if delta is None else frozenset(delta),
        )
        self.plan.step(state)
        names = state.event_names()
        fired: list[list] = []
        to_record: list[tuple[_WorkerRule, dict]] = []
        for rule in self._ordered:
            if rule.relevant_events is not None and not (
                rule.relevant_events & names
            ):
                continue
            result = self.plan.result_of(rule.name)
            bindings, rule.prev_bindings = apply_fire_mode(
                rule.fire_mode, result, rule.prev_bindings
            )
            if bindings:
                fired.append([rule.index, encode_bindings(bindings)])
            # Shadow rules report firings to the parent but never touch
            # the executed store — mirroring the serial manager, where a
            # shadow firing suppresses both the action and the record.
            if rule.record_executions and not rule.shadow:
                for binding in bindings:
                    to_record.append((rule, binding))
        # Record *after* the full rule pass, before the next state: the
        # serial manager executes (and records) a state's T-CA actions
        # once every rule has evaluated that state.
        for rule, binding in to_record:
            params = tuple(binding.get(p) for p in rule.params)
            self.executed.record(rule.name, params, state.timestamp)
        self.seq = seq
        return {"seq": seq, "fired": fired}

    # -- snapshot (crash rebuild / checkpoints) -----------------------------

    def snapshot(self, rules_payload: list[dict]) -> dict:
        """A fresh init payload capturing the worker's resident state.

        ``rules_payload`` is the parent's canonical rule spec list for
        this shard (the worker does not retain formula text or domains in
        shippable form); the per-rule rising-edge memory is re-stamped
        from the live evaluators."""
        by_name = {r.name: r for r in self.rules}
        rules = []
        for spec in rules_payload:
            rule = by_name[spec["name"]]
            spec = dict(spec)
            spec["prev"] = _encode_prev(rule.prev_bindings)
            rules.append(spec)
        return {
            "shard": self.shard,
            "retention": self.retention,
            "seq": self.seq,
            "items": {
                name: _encode_item(self.db.raw_item(name))
                for name in self.db.item_names()
            },
            "queries": {
                name: {
                    "params": list(self.queries.get(name).params),
                    "text": str(self.queries.get(name).body),
                }
                for name in self.queries.names()
            },
            "executed": self.executed.to_state(),
            "rules": rules,
            "plan": self.plan.to_state() if self.rules else None,
            "ptl_compile": ptl_compile_enabled(),
        }

    def state_size(self) -> int:
        return self.plan.state_size() + len(self.executed)

    def chain_stats(self) -> dict:
        """Compiled-chain counters for this shard's plan: admin ops on a
        sealed shard must *patch* the resident chain (``patches`` moves,
        ``builds`` stays put), not rebuild it from scratch."""
        return {
            "builds": self.plan.chain_builds,
            "patches": self.plan.chain_patches,
        }


# -- process-pool entry points ----------------------------------------------
#
# One worker process hosts exactly one shard (the runtime builds one
# single-worker pool per shard), so a process-global instance is safe and
# is what keeps the shard state resident between submissions.

_WORKER: Optional[ShardWorker] = None


def _init_worker(payload: dict) -> None:
    global _WORKER
    _WORKER = ShardWorker(payload)


def _step_worker(records: list[dict]) -> list[dict]:
    if _WORKER is None:
        raise RecoveryError("shard worker used before initialisation")
    return _WORKER.step(records)


def _snapshot_worker(rules_payload: list[dict]) -> dict:
    if _WORKER is None:
        raise RecoveryError("shard worker used before initialisation")
    return _WORKER.snapshot(rules_payload)


def _admin_worker(ops: list[dict]) -> None:
    if _WORKER is None:
        raise RecoveryError("shard worker used before initialisation")
    _WORKER.admin(ops)


def _state_size_worker() -> int:
    return 0 if _WORKER is None else _WORKER.state_size()


def _chain_stats_worker() -> dict:
    if _WORKER is None:
        return {"builds": 0, "patches": 0}
    return _WORKER.chain_stats()


def _crash_worker() -> None:
    """Kill the hosting process without cleanup — the crash-recovery
    tests' stand-in for a worker segfault or OOM kill."""
    os._exit(42)
