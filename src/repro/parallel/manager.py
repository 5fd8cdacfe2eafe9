"""Sharded rule manager: the temporal component across K shard workers.

:class:`ShardedRuleManager` is a drop-in
:class:`~repro.rules.manager.RuleManager` whose *trigger condition
evaluation* runs in shard workers instead of in-process.  Registration
collects rules (plus their declared write-sets) without building
evaluators; the first flush *seals* the rule base — partitions it with
:func:`~repro.parallel.partition.partition_rules`, ships one init payload
per shard (rule conditions as PTL text, the query catalog, the baseline
database items, the executed-store contents), and brings up the runtime.
After sealing, each flushed batch of system states becomes one dispatch
round-trip per shard carrying only WAL-shaped delta records.

Everything with side effects stays in the parent: actions (with the
inherited retry/quarantine/isolation machinery), the authoritative
executed store and firing log, integrity constraints (trial evaluation
needs commit-veto timing no worker can provide), and future-obligation
monitors.  The parent merges worker results *per state, in the serial
manager's rule order* (priority desc, registration order) before any
action runs, so firing order — and therefore action order — is
byte-identical to serial evaluation; the conformance suite
(``tests/test_conformance.py``) holds every backend to that.

Shard-level relevance gating: a shard whose rules are all *stateless*
(in the :func:`~repro.rules.manager.infer_relevant_events` sense) and all
event-gated is only dispatched states carrying one of its rules' relevant
events — the serial per-rule skip, hoisted to whole shards, which is what
makes low-coupling rule bases scale with K.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence, Union

from repro.errors import (
    DuplicateRuleError,
    RecoveryError,
    RuleError,
    UnknownRuleError,
)
from repro.obs.trace import FIRING, LIFECYCLE, MONITOR, SHADOW_FIRING
from repro.parallel.partition import (
    RulePartition,
    partition_rules,
    rule_profile,
)
from repro.parallel.runtime import ShardRuntime, make_runtime
from repro.parallel.worker import decode_bindings, encode_domains
from repro.ptl.compiled import ptl_compile_enabled
from repro.ptl.plan import rule_drift, rule_fingerprint
from repro.ptl.safety import check_safety
from repro.rules.actions import as_action
from repro.rules.manager import (
    ConditionLike,
    RuleManager,
    _RegisteredRule,
    infer_relevant_events,
)
from repro.rules.rule import CouplingMode, FireMode, FiringRecord, Rule
from repro.storage.persist import _decode_item, _encode_item, _encode_value
from repro.storage.snapshot import DatabaseState


class ShardedRuleManager(RuleManager):
    """A :class:`RuleManager` evaluating trigger conditions across K
    resident shard workers (see the module docstring for the split of
    responsibilities)."""

    def __init__(
        self,
        engine,
        shards: int = 2,
        runtime: Union[str, ShardRuntime] = "auto",
        snapshot_interval: int = 256,
        coupled: Optional[Sequence[tuple[str, str]]] = None,
        **kwargs,
    ):
        """``runtime`` is ``"process"``/``"thread"``/``"auto"`` (see
        :func:`~repro.parallel.runtime.make_runtime`) or an unstarted
        :class:`~repro.parallel.runtime.ShardRuntime`.  ``coupled`` adds
        explicit co-sharding pairs on top of the inferred couplings.
        Remaining keyword arguments go to :class:`RuleManager`
        (``shared_plan`` is forced off — the plans live in the workers)."""
        kwargs.pop("shared_plan", None)
        super().__init__(engine, shared_plan=False, **kwargs)
        self.shards = max(1, shards)
        self._runtime_spec = runtime
        self._snapshot_interval = snapshot_interval
        self._coupled = list(coupled or ())
        self.runtime: Optional[ShardRuntime] = None
        self._sealed = False
        self._partition: Optional[RulePartition] = None
        self._rule_index: dict[str, int] = {}
        self._rule_writes: dict[str, tuple[str, ...]] = {}
        self._rule_domains: dict[str, dict] = {}
        #: Per shard: the relevance gate (frozenset of event names, or
        #: None = dispatch everything), the last database state the shard
        #: saw, and the last dispatched seq.
        self._gates: list[Optional[frozenset[str]]] = []
        self._shard_prev: list[DatabaseState] = []
        self._shard_seq: list[Optional[int]] = []
        #: The database state just before the next state to dispatch —
        #: advanced by ruleless flushes until the rule base seals.
        self._baseline_db: DatabaseState = engine.db.state
        self._m_shards = self.metrics.gauge("shard_count")
        self._m_rebuilds = self.metrics.gauge("shard_worker_rebuilds")

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_trigger(
        self,
        name: str,
        condition: ConditionLike,
        action,
        params: Sequence[str] = (),
        domains: Optional[Mapping] = None,
        coupling: CouplingMode = CouplingMode.T_CA,
        fire_mode: FireMode = FireMode.ALWAYS,
        relevant_events: Optional[Iterable[str]] = None,
        rewrite_aggregates: bool = False,
        record_executions: bool = True,
        priority: int = 0,
        writes: Sequence[str] = (),
        shadow: bool = False,
    ) -> Rule:
        """Register a trigger (no evaluator is built here — conditions
        compile inside the shard workers at seal time).  ``writes``
        declares the database items the action writes; rules with
        overlapping write-sets are co-sharded.

        Registration works on a live (sealed) manager too: the rule is
        placed on the shard of any rule it couples with — partners
        spread over several shards cannot be joined after sealing and
        raise — or the least-loaded shard, and shipped to the resident
        worker; its temporal operators start from "now"."""
        if rewrite_aggregates:
            raise RuleError(
                "rewrite_aggregates is not supported under sharded "
                "evaluation (its generated item names are process-local); "
                "use the direct aggregate pipeline"
            )
        if name in self._rules or name in self._ics or name in self._monitors:
            raise DuplicateRuleError(f"rule {name!r} already registered")
        # May flush — and therefore seal — so the placement decision
        # below sees the final pre-registration layout.
        self._lifecycle_sync("register", name)
        formula = self._parse_condition(condition)
        domain_map = self._parse_domains(domains)
        check_safety(formula, domain_map.keys())
        shard = None
        if self._sealed:
            # Fail before touching any bookkeeping: a live deployment
            # needs the text round-trip and an unambiguous placement.
            self._check_round_trip(name, formula)
            shard = self._place_rule(name, formula, writes)
        rule = Rule(
            name=name,
            condition=formula,
            action=as_action(action),
            params=tuple(params),
            coupling=coupling,
            fire_mode=fire_mode,
            relevant_events=(
                frozenset(relevant_events)
                if relevant_events is not None
                else None
            ),
            record_executions=record_executions,
            priority=priority,
            shadow=shadow,
        )
        stateless = infer_relevant_events(formula) is not None
        if rule.relevant_events is None and self.relevance_filtering:
            inferred = infer_relevant_events(formula)
            if inferred is not None:
                rule.relevant_events = inferred
        registered = _RegisteredRule(
            rule, None, stateless, registry=self.metrics,
            birth=self.states_seen,
        )
        self._rules[name] = registered
        self._rule_writes[name] = tuple(writes)
        self._rule_domains[name] = domain_map
        if shard is not None:
            self._deploy_live(name, shard)
        if self._obs_on:
            if self.states_seen > 0:
                self.metrics.counter("rules_added_live_total").inc()
            self._m_shadow.set(len(self.shadow_rules()))
            self.trace.emit(
                LIFECYCLE, op="add", rule=name, shadow=shadow,
                birth=registered.birth,
            )
        return rule

    def _check_round_trip(self, name: str, formula) -> None:
        reparsed = self._parse_condition(str(formula))
        if reparsed != formula:
            raise RuleError(
                f"rule {name!r}: condition does not round-trip "
                f"through its text form — was a named query it uses "
                f"redefined after registration?\n"
                f"  registered: {formula}\n"
                f"  re-parsed:  {reparsed}"
            )

    def _place_rule(self, name: str, formula, writes: Sequence[str]) -> int:
        """Choose a live shard for a post-seal registration: a rule
        coupled to existing rules (``executed()`` references in either
        direction, write-set overlap, or an explicit ``coupled`` pair)
        joins its partners' shard; an uncoupled rule goes to the
        least-loaded shard (ties to the lowest id)."""
        profile = rule_profile(name, formula, tuple(writes))
        pairs = {frozenset(p) for p in self._coupled}
        partners = set()
        for other, reg in self._rules.items():
            if other == name:
                continue
            other_profile = rule_profile(
                other, reg.rule.condition, self._rule_writes[other]
            )
            if (
                other in profile.executed_refs
                or name in other_profile.executed_refs
                or (profile.writes & other_profile.writes)
                or frozenset((name, other)) in pairs
            ):
                partners.add(other)
        # Partners not yet placed themselves (several rules being added
        # at once, e.g. a drift restore) are placed by their own turn.
        shards = {
            self._partition.shard_of(p)
            for p in partners
            if p in self._partition.assignment
        }
        if len(shards) > 1:
            raise RuleError(
                f"cannot register rule {name!r} on the live runtime: it "
                f"couples rules already placed on different shards "
                f"({sorted(partners)})"
            )
        if shards:
            return shards.pop()
        loads = [0] * self.shards
        for shard in self._partition.assignment.values():
            loads[shard] += 1
        return min(range(self.shards), key=lambda s: (loads[s], s))

    def _deploy_live(self, name: str, shard: int) -> None:
        """Extend the sealed layout with a just-registered rule and ship
        it to the owning shard's resident worker."""
        self._partition = RulePartition(
            shards=self._partition.shards,
            assignment={**self._partition.assignment, name: shard},
            # Seal-time coupling groups are not re-derived for hot adds.
            groups=self._partition.groups + ((name,),),
        )
        self._rule_index[name] = (
            max(self._rule_index.values(), default=-1) + 1
        )
        rules_payloads = self._build_rules_payloads()
        self._gates = self._compute_gates(rules_payloads)
        self.runtime.admin(
            shard,
            [{"op": "add", "spec": self._rule_spec(name)}],
            rules_payloads[shard],
        )
        if self._obs_on:
            self.metrics.gauge("shard_rules", shard=str(shard)).set(
                len(rules_payloads[shard])
            )

    def remove_rule(self, name: str) -> None:
        if (
            name not in self._rules
            and name not in self._ics
            and name not in self._monitors
        ):
            raise UnknownRuleError(f"no rule named {name!r}")
        # May flush — and therefore seal — so the shard to notify below
        # reflects the final layout.
        self._lifecycle_sync("remove", name)
        shard = None
        if self._sealed and name in self._rules:
            shard = self._partition.shard_of(name)
        super().remove_rule(name)
        self._rule_writes.pop(name, None)
        self._rule_domains.pop(name, None)
        if shard is not None:
            assignment = dict(self._partition.assignment)
            del assignment[name]
            self._partition = RulePartition(
                shards=self._partition.shards,
                assignment=assignment,
                groups=tuple(
                    g
                    for g in (
                        tuple(n for n in group if n != name)
                        for group in self._partition.groups
                    )
                    if g
                ),
            )
            # Other rules keep their worker-protocol indices.
            del self._rule_index[name]
            rules_payloads = self._build_rules_payloads()
            self._gates = self._compute_gates(rules_payloads)
            self.runtime.admin(
                shard, [{"op": "remove", "name": name}], rules_payloads[shard]
            )
            if self._obs_on:
                self.metrics.gauge("shard_rules", shard=str(shard)).set(
                    len(rules_payloads[shard])
                )

    def promote_rule(self, name: str) -> None:
        if name not in self._rules:
            raise UnknownRuleError(f"no trigger named {name!r}")
        self._lifecycle_sync("promote", name)
        was_shadow = self._rules[name].rule.shadow
        super().promote_rule(name)
        if was_shadow and self._sealed:
            # The worker's copy gates its executed-store recording; keep
            # it in step with the parent's flag.
            shard = self._partition.shard_of(name)
            rules_payloads = self._build_rules_payloads()
            self.runtime.admin(
                shard,
                [{"op": "set_shadow", "name": name, "shadow": False}],
                rules_payloads[shard],
            )

    # ------------------------------------------------------------------
    # Sealing: partition + worker bring-up
    # ------------------------------------------------------------------

    def _rule_spec(self, name: str) -> dict:
        reg = self._rules[name]
        rule = reg.rule
        return {
            "index": self._rule_index[name],
            "name": name,
            "formula": str(rule.condition),
            "params": list(rule.params),
            "coupling": rule.coupling.value,
            "fire_mode": rule.fire_mode.value,
            "relevant_events": (
                None
                if rule.relevant_events is None
                else sorted(rule.relevant_events)
            ),
            "record_executions": rule.record_executions,
            "priority": rule.priority,
            "shadow": rule.shadow,
            "domains": encode_domains(self._rule_domains[name]),
            "prev": [],
        }

    def _compute_partition(self) -> RulePartition:
        profiles = [
            rule_profile(
                name,
                self._rules[name].rule.condition,
                self._rule_writes[name],
            )
            for name in self._rules
        ]
        return partition_rules(profiles, self.shards, coupled=self._coupled)

    def _build_rules_payloads(self) -> list[list[dict]]:
        payloads: list[list[dict]] = [[] for _ in range(self.shards)]
        for name in self._rules:
            payloads[self._partition.shard_of(name)].append(
                self._rule_spec(name)
            )
        return payloads

    def _compute_gates(
        self, rules_payloads: list[list[dict]]
    ) -> list[Optional[frozenset[str]]]:
        gates: list[Optional[frozenset[str]]] = []
        for shard in range(self.shards):
            regs = [self._rules[s["name"]] for s in rules_payloads[shard]]
            if not regs:
                # An empty shard never needs a state.
                gates.append(frozenset())
            elif all(
                r.stateless and r.rule.relevant_events is not None
                for r in regs
            ):
                gates.append(
                    frozenset().union(
                        *(r.rule.relevant_events for r in regs)
                    )
                )
            else:
                gates.append(None)
        return gates

    def _check_round_trips(self) -> None:
        """Worker conditions travel as PTL text: every registered
        condition must re-parse to itself under the *current* catalog
        (a named query redefined since registration breaks this)."""
        for name, reg in self._rules.items():
            self._check_round_trip(name, reg.rule.condition)

    def _make_runtime(self) -> ShardRuntime:
        if isinstance(self._runtime_spec, ShardRuntime):
            if self._runtime_spec.started:
                raise RuleError("shard runtime instance already started")
            return self._runtime_spec
        return make_runtime(
            self._runtime_spec, snapshot_interval=self._snapshot_interval
        )

    def _engine_queries(self) -> dict:
        queries = self.engine.db.queries
        return {
            name: {
                "params": list(queries.get(name).params),
                "text": str(queries.get(name).body),
            }
            for name in queries.names()
        }

    def _seal(self) -> None:
        self._rule_index = {n: i for i, n in enumerate(self._rules)}
        self._check_round_trips()
        self._partition = self._compute_partition()
        rules_payloads = self._build_rules_payloads()
        self._gates = self._compute_gates(rules_payloads)
        base_items = {
            name: _encode_item(self._baseline_db.raw_item(name))
            for name in self._baseline_db.item_names()
        }
        queries = self._engine_queries()
        executed = self.executed.to_state()
        payloads = [
            {
                "shard": shard,
                "retention": self.executed_retention,
                "seq": None,
                "items": base_items,
                "queries": queries,
                "executed": executed,
                "rules": rules_payloads[shard],
                "plan": None,
                "ptl_compile": ptl_compile_enabled(),
            }
            for shard in range(self.shards)
        ]
        runtime = self._make_runtime()
        runtime.start(payloads, rules_payloads)
        self.runtime = runtime
        self._shard_prev = [self._baseline_db] * self.shards
        self._shard_seq = [None] * self.shards
        self._sealed = True
        if self._obs_on:
            self._m_shards.set(self.shards)
            for shard in range(self.shards):
                self.metrics.gauge(
                    "shard_rules", shard=str(shard)
                ).set(len(rules_payloads[shard]))

    # ------------------------------------------------------------------
    # Flush: encode -> dispatch -> merge -> act
    # ------------------------------------------------------------------

    def _encode_record(self, state, shard: int) -> dict:
        prev = self._shard_prev[shard]
        changed = state.db.changed_items(prev)
        record = {
            "seq": state.index,
            "ts": state.timestamp,
            "events": [
                [e.name, [_encode_value(p) for p in e.params]]
                for e in sorted(state.events, key=str)
            ],
            "changes": {
                name: _encode_item(state.db.raw_item(name))
                for name in changed
            },
            # Exact equality diff against what the shard last saw — a
            # sound delta even across states a gated shard skipped.
            "delta": sorted(changed),
        }
        self._shard_prev[shard] = state.db
        self._shard_seq[shard] = state.index
        return record

    def flush(self) -> None:
        batch, self._batch = self._batch, []
        if batch and self._rules and not self._sealed:
            self._seal()
        if not self._sealed:
            for state in batch:
                self._baseline_db = state.db
                self._step_monitors(state)
        else:
            self._flush_sealed(batch)
        if self.executed_retention is not None and batch:
            horizon = batch[-1].timestamp - self.executed_retention
            self.executed.discard_before(horizon)
        if self._obs_on:
            self._m_batch.set(len(self._batch))
            self._m_rebuilds.set(
                0 if self.runtime is None else self.runtime.rebuilds
            )

    def _flush_sealed(self, batch: list) -> None:
        obs = self._obs_on
        per_shard: dict[int, list[dict]] = {}
        dispatched: dict[int, int] = {}
        for state in batch:
            names = state.event_names()
            for shard in range(self.shards):
                gate = self._gates[shard]
                if gate is not None and not (gate & names):
                    continue
                per_shard.setdefault(shard, []).append(
                    self._encode_record(state, shard)
                )
                dispatched[shard] = dispatched.get(shard, 0) + 1
        results = self.runtime.dispatch(per_shard)
        if obs:
            for shard, count in dispatched.items():
                self.metrics.counter(
                    "shard_dispatched_states_total", shard=str(shard)
                ).inc(count)
            skipped = len(batch) * self.shards - sum(dispatched.values())
            if skipped:
                self.metrics.counter(
                    "shard_gated_states_total"
                ).inc(skipped)
        fired_by_seq: dict[int, dict[int, list[dict]]] = {}
        for shard, records in results.items():
            for record in records:
                by_index = fired_by_seq.setdefault(record["seq"], {})
                for index, bindings in record["fired"]:
                    by_index[index] = decode_bindings(bindings)
        for state in batch:
            self._merge_state(state, fired_by_seq.get(state.index, {}))

    def _merge_state(self, state, by_index: dict[int, list[dict]]) -> None:
        """Re-create the serial manager's per-state pass from the worker
        results: same rule order, same firing records, same action
        timing (all of a state's T-CA actions after all its rules)."""
        obs = self._obs_on
        to_execute: list[tuple[Rule, dict]] = []
        names = state.event_names()
        for reg in self._ordered_rules():
            rule = reg.rule
            if rule.relevant_events is not None and not (
                rule.relevant_events & names
            ):
                reg.stats.skips += 1
                if obs:
                    reg.m_skips.inc()
                continue
            reg.stats.evaluations += 1
            bindings = by_index.get(self._rule_index[rule.name], [])
            for binding in bindings:
                reg.stats.firings += 1
                record = FiringRecord(
                    rule.name,
                    tuple(sorted(binding.items(), key=lambda kv: kv[0])),
                    state.index,
                    state.timestamp,
                    shadow=rule.shadow,
                )
                self._firings.append(record)
                if obs:
                    reg.m_firings.inc()
                    self.trace.emit(
                        SHADOW_FIRING if rule.shadow else FIRING,
                        timestamp=state.timestamp,
                        rule=rule.name,
                        state_index=state.index,
                        bindings=dict(record.bindings),
                        shard=self._partition.shard_of(rule.name),
                    )
                if rule.shadow:
                    # Same contract as the serial manager: observable
                    # firing, suppressed action, no executed record (the
                    # worker suppressed its store-side half already).
                    if reg.m_shadow_firings is not None:
                        reg.m_shadow_firings.inc()
                    continue
                if rule.coupling is CouplingMode.T_CA:
                    to_execute.append((rule, binding))
                elif rule.coupling is CouplingMode.T_C_A:
                    self._pending_actions.append((rule, binding, state))
        if obs:
            self._m_pending.set(len(self._pending_actions))
        for rule, binding in to_execute:
            self._execute(rule, binding, state)
        self._step_monitors(state)

    def _step_monitors(self, state) -> None:
        obs = self._obs_on
        for monitor in list(self._monitors.values()):
            before = len(monitor.resolutions)
            monitor.step(state, self.engine)
            if obs and len(monitor.resolutions) > before:
                verdict, ts = monitor.resolutions[-1]
                self.metrics.counter(
                    "monitor_resolutions_total",
                    monitor=monitor.name,
                    verdict=verdict,
                ).inc()
                self.trace.emit(
                    MONITOR, timestamp=ts, monitor=monitor.name,
                    verdict=verdict,
                )

    # ------------------------------------------------------------------
    # Worker management
    # ------------------------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """Test hook: crash one shard worker; the next flush rebuilds it
        (baseline payload + deterministic tail replay)."""
        if not self._sealed:
            raise RuleError("no workers before the first flush")
        self.runtime.kill_worker(shard)

    @property
    def worker_rebuilds(self) -> int:
        return 0 if self.runtime is None else self.runtime.rebuilds

    def chain_stats(self) -> list[dict]:
        """Per-shard compiled-chain ``builds``/``patches`` counters from
        the resident workers.  With the compiled backend pinned, admin
        ops on a sealed rule base patch each affected shard's chain in
        place — ``patches`` moves while ``builds`` stays at one."""
        return [] if self.runtime is None else self.runtime.chain_stats()

    def shard_of(self, name: str) -> int:
        """Which shard evaluates ``name`` (seals the rule base first if
        needed so the layout is final)."""
        if not self._sealed:
            if not self._rules:
                raise RuleError("no trigger rules registered")
            self._seal()
        return self._partition.shard_of(name)

    # ------------------------------------------------------------------
    # Checkpoint serialization (crash recovery)
    # ------------------------------------------------------------------

    _BACKEND = "sharded"

    def to_state(self) -> dict:
        """The serial manager's section (firings, stats, ICs, queued
        actions, quarantine, per-rule fingerprints) plus what is sharded:
        the layout and one init payload per resident worker."""
        state = super().to_state()
        if self._rules and not self._sealed:
            self._seal()
        state["shards"] = self.shards
        # Layout recorded verbatim: with hot adds and removals it is
        # history-dependent and cannot be recomputed on restore.
        state["assignment"] = (
            dict(self._partition.assignment) if self._sealed else None
        )
        state["rule_index"] = dict(self._rule_index) if self._sealed else None
        # Fresh worker init payloads — each one carries the shard's
        # resident database items, plan state, executed store,
        # rising-edge memory, and last applied seq.
        state["workers"] = (
            self.runtime.snapshot_all() if self._sealed else None
        )
        return state

    def _has_private_evaluator(self, reg) -> bool:
        return False  # trigger state lives in the shard workers

    def _check_restorable(self, payload: dict) -> None:
        super()._check_restorable(payload)
        if payload["shards"] != self.shards:
            raise RecoveryError(
                f"checkpoint used {payload['shards']} shards; this "
                f"manager has {self.shards}"
            )
        if self._sealed:
            raise RecoveryError(
                "cannot restore into a manager whose runtime already started"
            )

    def from_state(self, payload: dict, strict: bool = True) -> dict:
        """Restore a checkpoint taken by :meth:`to_state`.

        Same contract as the serial manager's
        :meth:`~repro.rules.manager.RuleManager.from_state`: with
        ``strict=False`` a drifted rule set is tolerated — surviving
        rules get their worker-resident state back, dropped (or
        redefined) rules are admin-removed from the restored workers,
        and freshly registered rules are placed and shipped live.
        Returns ``{"added", "dropped", "changed"}`` name lists."""
        drift = super().from_state(payload, strict=strict)
        if payload["workers"] is not None:
            self._seal_from_checkpoint(payload, set(drift["changed"]))
        return drift

    def _seal_from_checkpoint(self, payload: dict, changed_set: set) -> None:
        """Bring the runtime up from checkpointed worker payloads.

        The payload carries the assignment and rule-index maps verbatim
        (a layout shaped by hot adds/removals is not recomputable).
        Surviving rules'
        conditions are verified against the worker specs; under drift
        the restored workers are then reconciled in place — dropped or
        redefined rules admin-removed, new registrations placed and
        admin-added."""
        workers = payload["workers"]
        assignment = dict(payload["assignment"])
        rule_index = {
            name: int(i) for name, i in payload["rule_index"].items()
        }
        surviving = {
            spec["name"]: rule_fingerprint(
                self._parse_condition(spec["formula"])
            )
            for worker_payload in workers
            for spec in worker_payload["rules"]
            # The rest is reconciled away below.
            if spec["name"] in self._rules
            and spec["name"] not in changed_set
        }
        rule_drift(
            surviving,
            self._fingerprints({name: self._rules[name] for name in surviving}),
            strict=True,
        )
        self._rule_index = rule_index
        # ``assignment`` stays aliased into the partition on purpose:
        # the reconciliation loop below mutates it through placement.
        self._partition = RulePartition(
            shards=self.shards,
            assignment=assignment,
            groups=tuple((n,) for n in assignment),
        )
        runtime = self._make_runtime()
        # Start with the *checkpointed* spec lists — the workers hold the
        # checkpointed rule base until the admin ops below land.
        runtime.start(workers, [list(wp["rules"]) for wp in workers])
        self.runtime = runtime
        self._shard_prev = [
            DatabaseState(
                {
                    name: _decode_item(item)
                    for name, item in wp["items"].items()
                }
            )
            for wp in workers
        ]
        self._shard_seq = [wp["seq"] for wp in workers]
        self._sealed = True
        ops: dict[int, list[dict]] = {}
        for name in list(payload["rules"]):
            if name in self._rules and name not in changed_set:
                continue
            shard = assignment.pop(name)
            rule_index.pop(name)
            ops.setdefault(shard, []).append({"op": "remove", "name": name})
        for name in self._rules:
            if name in assignment:
                continue
            reg = self._rules[name]
            self._check_round_trip(name, reg.rule.condition)
            shard = self._place_rule(
                name, reg.rule.condition, self._rule_writes[name]
            )
            assignment[name] = shard
            rule_index[name] = max(rule_index.values(), default=-1) + 1
            ops.setdefault(shard, []).append(
                {"op": "add", "spec": self._rule_spec(name)}
            )
        rules_payloads = self._build_rules_payloads()
        self._gates = self._compute_gates(rules_payloads)
        for shard in sorted(ops):
            runtime.admin(shard, ops[shard], rules_payloads[shard])
        if self._obs_on:
            self._m_shards.set(self.shards)
            for shard in range(self.shards):
                self.metrics.gauge(
                    "shard_rules", shard=str(shard)
                ).set(len(rules_payloads[shard]))

    # ------------------------------------------------------------------
    # Introspection / teardown
    # ------------------------------------------------------------------

    def total_state_size(self) -> int:
        """Retained evaluator state: IC evaluators in-process, plus every
        shard worker's resident plan + executed store (one round-trip per
        shard on the process runtime — call sparingly)."""
        total = sum(
            reg.evaluator.state_size() for reg in self._ics.values()
        )
        if self._sealed:
            sizes = self.runtime.state_sizes()
            total += sum(sizes)
            if self._obs_on:
                for shard, size in enumerate(sizes):
                    self.metrics.gauge(
                        "shard_state_size", shard=str(shard)
                    ).set(size)
        if self._obs_on:
            self._m_state_size.set(total)
        return total

    def detach(self) -> None:
        super().detach()
        if self.runtime is not None:
            self.runtime.close()
