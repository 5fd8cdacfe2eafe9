"""The rule manager — the paper's *temporal component* (Sections 3, 8).

"Whenever an event occurs the database management system invokes the
temporal component, i.e. a system that executes the temporal condition
evaluation algorithm for each trigger."  The manager:

* subscribes to the engine's event bus and steps every registered rule's
  incremental evaluator on each new system state;
* enforces integrity constraints at the ``attempts_to_commit`` event by
  *trial evaluation* (snapshot -> step candidate -> restore), vetoing the
  commit when the IC condition (``attempts_to_commit(X) & !c``) fires;
* executes trigger actions according to their coupling mode, records
  the executions some live condition reads in the ``executed`` store
  (Section 7), and garbage-collects records past their retention;
* implements the Section 8 optimizations: *relevance filtering* (rules
  considered only when their events occur — automatically inferred only
  for stateless, event-guarded conditions, where it is sound) and
  *batched invocation* ("trigger firing may be delayed, but not go
  unrecognized").
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro.errors import (
    DuplicateRuleError,
    HistoryError,
    RecoveryError,
    RuleError,
    UnknownRuleError,
)
from repro.obs.metrics import NULL_REGISTRY, as_registry
from repro.obs.trace import (
    ACTION,
    ACTION_FAILURE,
    FIRING,
    IC_VIOLATION,
    LIFECYCLE,
    MONITOR,
    SHADOW_FIRING,
    as_trace,
)
from repro.ptl import ast
from repro.ptl.aggregates import RewrittenEvaluator
from repro.ptl.context import EvalContext, ExecutedStore
from repro.ptl.parser import parse_formula
from repro.ptl.plan import (
    IncrementalEvaluator,
    SharedPlan,
    rule_drift,
    rule_fingerprint,
)
from repro.ptl.safety import check_safety
from repro.query.parser import parse_query
from repro.rules.actions import Action, ActionContext, as_action
from repro.rules.rule import (
    CouplingMode,
    FireMode,
    FiringLog,
    FiringRecord,
    Rule,
    make_integrity_constraint,
)

ConditionLike = Union[str, ast.Formula]


class _RegisteredMonitor:
    """A future-obligation monitor attached to the manager (extension)."""

    __slots__ = (
        "name",
        "formula",
        "monitor",
        "on_satisfied",
        "on_violated",
        "respawn",
        "resolutions",
        "_ctx",
    )

    def __init__(self, name, formula, ctx, on_satisfied, on_violated, respawn):
        from repro.ptl.future import FutureMonitor

        self.name = name
        self.formula = formula
        self._ctx = ctx
        self.monitor = FutureMonitor(formula, ctx)
        self.on_satisfied = on_satisfied
        self.on_violated = on_violated
        self.respawn = respawn
        #: (verdict, timestamp) per resolution.
        self.resolutions: list[tuple[str, int]] = []

    def step(self, state, engine):
        from repro.ptl.future import FutureMonitor, Verdict

        already_resolved = self.monitor.verdict is not Verdict.PENDING
        verdict = self.monitor.step(state)
        if verdict is Verdict.PENDING or already_resolved:
            return
        self.resolutions.append((verdict.value, state.timestamp))
        callback = (
            self.on_satisfied
            if verdict is Verdict.SATISFIED
            else self.on_violated
        )
        if callback is not None:
            callback.execute(ActionContext(engine, {}, state, self.name))
        if self.respawn:
            # a fresh obligation starts with the next state
            self.monitor = FutureMonitor(self.formula, self._ctx)


def infer_relevant_events(formula: ast.Formula) -> Optional[frozenset[str]]:
    """Event names that gate a *stateless* condition.

    Sound only when the condition has no temporal operators or aggregates
    (its evaluator carries no state across steps, so skipping states
    cannot corrupt it) and is a conjunction with at least one top-level
    event atom (so states without those events cannot satisfy it).
    Returns None when filtering would be unsound.
    """
    for sub in ast.walk(formula):
        if isinstance(sub, (ast.Since, ast.Lasttime, ast.Previously, ast.ThroughoutPast)):
            return None
    for agg in ast.aggregate_terms(formula):
        return None
    if isinstance(formula, ast.EventAtom):
        return frozenset({formula.name})
    if isinstance(formula, ast.And):
        names = {
            c.name for c in formula.operands if isinstance(c, ast.EventAtom)
        }
        if names:
            return frozenset(names)
    return None


@dataclass
class RuleStats:
    evaluations: int = 0
    skips: int = 0
    firings: int = 0


class _RegisteredRule:
    __slots__ = (
        "rule",
        "evaluator",
        "stats",
        "_prev_bindings",
        "birth",
        "reads",
        "m_firings",
        "m_eval_seconds",
        "m_action_seconds",
        "m_skips",
        "m_shadow_firings",
    )

    def __init__(
        self,
        rule: Rule,
        evaluator,
        registry=None,
        birth: int = 0,
    ):
        self.rule = rule
        self.evaluator = evaluator
        self.stats = RuleStats()
        self._prev_bindings: frozenset = frozenset()
        #: ``states_seen`` at registration — a hot-added rule's firings
        #: can only start here (recorded in checkpoints).
        self.birth = birth
        #: Rules whose executions the condition reads.
        self.reads = frozenset(
            sub.rule
            for sub in ast.walk(rule.condition)
            if isinstance(sub, ast.ExecutedAtom)
        )
        registry = registry or NULL_REGISTRY
        name = rule.name
        self.m_firings = registry.counter("rule_firings_total", rule=name)
        self.m_eval_seconds = registry.histogram("rule_eval_seconds", rule=name)
        self.m_action_seconds = registry.histogram(
            "rule_action_seconds", rule=name
        )
        self.m_skips = registry.counter("rule_skips_total", rule=name)
        self.m_shadow_firings = (
            registry.counter("shadow_firings_total", rule=name)
            if rule.shadow
            else None
        )

    def step(self, state) -> list[dict]:
        """Step the evaluator and return the bindings that actually fire
        under the rule's fire mode (rising edge: only bindings absent
        from the previous state's binding set)."""
        result = self.evaluator.step(state)
        self.stats.evaluations += 1
        if not result.fired:
            self._prev_bindings = frozenset()
            return []
        bindings = [dict(b) for b in result.bindings]
        current = frozenset(
            tuple(sorted(b.items(), key=lambda kv: kv[0])) for b in bindings
        )
        if self.rule.fire_mode is FireMode.RISING_EDGE:
            bindings = [dict(t) for t in sorted(current - self._prev_bindings)]
        self._prev_bindings = current
        return bindings


class RuleManager:
    """The temporal component, attached to one
    :class:`~repro.engine.ActiveDatabase`."""

    def __init__(
        self,
        engine,
        relevance_filtering: bool = False,
        batch_size: int = 1,
        executed_retention: Optional[int] = None,
        metrics=None,
        trace=None,
        shared_plan: bool = True,
        isolate_action_failures: bool = False,
        action_retries: int = 0,
        quarantine_after: Optional[int] = 3,
    ):
        """``metrics`` is ``None`` (inherit the engine's registry — the
        no-op registry unless the engine was built with one), ``True``, or
        a :class:`~repro.obs.metrics.MetricsRegistry`; ``trace`` likewise
        resolves to a :class:`~repro.obs.trace.TraceSink`.

        With ``shared_plan=True`` (the default) trigger conditions are
        compiled into one :class:`~repro.ptl.plan.SharedPlan` with
        common-subformula elimination, so overlapping conditions are
        evaluated once per state instead of once per rule;
        ``shared_plan=False`` is the same backend grouped differently —
        one private plan per rule (:class:`IncrementalEvaluator`), no
        sharing across rules.  Integrity constraints and
        ``rewrite_aggregates`` rules always get a private plan (IC trial
        evaluation must not touch shared state).

        ``isolate_action_failures=True`` contains a raising trigger action
        to its own rule: the exception is recorded (a ``"failed"``
        execution record, the ``action_failures_total`` counter, an
        ``action_failure`` trace event) instead of propagating, so one
        broken action cannot lose or duplicate other rules' firings.  A
        failing action is first retried ``action_retries`` times, and a
        rule whose action fails ``quarantine_after`` times is quarantined
        — its firings are still recorded, its action no longer runs
        (``None`` disables quarantining).  Integrity constraints are
        unaffected either way: their abort(X) is enforced as a commit
        veto, never as an executed action, so the tightly-coupled TCA
        abort semantics survive isolation."""
        self.engine = engine
        self.relevance_filtering = relevance_filtering
        self.batch_size = max(1, batch_size)
        self.executed_retention = executed_retention
        self.executed = ExecutedStore()
        if metrics is None:
            self.metrics = getattr(engine, "metrics", NULL_REGISTRY)
        else:
            self.metrics = as_registry(metrics)
        self.trace = as_trace(trace)
        self.plan: Optional[SharedPlan] = (
            SharedPlan(
                EvalContext(executed=self.executed), metrics=self.metrics
            )
            if shared_plan
            else None
        )
        self.isolate_action_failures = isolate_action_failures
        self.action_retries = max(0, action_retries)
        self.quarantine_after = quarantine_after
        self._obs_on = self.metrics.enabled or self.trace.enabled
        self._m_states = self.metrics.counter("manager_states_total")
        self._m_pending = self.metrics.gauge("manager_pending_actions")
        self._m_batch = self.metrics.gauge("manager_batch_depth")
        self._m_state_size = self.metrics.gauge("manager_state_size")
        self._m_quarantined = self.metrics.gauge("rules_quarantined")
        self._m_shadow = self.metrics.gauge("rules_shadow")
        self._m_executed = self.metrics.gauge("executed_records")
        self._m_firing_log = self.metrics.gauge("firing_log_length")

        self._rules: dict[str, _RegisteredRule] = {}
        self._ics: dict[str, _RegisteredRule] = {}
        self._monitors: dict[str, _RegisteredMonitor] = {}
        self._firings = FiringLog()
        #: Rules whose executions are recorded: those an ``executed``
        #: atom of a live trigger (shadow ones too) or integrity
        #: constraint reads; ``None`` (every rule) while a future monitor
        #: is registered.  See :meth:`_derive_readers`.
        self._read_rules: Optional[frozenset[str]] = frozenset()
        self._pending_actions: list[tuple[Rule, dict, Any]] = []
        self._queue: list = []
        self._batch: list = []
        self._draining = False
        self._validator_installed = False
        self.states_seen = 0
        #: Consecutive-failure count per rule and the quarantined set.
        self._action_failures: dict[str, int] = {}
        self._quarantined: set[str] = set()
        #: True while crash recovery replays the WAL tail: firings and
        #: execution records are reproduced, actions are suppressed (they
        #: already ran — or deliberately never will — before the crash).
        self._replaying = False

        self._subscription = engine.bus.subscribe(self._on_state)
        # Group-commit hook: while the engine holds a batch open, trigger
        # processing is deferred; the engine calls back (post-fsync) when
        # the batch is durable.
        self._batch_listener = self._on_batch_end
        listeners = getattr(engine, "batch_listeners", None)
        if listeners is not None:
            listeners.append(self._batch_listener)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _parse_condition(self, condition: ConditionLike) -> ast.Formula:
        if isinstance(condition, ast.Formula):
            return condition
        items = set()
        state = self.engine.db.state
        for name in state.item_names():
            if not state.has_relation(name):
                items.add(name)
        return parse_formula(condition, self.engine.db.queries, items)

    def _parse_domains(self, domains) -> dict:
        out = {}
        for name, spec in (domains or {}).items():
            if isinstance(spec, str):
                spec = parse_query(spec)
            out[name] = spec
        return out

    def _lifecycle_sync(self, op: str, name: str) -> None:
        """Bring the manager to a consistent stream position before a
        rule-base change: batched states are evaluated first, so the
        change takes effect strictly *after* every state already
        ingested.  Inside an open engine ingest batch the held-back
        states are not yet durable (WAL-before-actions), so a change
        there is rejected rather than flushed early."""
        if self._batch and getattr(self.engine, "in_batch", False):
            raise RuleError(
                f"cannot {op} rule {name!r} inside an open ingest batch "
                "(states pending group commit); close the batch first"
            )
        if self._batch:
            self.flush()

    def _derive_readers(self) -> None:
        """Recompute which rules' executions are recorded, and drop the
        records of rules that lost their last reader.  A condition added
        hot therefore sees the executions recorded since some live
        condition first read that rule — none, for a rule nobody read,
        exactly as on a fresh engine."""
        if self._monitors:
            # Future formulas are not walked: a monitor keeps everything.
            self._read_rules = None
            return
        read = frozenset().union(
            *(reg.reads for reg in self._rules.values()),
            *(reg.reads for reg in self._ics.values()),
        )
        previous, self._read_rules = self._read_rules, read
        if previous is None or previous - read:
            self.executed.keep_only(read)

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
        priority: int = 0,
        shadow: bool = False,
    ) -> Rule:
        """Register a trigger; the condition may be PTL text or a formula.

        ``priority`` orders evaluation and action execution within one
        state (higher first; ties by registration order).

        Registration works on a live manager (hot add): the condition's
        temporal operators start from "now" — the rule behaves exactly
        like the same rule on a fresh engine fed only the states ingested
        after registration.  With ``shadow=True`` the rule is deployed in
        shadow mode: its condition evaluates and firings are recorded and
        traced (``shadow_firings_total``), but the action never runs and
        nothing enters the executed store until :meth:`promote_rule`.

        The rule's executions are recorded only while some live condition
        reads them through an ``executed`` atom; an ``executed`` atom in
        this condition sees the records kept since the rule it names
        first had a reader.
        """
        if name in self._rules or name in self._ics or name in self._monitors:
            raise DuplicateRuleError(f"rule {name!r} already registered")
        self._lifecycle_sync("register", name)
        formula = self._parse_condition(condition)
        domain_map = self._parse_domains(domains)
        check_safety(formula, domain_map.keys())
        rule = Rule(
            name=name,
            condition=formula,
            action=as_action(action),
            params=tuple(params),
            coupling=coupling,
            fire_mode=fire_mode,
            relevant_events=(
                frozenset(relevant_events) if relevant_events is not None else None
            ),
            rewrite_aggregates=rewrite_aggregates,
            priority=priority,
            shadow=shadow,
        )
        ctx = EvalContext(executed=self.executed, domains=domain_map)
        if rewrite_aggregates:
            evaluator = RewrittenEvaluator(
                formula, ctx, metrics=self.metrics, name=name
            )
        elif self.plan is not None:
            evaluator = self.plan.add_rule(name, formula, ctx)
        else:
            evaluator = IncrementalEvaluator(
                formula, ctx, metrics=self.metrics, name=name
            )
        registered = _RegisteredRule(
            rule, evaluator, registry=self.metrics, birth=self.states_seen
        )
        if (
            rule.relevant_events is None
            and self.relevance_filtering
        ):
            inferred = infer_relevant_events(formula)
            if inferred is not None:
                rule.relevant_events = inferred
        self._rules[name] = registered
        self._derive_readers()
        if self._obs_on:
            if self.states_seen > 0:
                self.metrics.counter("rules_added_live_total").inc()
            self._m_shadow.set(len(self.shadow_rules()))
            self.trace.emit(
                LIFECYCLE,
                op="add",
                rule=name,
                shadow=shadow,
                birth=registered.birth,
            )
        return rule

    def add_integrity_constraint(
        self,
        name: str,
        constraint: ConditionLike,
        domains: Optional[Mapping] = None,
    ) -> Rule:
        """Register a temporal integrity constraint (Section 3): the
        condition must hold at every commit point; violating transactions
        are aborted."""
        if name in self._rules or name in self._ics or name in self._monitors:
            raise DuplicateRuleError(f"rule {name!r} already registered")
        formula = self._parse_condition(constraint)
        domain_map = self._parse_domains(domains)
        rule = make_integrity_constraint(name, formula)
        check_safety(rule.condition, domain_map.keys())
        ctx = EvalContext(executed=self.executed, domains=domain_map)
        evaluator = IncrementalEvaluator(
            rule.condition, ctx, metrics=self.metrics, name=name
        )
        self._ics[name] = _RegisteredRule(
            rule, evaluator, registry=self.metrics
        )
        self._derive_readers()
        if not self._validator_installed:
            self.engine.add_commit_validator(self._validate)
            self._validator_installed = True
        return rule

    def add_future_monitor(
        self,
        name: str,
        formula,
        on_satisfied=None,
        on_violated=None,
        respawn: bool = False,
    ) -> "_RegisteredMonitor":
        """Attach a future-obligation monitor (the future-operator
        extension): ``formula`` is an FFormula or future-syntax text
        (``"always (!@req | eventually[5] @ack)"``).  The matching
        callback action runs when the obligation resolves; with
        ``respawn=True`` a fresh monitor starts at the next state
        (continuous enforcement)."""
        from repro.ptl.future import FFormula
        from repro.ptl.future_parser import parse_future_formula

        if name in self._rules or name in self._ics or name in self._monitors:
            raise DuplicateRuleError(f"rule {name!r} already registered")
        if not isinstance(formula, FFormula):
            items = {
                n
                for n in self.engine.db.state.item_names()
                if not self.engine.db.state.has_relation(n)
            }
            formula = parse_future_formula(
                formula, self.engine.db.queries, items
            )
        ctx = EvalContext(executed=self.executed)
        registered = _RegisteredMonitor(
            name,
            formula,
            ctx,
            None if on_satisfied is None else as_action(on_satisfied),
            None if on_violated is None else as_action(on_violated),
            respawn,
        )
        self._monitors[name] = registered
        self._derive_readers()
        return registered

    def monitor_resolutions(self, name: str) -> list[tuple[str, int]]:
        if name not in self._monitors:
            raise UnknownRuleError(f"no monitor named {name!r}")
        return list(self._monitors[name].resolutions)

    def remove_rule(self, name: str) -> None:
        """Unregister a trigger, integrity constraint, or monitor.  Works
        on a live manager: batched states are evaluated first, then the
        rule's evaluator state (including its share of the plan DAG) is
        released, its queued detached actions are dropped, and its
        quarantine bookkeeping is cleared.  Past firings stay; so do
        execution records, unless this rule was the last condition
        reading them."""
        self._unregister(name)
        self._derive_readers()

    def _unregister(self, name: str) -> None:
        """:meth:`remove_rule` short of recomputing the reader set."""
        if (
            name not in self._rules
            and name not in self._ics
            and name not in self._monitors
        ):
            raise UnknownRuleError(f"no rule named {name!r}")
        self._lifecycle_sync("remove", name)
        if name in self._rules:
            reg = self._rules.pop(name)
            if self._in_shared_plan(reg):
                self.plan.remove_rule(name)
            self._pending_actions = [
                p for p in self._pending_actions if p[0].name != name
            ]
        elif name in self._ics:
            del self._ics[name]
        elif name in self._monitors:
            del self._monitors[name]
        self._action_failures.pop(name, None)
        self._quarantined.discard(name)
        if self._obs_on:
            if self.states_seen > 0:
                self.metrics.counter("rules_removed_live_total").inc()
            self._m_shadow.set(len(self.shadow_rules()))
            self._m_quarantined.set(len(self._quarantined))
            self._m_pending.set(len(self._pending_actions))
            self.trace.emit(LIFECYCLE, op="remove", rule=name)

    def replace_rule(
        self, name: str, condition: ConditionLike, action, **kwargs
    ) -> Rule:
        """Atomically swap a trigger's definition: remove + re-register
        under the same name, between two states.  The new condition's
        temporal operators start from "now" (no state carries over, even
        if the condition text is unchanged); execution records that both
        definitions read stay.  ``kwargs`` are :meth:`add_trigger`'s."""
        if name not in self._rules:
            raise UnknownRuleError(f"no trigger named {name!r}")
        self._unregister(name)
        try:
            rule = self.add_trigger(name, condition, action, **kwargs)
        finally:
            # Once, after the swap: records both definitions read stay.
            self._derive_readers()
        if self._obs_on:
            self.metrics.counter("rules_replaced_total").inc()
            self.trace.emit(
                LIFECYCLE, op="replace", rule=name,
                shadow=rule.shadow,
            )
        return rule

    def promote_rule(self, name: str) -> None:
        """Flip a shadow rule live: from the next state on, its firings
        execute the action and enter the executed store.  Idempotent on
        an already-live rule; unknown names raise
        :class:`UnknownRuleError`."""
        if name not in self._rules:
            raise UnknownRuleError(f"no trigger named {name!r}")
        self._lifecycle_sync("promote", name)
        reg = self._rules[name]
        if not reg.rule.shadow:
            return
        reg.rule.shadow = False
        if self._obs_on:
            self.metrics.counter("rules_promoted_total").inc()
            self._m_shadow.set(len(self.shadow_rules()))
            self.trace.emit(LIFECYCLE, op="promote", rule=name)

    def shadow_rules(self) -> list[str]:
        """Names of triggers currently deployed in shadow mode."""
        return sorted(
            name for name, reg in self._rules.items() if reg.rule.shadow
        )

    def rule_names(self) -> list[str]:
        return sorted(
            list(self._rules) + list(self._ics) + list(self._monitors)
        )

    # ------------------------------------------------------------------
    # Integrity-constraint enforcement (trial evaluation)
    # ------------------------------------------------------------------

    def _validate(self, candidate, txn) -> list[str]:
        violations = []
        for reg in self._ics.values():
            snap = reg.evaluator.snapshot()
            result = reg.evaluator.step(candidate)
            reg.evaluator.restore(snap)
            if result.fired:
                violations.append(
                    f"integrity constraint {reg.rule.name!r} violated"
                )
                txn.vetoes += (
                    (reg.rule.name, candidate.index, candidate.timestamp),
                )
                if self._obs_on:
                    self.metrics.counter(
                        "ic_violations_total", rule=reg.rule.name
                    ).inc()
                    self.trace.emit(
                        IC_VIOLATION,
                        timestamp=candidate.timestamp,
                        rule=reg.rule.name,
                        txn=txn.id,
                        state_index=candidate.index,
                    )
        return violations

    # ------------------------------------------------------------------
    # State processing
    # ------------------------------------------------------------------

    def _on_state(self, state) -> None:
        self._queue.append(state)
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                next_state = self._queue.pop(0)
                self._process_state(next_state)
        finally:
            self._draining = False

    def _process_state(self, state) -> None:
        self.states_seen += 1
        # Integrity constraints are never batched: their evaluators must be
        # current at the next attempts_to_commit.
        for reg in self._ics.values():
            reg.evaluator.step(state)
            reg.stats.evaluations += 1
        self._batch.append(state)
        if self._obs_on:
            self._m_states.inc()
            self._m_batch.set(len(self._batch))
        if len(self._batch) >= self.batch_size and not getattr(
            self.engine, "in_batch", False
        ):
            self.flush()

    def _on_batch_end(self) -> None:
        """The engine finished a group commit (states durable): process
        everything that was held back while the batch was open."""
        if len(self._batch) >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Process any batched states now (Section 8: batched invocation
        delays firing but never loses it)."""
        batch, self._batch = self._batch, []
        for state in batch:
            self._step_triggers(state)
        if self.executed_retention is not None and batch:
            horizon = batch[-1].timestamp - self.executed_retention
            self.executed.discard_before(horizon)
        if self._obs_on:
            self._m_batch.set(len(self._batch))
            self._m_state_size.set(self.total_state_size())
            self._m_executed.set(len(self.executed))
            self._m_firing_log.set(len(self._firings))

    def _ordered_rules(self) -> list[_RegisteredRule]:
        """Registration order, stably re-ordered by descending priority."""
        return sorted(
            self._rules.values(), key=lambda reg: -reg.rule.priority
        )

    def _step_triggers(self, state) -> None:
        obs = self._obs_on
        to_execute: list[tuple[Rule, dict]] = []
        names = state.event_names()
        if self.plan is not None and self.plan.rule_names():
            # One shared evaluation pass for all plan-backed rules, even
            # when relevance filtering skips reading some results below
            # (shared temporal state must see every state).
            self.plan.step(state)
        for reg in self._ordered_rules():
            rule = reg.rule
            if rule.relevant_events is not None and not (
                rule.relevant_events & names
            ):
                reg.stats.skips += 1
                if obs:
                    reg.m_skips.inc()
                continue
            if obs:
                t0 = perf_counter()
                bindings = reg.step(state)
                reg.m_eval_seconds.observe(perf_counter() - t0)
            else:
                bindings = reg.step(state)
            for binding in bindings:
                reg.stats.firings += 1
                self._firings.append(
                    rule.name,
                    tuple(sorted(binding.items(), key=lambda kv: kv[0])),
                    state.index,
                    state.timestamp,
                    rule.shadow,
                )
                if obs:
                    reg.m_firings.inc()
                    self.trace.emit(
                        SHADOW_FIRING if rule.shadow else FIRING,
                        timestamp=state.timestamp,
                        rule=rule.name,
                        state_index=state.index,
                        bindings=dict(binding),
                    )
                if rule.shadow:
                    # Shadow deployment: the firing is observable above,
                    # but the action and the executed-store record are
                    # both suppressed — a shadow rule cannot perturb
                    # live behaviour (other rules' executed() atoms).
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
                    MONITOR,
                    timestamp=ts,
                    monitor=monitor.name,
                    verdict=verdict,
                )

    def _execute(self, rule: Rule, binding: dict, state) -> None:
        rec = None
        read = self._read_rules
        if read is None or rule.name in read:
            params = tuple(binding.get(p) for p in rule.params)
            rec = self.executed.record(rule.name, params, state.timestamp)
        if self._replaying or rule.name in self._quarantined:
            return
        ctx = ActionContext(self.engine, binding, state, rule.name)
        if (
            not self._obs_on
            and not self.isolate_action_failures
            and self.action_retries == 0
        ):
            rule.action.execute(ctx)
            return
        failure = None
        for attempt in range(self.action_retries + 1):
            try:
                t0 = perf_counter()
                rule.action.execute(ctx)
                failure = None
                break
            except Exception as exc:
                # Exception, never BaseException: a simulated (or real)
                # crash must tear through, not be retried or isolated.
                failure = exc
                if attempt < self.action_retries and self._obs_on:
                    self.metrics.counter(
                        "action_retries_total", rule=rule.name
                    ).inc()
        if failure is None:
            if self._obs_on:
                elapsed = perf_counter() - t0
                reg = self._rules.get(rule.name)
                if reg is not None:
                    reg.m_action_seconds.observe(elapsed)
                self.trace.emit(
                    ACTION,
                    timestamp=state.timestamp,
                    rule=rule.name,
                    coupling=rule.coupling.value,
                    seconds=elapsed,
                )
            return
        self._record_action_failure(rule, rec, state, failure)
        if not self.isolate_action_failures:
            raise failure

    def _record_action_failure(self, rule, rec, state, failure) -> None:
        if rec is not None:
            self.executed.mark_failed(rec)
        count = self._action_failures.get(rule.name, 0) + 1
        self._action_failures[rule.name] = count
        quarantined = (
            self.quarantine_after is not None
            and count >= self.quarantine_after
            and self.isolate_action_failures
        )
        if quarantined:
            self._quarantined.add(rule.name)
        if self._obs_on:
            self.metrics.counter(
                "action_failures_total", rule=rule.name
            ).inc()
            self._m_quarantined.set(len(self._quarantined))
            self.trace.emit(
                ACTION_FAILURE,
                timestamp=state.timestamp,
                rule=rule.name,
                coupling=rule.coupling.value,
                error=str(failure),
                failures=count,
                quarantined=quarantined,
            )

    def quarantined_rules(self) -> list[str]:
        """Rules whose actions are suspended after repeated failures."""
        return sorted(self._quarantined)

    def reinstate_rule(self, name: str) -> None:
        """Lift a rule's quarantine and reset its failure count.
        Unknown or never-quarantined names raise
        :class:`UnknownRuleError` (a silent no-op here would mask a
        misspelled operator command)."""
        if name not in self._quarantined:
            raise UnknownRuleError(f"rule {name!r} is not quarantined")
        self._quarantined.discard(name)
        self._action_failures.pop(name, None)
        if self._obs_on:
            self._m_quarantined.set(len(self._quarantined))

    def run_pending(self) -> int:
        """Execute queued T-C-A actions; returns how many ran."""
        pending, self._pending_actions = self._pending_actions, []
        for rule, binding, state in pending:
            self._execute(rule, binding, state)
        if self._obs_on:
            self._m_pending.set(0)
        return len(pending)

    # ------------------------------------------------------------------
    # Checkpoint serialization (crash recovery)
    # ------------------------------------------------------------------

    def _in_shared_plan(self, reg: _RegisteredRule) -> bool:
        """Whether the rule's state lives in the manager's shared plan
        (as opposed to a private evaluator of its own)."""
        return (
            self.plan is not None
            and getattr(reg.evaluator, "plan", None) is self.plan
        )

    @staticmethod
    def _fingerprints(registered: dict) -> dict:
        return {
            name: rule_fingerprint(reg.rule.condition)
            for name, reg in registered.items()
        }

    @staticmethod
    def _encode_pairs(pairs) -> list:
        from repro.ptl.constraints import encode_value

        return [[k, encode_value(v)] for k, v in pairs]

    @staticmethod
    def _decode_pairs(payload) -> tuple:
        from repro.ptl.constraints import decode_value

        return tuple((k, decode_value(v)) for k, v in payload)

    def to_state(self) -> dict:
        """Serialize the temporal component for a recovery checkpoint.

        Everything needed to resume monitoring is captured: evaluator
        states (through the shared plan or per rule), the executed store,
        firing records, per-rule rising-edge memory, queued T-C-A actions,
        and the failure-isolation bookkeeping.  The manager must be
        quiescent — no batched or queued states (call :meth:`flush`
        first).  Restore into a freshly built manager with the *same*
        rules registered (see :meth:`from_state`)."""
        if self._monitors:
            raise RecoveryError(
                "future-obligation monitors are not checkpointable"
            )
        if self._batch or self._queue:
            raise RecoveryError(
                "cannot checkpoint with batched states pending; flush() first"
            )
        rules = {}
        for name, reg in self._rules.items():
            if isinstance(reg.evaluator, RewrittenEvaluator):
                raise RecoveryError(
                    f"rule {name!r} uses rewrite_aggregates; rewritten "
                    "evaluators are not checkpointable (their generated "
                    "item names are process-local) — use the direct "
                    "aggregate pipeline"
                )
            entry = {
                "prev": [
                    self._encode_pairs(t) for t in sorted(reg._prev_bindings)
                ],
                "stats": [
                    reg.stats.evaluations,
                    reg.stats.skips,
                    reg.stats.firings,
                ],
                # Normalized-condition fingerprint + lifecycle facts: the
                # drift-tolerant restore path matches rules on these.
                "formula": rule_fingerprint(reg.rule.condition),
                "birth": reg.birth,
                "shadow": reg.rule.shadow,
            }
            if not self._in_shared_plan(reg):
                entry["evaluator"] = reg.evaluator.to_state()
            rules[name] = entry
        return {
            "states_seen": self.states_seen,
            "executed": self.executed.to_state(),
            "firings": [
                [
                    f.rule,
                    self._encode_pairs(f.bindings),
                    f.state_index,
                    f.timestamp,
                    f.shadow,
                ]
                for f in self._firings
            ],
            "rules": rules,
            "plan": (
                self.plan.to_state()
                if self.plan is not None and self.plan.rule_names()
                else None
            ),
            "ics": {
                name: {
                    "evaluator": reg.evaluator.to_state(),
                    "stats": [
                        reg.stats.evaluations,
                        reg.stats.skips,
                        reg.stats.firings,
                    ],
                    "formula": rule_fingerprint(reg.rule.condition),
                }
                for name, reg in self._ics.items()
            },
            "pending": [
                [
                    rule.name,
                    self._encode_pairs(sorted(binding.items())),
                    state.index,
                    state.timestamp,
                ]
                for rule, binding, state in self._pending_actions
            ],
            "action_failures": dict(self._action_failures),
            "quarantined": sorted(self._quarantined),
        }

    def from_state(self, payload: dict, strict: bool = True) -> dict:
        """Restore a checkpoint taken by :meth:`to_state`.

        The rules must already be re-registered on this manager and the
        engine must be at the checkpointed state — recovery rebuilds both
        before calling this.  With ``strict=True`` any rule-set drift
        (names or conditions) raises
        :class:`~repro.errors.RecoveryError`.  With
        ``strict=False`` the *intersection* is restored: rules in both
        the checkpoint and the registration (same condition) get their
        state back — including their checkpointed shadow flag, which wins
        over the re-registration's; rules only registered now start
        fresh at the checkpoint position (a hot add across the crash);
        checkpointed rules no longer registered are dropped along with
        their queued actions.  Returns ``{"added", "dropped",
        "changed"}`` name lists (all empty on a strict restore)."""
        from repro.history.state import SystemState

        if self._monitors:
            raise RecoveryError(
                "future-obligation monitors are not checkpointable"
            )
        ck_rules = payload["rules"]
        ck_ics = payload["ics"]
        # Triggers and integrity constraints drift separately: a name
        # that moved from one kind to the other is dropped and added.
        drift = rule_drift(
            {name: entry["formula"] for name, entry in ck_rules.items()},
            self._fingerprints(self._rules),
            strict,
        )
        ic_drift = rule_drift(
            {name: entry["formula"] for name, entry in ck_ics.items()},
            self._fingerprints(self._ics),
            strict,
        )
        drift = {key: sorted(drift[key] + ic_drift[key]) for key in drift}
        changed_set = set(drift["changed"])
        plan_state = payload["plan"]
        if plan_state is not None and self.plan is None:
            raise RecoveryError(
                "checkpoint used a shared plan; manager has shared_plan=False"
            )
        self.states_seen = payload["states_seen"]
        self.executed.from_state(payload["executed"])
        # Records of rules no registered condition reads are not kept.
        self.executed.keep_only(self._read_rules)
        self._firings = FiringLog()
        for rule, bindings, index, ts, shadow in payload["firings"]:
            self._firings.append(
                rule, self._decode_pairs(bindings), index, ts, shadow
            )
        if plan_state is not None:
            self.plan.from_state(plan_state, strict=strict)
        for name, reg in self._rules.items():
            entry = ck_rules.get(name)
            if entry is None or name in changed_set:
                # Hot-added (or redefined) across the crash: the
                # evaluator starts fresh at the checkpoint position.
                continue
            reg._prev_bindings = frozenset(
                self._decode_pairs(t) for t in entry["prev"]
            )
            ev, sk, fi = entry["stats"]
            reg.stats.evaluations, reg.stats.skips, reg.stats.firings = ev, sk, fi
            reg.birth = entry["birth"]
            reg.rule.shadow = bool(entry["shadow"])
            if reg.rule.shadow and reg.m_shadow_firings is None:
                reg.m_shadow_firings = self.metrics.counter(
                    "shadow_firings_total", rule=name
                )
            if ("evaluator" in entry) == self._in_shared_plan(reg):
                raise RecoveryError(
                    f"rule {name!r} changed between plan-backed and "
                    "independent evaluation since the checkpoint"
                )
            if "evaluator" in entry:
                reg.evaluator.from_state(entry["evaluator"])
        for name, reg in self._ics.items():
            entry = ck_ics.get(name)
            if entry is None or name in changed_set:
                continue
            reg.evaluator.from_state(entry["evaluator"])
            ev, sk, fi = entry["stats"]
            reg.stats.evaluations, reg.stats.skips, reg.stats.firings = ev, sk, fi
        self._pending_actions = []
        for name, binding, index, ts in payload["pending"]:
            if name not in self._rules:
                if strict:
                    raise RecoveryError(
                        f"pending action for unknown rule {name!r}"
                    )
                continue  # the rule was dropped; its queued actions go too
            # The original SystemState is gone; a queued detached action
            # gets the current committed database under the firing's
            # timestamp/index identity.
            stub = SystemState(
                self.engine.db.state, (), ts, index=index
            )
            self._pending_actions.append(
                (self._rules[name].rule, dict(self._decode_pairs(binding)), stub)
            )
        failures = dict(payload["action_failures"])
        quarantined = set(payload["quarantined"])
        if not strict:
            known = set(self._rules) | set(self._ics)
            failures = {k: v for k, v in failures.items() if k in known}
            quarantined &= known
        self._action_failures = failures
        self._quarantined = quarantined
        if self._obs_on:
            self._m_pending.set(len(self._pending_actions))
            self._m_quarantined.set(len(self._quarantined))
            self._m_shadow.set(len(self.shadow_rules()))
            self._m_state_size.set(self.total_state_size())
        return drift

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def firings(self) -> list[FiringRecord]:
        return self._firings.records()

    @property
    def firing_count(self) -> int:
        return len(self._firings)

    def firings_since(self, start: int) -> list[FiringRecord]:
        """The firing log from position ``start`` on, without building
        records for what precedes it."""
        return self._firings.records(start)

    def firings_of(self, rule: str) -> list[FiringRecord]:
        return self._firings.records_of(rule)

    def stats_of(self, rule: str) -> RuleStats:
        if rule in self._rules:
            return self._rules[rule].stats
        if rule in self._ics:
            return self._ics[rule].stats
        raise UnknownRuleError(f"no rule named {rule!r}")

    def explain_firing(self, record: FiringRecord, rendered: bool = False):
        """Why did this firing happen?  Re-evaluates the rule's condition
        at the firing's history position with the reference semantics and
        returns the witness proof tree (:mod:`repro.ptl.explain`).

        ``record`` is a :class:`FiringRecord` — e.g. taken from
        :attr:`firings` or located from a ``firing`` trace event's
        ``rule``/``state_index`` fields.  Needs ``keep_history=True`` on
        the engine.  With ``rendered=True`` returns the indented ✓/✗ text.
        """
        from repro.ptl.explain import explain, render

        history = self.engine.history
        if history is None:
            raise HistoryError("explain_firing needs keep_history=True")
        if record.rule in self._rules:
            reg = self._rules[record.rule]
        elif record.rule in self._ics:
            reg = self._ics[record.rule]
        else:
            raise UnknownRuleError(f"no rule named {record.rule!r}")
        states = history.states
        if not (0 <= record.state_index < len(states)):
            raise HistoryError(
                f"state index {record.state_index} outside the kept history"
            )
        ctx = EvalContext(executed=self.executed)
        explanation = explain(
            states[: record.state_index + 1],
            record.state_index,
            reg.rule.condition,
            env=dict(record.bindings),
            ctx=ctx,
        )
        return render(explanation) if rendered else explanation

    def total_state_size(self) -> int:
        """Retained evaluator state across all rules.  Plan-backed rules
        are counted once through the shared plan (their state *is*
        shared); independent evaluators and ICs add their own."""
        total = 0
        plan_counted = False
        for reg in list(self._rules.values()) + list(self._ics.values()):
            if not self._in_shared_plan(reg):
                total += reg.evaluator.state_size()
            elif not plan_counted:
                total += self.plan.state_size()
                plan_counted = True
        return total

    def detach(self) -> None:
        """Unsubscribe from the engine (rules stop being evaluated)."""
        self._subscription.cancel()
        listeners = getattr(self.engine, "batch_listeners", None)
        if listeners is not None and self._batch_listener in listeners:
            listeners.remove(self._batch_listener)


#: The paper's name for this component.
TemporalComponent = RuleManager
