"""The rule manager — the paper's *temporal component* (Sections 3, 8).

"Whenever an event occurs the database management system invokes the
temporal component, i.e. a system that executes the temporal condition
evaluation algorithm for each trigger."  The manager:

* compiles every condition — each trigger's and each integrity
  constraint's — into one :class:`~repro.ptl.plan.SharedPlan`, and steps
  that plan once per state, in commit order;
* enforces integrity constraints at the ``attempts_to_commit`` event by
  *trial evaluation*: a commit's validation is its state's one step — the
  plan steps the candidate, and the commit is vetoed when an IC root
  (``attempts_to_commit(X) & !c``) fires; the step is kept when that
  candidate is published and rolled back otherwise;
* *settles* each stepped state in commit order — reads the triggers'
  results and the future monitors' atoms (roots of the same plan), writes
  execution records and holds what fired — at its delivery by the
  engine's event bus, or at the next commit's validation when that comes
  first;
* executes trigger actions according to their coupling mode, records
  the executions some live condition reads in the ``executed`` store
  (Section 7), and garbage-collects records past their retention;
* implements the Section 8 optimizations: *relevance filtering* (rules
  considered only when their events occur — automatically inferred only
  for stateless, event-guarded conditions, where it is sound, and the
  plan computes such a condition only for a rule considered) and
  *batched invocation* ("trigger firing may be delayed, but not go
  unrecognized"): ``batch_size`` and an open ``engine.batch()`` delay
  what a firing puts out — its firing-log entry, trace and counters, and
  its action — never the position at which its condition was evaluated.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Mapping, Optional, Sequence, Union

from repro._intern import EMPTY, small
from repro._value import Value
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
from repro.ptl.context import EvalContext, ExecutedStore
from repro.ptl.parser import parse_formula
from repro.ptl.plan import SharedPlan, rule_drift, rule_fingerprint
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
    """A future-obligation monitor whose atoms are on the manager's plan."""

    __slots__ = (
        "name",
        "formula",
        "monitor",
        "on_satisfied",
        "on_violated",
        "respawn",
        "resolutions",
    )

    def __init__(self, name, formula, plan, on_satisfied, on_violated, respawn):
        from repro.ptl.future import FutureMonitor

        self.name = name
        self.formula = formula
        self.monitor = FutureMonitor(formula, plan=plan, name=name)
        self.on_satisfied = on_satisfied
        self.on_violated = on_violated
        self.respawn = respawn
        #: (verdict, timestamp) per resolution.
        self.resolutions: list[tuple[str, int]] = []

    @property
    def reads(self) -> frozenset:
        """Rules whose executions the atoms read (none once released)."""
        return frozenset(
            sub.rule
            for atom in self.monitor.atoms
            for sub in ast.walk(atom)
            if isinstance(sub, ast.ExecutedAtom)
        )

    def renew(self) -> None:
        """After a resolution, a respawning monitor starts a fresh
        obligation, whose atoms' operators start with the next state."""
        if self.respawn:
            from repro.ptl.future import FutureMonitor

            self.monitor = FutureMonitor(
                self.formula, plan=self.monitor.plan, name=self.name
            )

    def resolve(self, verdict, state, engine) -> None:
        """Record a resolution and run its callback action."""
        from repro.ptl.future import Verdict

        self.resolutions.append((verdict.value, state.timestamp))
        callback = (
            self.on_satisfied
            if verdict is Verdict.SATISFIED
            else self.on_violated
        )
        if callback is not None:
            callback.execute(ActionContext(engine, {}, state, self.name))


class RuleStats(Value, frozen=False):
    __slots__ = ("evaluations", "skips", "firings")

    evaluations: int
    skips: int
    firings: int

    def __init__(self, evaluations: int = 0, skips: int = 0, firings: int = 0):
        self.evaluations = evaluations
        self.skips = skips
        self.firings = firings


class _RegisteredRule:
    __slots__ = (
        "rule",
        "stats",
        "_prev_bindings",
        "gate",
        "birth",
        "reads",
        "m_firings",
        "m_eval_seconds",
        "m_action_seconds",
        "m_skips",
        "m_shadow_firings",
    )

    def __init__(self, rule: Rule, registry=None, birth: int = 0):
        self.rule = rule
        self.stats = RuleStats()
        self._prev_bindings: frozenset = EMPTY
        #: Event atoms the condition conjoins, when it is stateless
        #: (:func:`~repro.ptl.plan.infer_relevant_events` of the plan's
        #: normalized condition); else None.
        self.gate: Optional[frozenset[str]] = None
        #: ``states_seen`` at registration — a hot-added rule's firings
        #: can only start here (recorded in checkpoints).
        self.birth = birth
        #: Rules whose executions the condition reads.
        self.reads = small(
            frozenset(
                sub.rule
                for sub in ast.walk(rule.condition)
                if isinstance(sub, ast.ExecutedAtom)
            )
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

    def fire(self, result) -> list[dict]:
        """The bindings of ``result``, the condition's at this state, that
        actually fire under the rule's fire mode (rising edge: only
        bindings absent from the previous state's binding set)."""
        self.stats.evaluations += 1
        if not result.fired:
            self._prev_bindings = EMPTY
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
        isolate_action_failures: bool = False,
        action_retries: int = 0,
        quarantine_after: Optional[int] = 3,
    ):
        """``metrics`` is ``None`` (inherit the engine's registry — the
        no-op registry unless the engine was built with one), ``True``, or
        a :class:`~repro.obs.metrics.MetricsRegistry`; ``trace`` likewise
        resolves to a :class:`~repro.obs.trace.TraceSink`.

        Every condition — triggers and integrity constraints alike — is a
        root of one :class:`~repro.ptl.plan.SharedPlan` with
        common-subformula elimination, so overlapping conditions are
        evaluated once per state instead of once per rule.  The plan steps
        each state once, in index order.  A commit's state is stepped at
        ``attempts_to_commit``, where the IC roots judge the candidate; the
        step is kept when the candidate is published and rolled back when
        the commit is vetoed or refused.  Any other state is stepped when
        it is delivered.

        ``batch_size`` > 1 holds the outputs of that many states —
        firing-log entries with their traces and counters, and actions —
        before releasing them (:meth:`flush`); conditions still step every
        state at its own position.

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
        self.plan = SharedPlan(
            EvalContext(executed=self.executed), metrics=self.metrics
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

        #: Triggers and integrity constraints, by name.
        self._rules: dict[str, _RegisteredRule] = {}
        self._monitors: dict[str, _RegisteredMonitor] = {}
        self._firings = FiringLog()
        #: Rules whose executions are recorded: those an ``executed``
        #: atom of a live trigger (shadow ones too), integrity constraint
        #: or future monitor reads.  See :meth:`_derive_readers`.
        self._read_rules: frozenset[str] = EMPTY
        self._pending_actions: list[tuple[Rule, dict, Any]] = []
        #: Per settled state with firings or monitor resolutions, what
        #: they put out: ``(state, [(reg, binding, record)], [(monitor,
        #: verdict)])``, released in order by :meth:`flush` once the
        #: state is delivered.
        self._outputs: list = []
        #: Delivered states whose outputs are not released yet, and the
        #: newest delivered state (its time is the retention horizon's
        #: base).
        self._held = 0
        self._delivered = None
        self._validator_installed = False
        #: (triggers in evaluation order, integrity constraints)
        #: (:meth:`_ordered_rules`); None = re-sort.
        self._ordered: Optional[tuple[list, list]] = None
        #: The candidate the plan last stepped at a commit's validation and
        #: the plan's snapshot from before that step, until the candidate
        #: is settled or the step rolled back.
        self._trial: Optional[tuple] = None
        #: Index of the newest settled state.
        self._settled = engine.state_count - 1
        self.states_seen = 0
        #: Consecutive-failure count per rule and the quarantined set.
        self._action_failures: dict[str, int] = {}
        self._quarantined: set[str] = set()
        #: True while crash recovery replays the WAL tail: firings and
        #: execution records are reproduced, actions are suppressed (they
        #: already ran — or deliberately never will — before the crash).
        self._replaying = False

        self._subscription = engine.bus.subscribe(self._on_state)
        # Group-commit hook: while the engine holds a batch open, outputs
        # are held; the engine calls back (post-fsync) when the batch is
        # durable.
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

    def _rule_context(self, domains: Mapping) -> Optional[EvalContext]:
        """A rule's evaluation context: its own for a rule with domains;
        None (the plan's, which every other rule shares) otherwise."""
        if not domains:
            return None
        return EvalContext(executed=self.executed, domains=domains)

    def _parse_domains(self, domains) -> dict:
        out = {}
        for name, spec in (domains or {}).items():
            if isinstance(spec, str):
                spec = parse_query(spec)
            out[name] = spec
        return out

    def _lifecycle_sync(self, op: str, name: str) -> None:
        """Release held outputs before a rule-base change, so every firing
        already evaluated is logged and acted on under the rule base it
        fired in.  Inside an open engine ingest batch the held states are
        not yet durable (WAL-before-actions), so a change there is
        rejected rather than flushed early.  An unsettled trial step is
        rolled back: no root may compile at an abandoned epoch."""
        if self._held and getattr(self.engine, "in_batch", False):
            raise RuleError(
                f"cannot {op} rule {name!r} inside an open ingest batch "
                "(states pending group commit); close the batch first"
            )
        if self._held:
            self.flush()
        self._undo_trial()

    def _derive_readers(self) -> None:
        """Recompute which rules' executions are recorded, and drop the
        records of rules that lost their last reader.  A condition added
        hot therefore sees the executions recorded since some live
        condition first read that rule — none, for a rule nobody read,
        exactly as on a fresh engine."""
        read = EMPTY.union(
            *[reg.reads for reg in self._rules.values()],
            *[mon.reads for mon in self._monitors.values()],
        ) or EMPTY
        previous, self._read_rules = self._read_rules, read
        if previous - read:
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
        if name in self._rules or name in self._monitors:
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
            priority=priority,
            shadow=shadow,
        )
        registered = _RegisteredRule(
            rule, registry=self.metrics, birth=self.states_seen
        )
        registered.gate = self.plan.add_rule(
            name, formula, self._rule_context(domain_map)
        )
        if rule.relevant_events is None and self.relevance_filtering:
            rule.relevant_events = registered.gate
        self._rules[name] = registered
        self._ordered = None
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
        are aborted.  The condition is a root of the manager's plan, like
        a trigger's; it starts from "now" when added to a live manager."""
        if name in self._rules or name in self._monitors:
            raise DuplicateRuleError(f"rule {name!r} already registered")
        formula = self._parse_condition(constraint)
        domain_map = self._parse_domains(domains)
        rule = make_integrity_constraint(name, formula)
        check_safety(rule.condition, domain_map.keys())
        self._undo_trial()
        self.plan.add_rule(
            name, rule.condition, self._rule_context(domain_map)
        )
        self._rules[name] = _RegisteredRule(
            rule, registry=self.metrics, birth=self.states_seen
        )
        self._ordered = None
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
        (``"always (!@req | eventually[5] @ack)"``).  Its atoms are roots
        of the manager's plan, starting from "now".  The matching
        callback action runs when the obligation resolves; with
        ``respawn=True`` a fresh monitor, with fresh atoms, starts at the
        next state (continuous enforcement)."""
        from repro.ptl.future import FFormula
        from repro.ptl.future_parser import parse_future_formula

        if name in self._rules or name in self._monitors:
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
        self._undo_trial()
        registered = _RegisteredMonitor(
            name,
            formula,
            self.plan,
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
        on a live manager: held outputs are released first, then the
        rule's evaluator state (including its share of the plan DAG) is
        released, its queued detached actions are dropped, and its
        quarantine bookkeeping is cleared.  Past firings stay; so do
        execution records, unless this rule was the last condition
        reading them."""
        self._unregister(name)
        self._derive_readers()

    def _unregister(self, name: str) -> None:
        """:meth:`remove_rule` short of recomputing the reader set."""
        if name not in self._rules and name not in self._monitors:
            raise UnknownRuleError(f"no rule named {name!r}")
        self._lifecycle_sync("remove", name)
        if name in self._rules:
            del self._rules[name]
            self._ordered = None
            self.plan.remove_rule(name)
            self._pending_actions = [
                p for p in self._pending_actions if p[0].name != name
            ]
        else:
            self._monitors.pop(name).monitor.release()
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
        reg = self._rules.get(name)
        if reg is None or reg.rule.is_integrity_constraint:
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
        reg = self._rules.get(name)
        if reg is None or reg.rule.is_integrity_constraint:
            raise UnknownRuleError(f"no trigger named {name!r}")
        self._lifecycle_sync("promote", name)
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
        return sorted(list(self._rules) + list(self._monitors))

    # ------------------------------------------------------------------
    # Integrity-constraint enforcement (trial evaluation)
    # ------------------------------------------------------------------

    def _validate(self, candidate, txn) -> list[str]:
        """Judge the commit candidate by the plan's step for that state.
        States published ahead of it and not settled yet — an action that
        commits twice — are settled first, in commit order, and a trial
        whose candidate was never published is rolled back; then the plan
        steps the candidate and the IC roots are read.  The step is kept
        if the candidate is published (:meth:`_step`)."""
        ics = self._ordered_rules()[1]
        if not ics:
            return []
        for state in self.engine.bus.pending:
            if state.index > self._settled:
                self._step(state)
        self._undo_trial()
        self._trial = (candidate, self.plan.snapshot())
        self.plan.step(candidate)
        violations = []
        for reg in ics:
            name = reg.rule.name
            if self.plan.result_of(name).fired:
                violations.append(f"integrity constraint {name!r} violated")
                txn.vetoes += ((name, candidate.index, candidate.timestamp),)
                if self._obs_on:
                    self.metrics.counter(
                        "ic_violations_total", rule=name
                    ).inc()
                    self.trace.emit(
                        IC_VIOLATION,
                        timestamp=candidate.timestamp,
                        rule=name,
                        txn=txn.id,
                        state_index=candidate.index,
                    )
        return violations

    def _undo_trial(self) -> None:
        """Roll the plan back from a trial step that is not settled yet
        (a commit the disk refused; before the rule base or the plan's
        state changes)."""
        if self._trial is not None:
            self.plan.restore(self._trial[1])
            self._trial = None

    def _step(self, state) -> None:
        """Step and settle ``state``, the next published state.  A pending
        trial is kept when ``state`` is its candidate — the engine
        publishes the candidate object itself — and rolled back otherwise
        (a veto, a commit the disk refused, another validator's veto)."""
        if self._trial is not None and self._trial[0] is state:
            self._trial = None
        else:
            self._undo_trial()
            if self._rules or self._monitors:
                self.plan.step(state)
        self._settle(state)

    # ------------------------------------------------------------------
    # State processing
    # ------------------------------------------------------------------

    def _on_state(self, state) -> None:
        """A state is delivered: settle it, unless the next commit's
        validation already has, and hold what its firings put out until
        ``batch_size`` states are held outside an engine batch."""
        if state.index > self._settled:
            self._step(state)
        self._held += 1
        self._delivered = state
        if self._obs_on:
            self._m_states.inc()
            self._m_batch.set(self._held)
        if self._held >= self.batch_size and not getattr(
            self.engine, "in_batch", False
        ):
            self.flush()

    def _on_batch_end(self) -> None:
        """The engine finished a group commit (states durable): release
        what was held while the batch was open."""
        if self._held >= self.batch_size:
            self.flush()

    def flush(self) -> None:
        """Release the delayed outputs of every held state, in state
        order: firing-log entries with their traces and counters, then
        actions (Section 8: batched invocation delays firing but never
        loses it).  The conditions already stepped each state at its own
        position; states the actions commit are delivered after the
        release, in commit order."""
        self.engine.bus.hold(self._release_held)

    def _release_held(self) -> None:
        held, self._held = self._held, 0
        if held:
            newest = self._delivered
            if self.executed_retention is not None:
                # Before the actions: a state they commit is stepped at
                # its validation and reads the store its delivery would.
                self.executed.discard_before(
                    newest.timestamp - self.executed_retention
                )
            # Outputs of states settled ahead of their delivery wait for it.
            outputs = self._outputs
            while outputs and outputs[0][0].index <= newest.index:
                self._release(*outputs.pop(0))
        if self._obs_on:
            self._m_batch.set(0)
            self._m_state_size.set(self.total_state_size())
            self._m_executed.set(len(self.executed))
            self._m_firing_log.set(len(self._firings))

    def _ordered_rules(self) -> tuple[list, list]:
        """The triggers in registration order, stably re-ordered by
        descending priority, and the integrity constraints."""
        if self._ordered is None:
            triggers, ics = [], []
            for reg in sorted(
                self._rules.values(), key=lambda reg: -reg.rule.priority
            ):
                kind = ics if reg.rule.is_integrity_constraint else triggers
                kind.append(reg)
            self._ordered = (triggers, ics)
        return self._ordered

    def _settle(self, state) -> None:
        """Read the triggers' results at ``state`` (the plan has stepped
        it; a gated stateless root is computed only if its rule is
        considered) and the future monitors' atoms, complete the plan's
        step, and hold what fired.  Execution records are written here,
        once every condition has read this state, so the next state's
        conditions see them however long the action itself is delayed."""
        self.states_seen += 1
        self._settled = state.index
        obs = self._obs_on
        fired: list[list] = []  # [reg, binding, execution record]
        names = state.event_names()
        triggers, ics = self._ordered_rules()
        for reg in ics:
            reg.stats.evaluations += 1
        for reg in triggers:
            rule = reg.rule
            if (
                rule.relevant_events is not None
                and rule.relevant_events.isdisjoint(names)
            ):
                reg.stats.skips += 1
                if obs:
                    reg.m_skips.inc()
                if reg.gate is not None and not reg.gate <= names:
                    # The condition is false here, as evaluating it would
                    # find: a firing at the next considered state is a
                    # rising edge.
                    reg._prev_bindings = EMPTY
                continue
            if obs:
                t0 = perf_counter()
                bindings = reg.fire(self._result_of(reg, state))
                reg.m_eval_seconds.observe(perf_counter() - t0)
            else:
                bindings = reg.fire(self._result_of(reg, state))
            for binding in bindings:
                fired.append([reg, binding, None])
        resolved = []
        for monitor in self._monitors.values():
            verdict = monitor.monitor.advance(state)
            if verdict is not None:
                resolved.append((monitor, verdict))
        self.plan.complete()
        for monitor, _ in resolved:
            monitor.renew()
        if any(not monitor.respawn for monitor, _ in resolved):
            self._derive_readers()
        for entry in fired:
            rule = entry[0].rule
            # A shadow rule's firing enters no executed record: it cannot
            # perturb live behaviour (other rules' executed() atoms).
            if not rule.shadow and rule.coupling is CouplingMode.T_CA:
                entry[2] = self._record(rule, entry[1], state)
        if fired or resolved:
            self._outputs.append((state, fired, resolved))

    def _result_of(self, reg, state):
        """The trigger's result at ``state``, the plan's current state."""
        return self.plan.result_of(reg.rule.name)

    def _release(self, state, fired, resolved) -> None:
        """Put out what fired at ``state``: its firing-log entries, traces
        and counters, then its T-CA actions (T-C-A ones are queued for
        :meth:`run_pending`), then its monitor callbacks."""
        obs = self._obs_on
        to_execute = []
        for reg, binding, rec in fired:
            rule = reg.rule
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
                # Shadow deployment: the firing is observable above, but
                # the action is suppressed.
                if reg.m_shadow_firings is not None:
                    reg.m_shadow_firings.inc()
                continue
            if rule.coupling is CouplingMode.T_CA:
                to_execute.append((rule, binding, rec))
            elif rule.coupling is CouplingMode.T_C_A:
                self._pending_actions.append((rule, binding, state))
        if obs:
            self._m_pending.set(len(self._pending_actions))
        for rule, binding, rec in to_execute:
            self._run_action(rule, binding, state, rec)
        for monitor, verdict in resolved:
            monitor.resolve(verdict, state, self.engine)
            if obs:
                self.metrics.counter(
                    "monitor_resolutions_total",
                    monitor=monitor.name,
                    verdict=verdict.value,
                ).inc()
                self.trace.emit(
                    MONITOR,
                    timestamp=state.timestamp,
                    monitor=monitor.name,
                    verdict=verdict.value,
                )

    def _record(self, rule: Rule, binding: dict, state):
        """The execution record of ``rule`` firing at ``state``, when some
        live condition reads ``rule``'s executions (else None)."""
        if rule.name in self._read_rules:
            params = tuple([binding.get(p) for p in rule.params])
            return self.executed.record(rule.name, params, state.timestamp)
        return None

    def _run_action(self, rule: Rule, binding: dict, state, rec) -> None:
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
            self._run_action(
                rule, binding, state, self._record(rule, binding, state)
            )
        if self._obs_on:
            self._m_pending.set(0)
        return len(pending)

    # ------------------------------------------------------------------
    # Checkpoint serialization (crash recovery)
    # ------------------------------------------------------------------

    @staticmethod
    def _encode_pairs(pairs) -> list:
        from repro.ptl.constraints import encode_value

        return [[k, encode_value(v)] for k, v in pairs]

    @staticmethod
    def _decode_pairs(payload) -> tuple:
        from repro.ptl.constraints import decode_value

        return tuple([(k, decode_value(v)) for k, v in payload])

    def to_state(self) -> dict:
        """Serialize the temporal component for a recovery checkpoint.

        Everything needed to resume monitoring is captured: the plan's
        state (every trigger's and IC's condition), the executed store,
        firing records, per-rule rising-edge memory, queued T-C-A actions,
        and the failure-isolation bookkeeping.  Every condition has
        stepped every delivered state, so the manager only has to be
        quiescent in its outputs — none held by batching (call
        :meth:`flush` first).  Restore into a freshly built manager with
        the *same* rules registered (see :meth:`from_state`)."""
        if self._monitors:
            raise RecoveryError(
                "future-obligation monitors are not checkpointable"
            )
        if self._held:
            raise RecoveryError(
                "cannot checkpoint with batched states pending; flush() first"
            )
        # A trial step not settled yet is not state.
        self._undo_trial()
        rules = {}
        for name, reg in self._rules.items():
            rules[name] = {
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
            "plan": self.plan.to_state() if self.plan.rule_names() else None,
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
        "changed"}`` name lists (all empty on a strict restore).

        An older checkpoint's ``"ics"`` section (each IC on a private
        plan) is read too: a stateless IC compiles fresh at the checkpoint
        epoch, which is exact; a stateful one is refused under
        ``strict=True`` and starts fresh (reported as added) otherwise."""
        from repro.history.state import SystemState

        if self._monitors:
            raise RecoveryError(
                "future-obligation monitors are not checkpointable"
            )
        ck_rules = dict(payload["rules"])
        private = sorted(n for n, e in ck_rules.items() if "evaluator" in e)
        if private:
            raise RecoveryError(
                f"triggers {private} were checkpointed with private "
                "evaluators (a per-rule manager); every trigger now runs "
                "on the manager's plan, so this checkpoint cannot be restored"
            )
        # Older commits: each IC on a private plan (see above).
        legacy = payload.get("ics", {})
        for name, entry in legacy.items():
            own = entry["evaluator"]["plan"]
            if own["temporal"] or own["aggregates"]:
                if strict:
                    raise RecoveryError(
                        f"integrity constraint {name!r} was checkpointed "
                        "with temporal state on a private plan, which the "
                        "manager's plan cannot take over; restore with "
                        "strict_rules=False to start it fresh"
                    )
                continue
            ck_rules[name] = {"prev": [], "birth": 0, "shadow": False, **entry}
        drift = rule_drift(
            {name: entry["formula"] for name, entry in ck_rules.items()},
            {
                name: rule_fingerprint(reg.rule.condition)
                for name, reg in self._rules.items()
            },
            strict,
        )
        changed_set = set(drift["changed"])
        plan_state = payload["plan"]
        self._undo_trial()
        self._settled = self.engine.state_count - 1
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
            # An old IC is not in the plan's section: it compiles fresh.
            self.plan.from_state(plan_state, strict=strict and not legacy)
        for name, reg in self._rules.items():
            entry = ck_rules.get(name)
            if entry is None or name in changed_set:
                # Hot-added (or redefined) across the crash: the
                # evaluator starts fresh at the checkpoint position.
                continue
            reg._prev_bindings = frozenset(
                self._decode_pairs(t) for t in entry["prev"]
            ) or EMPTY
            ev, sk, fi = entry["stats"]
            reg.stats.evaluations, reg.stats.skips, reg.stats.firings = ev, sk, fi
            reg.birth = entry["birth"]
            reg.rule.shadow = bool(entry["shadow"])
            if reg.rule.shadow and reg.m_shadow_firings is None:
                reg.m_shadow_firings = self.metrics.counter(
                    "shadow_firings_total", rule=name
                )
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
            known = set(self._rules)
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
        reg = self._rules.get(record.rule)
        if reg is None:
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
        """Retained evaluator state across all rules: the plan's, once
        (its state *is* shared)."""
        return self.plan.state_size()

    def detach(self) -> None:
        """Unsubscribe from the engine (rules stop being evaluated)."""
        self._subscription.cancel()
        listeners = getattr(self.engine, "batch_listeners", None)
        if listeners is not None and self._batch_listener in listeners:
            listeners.remove(self._batch_listener)


#: The paper's name for this component.
TemporalComponent = RuleManager
