"""Shared condition-evaluation plan: one DAG for all rules' conditions.

Section 5 maintains a state formula ``F_{g,i}`` per *subformula* g of a
trigger condition.  A rule base with many triggers over overlapping
conditions (the homogeneous ECA rule sets of practice) repeats the same
subformulas across rules, and evaluating each rule on its own
re-evaluates — and re-stores — each shared g once per rule.

:class:`SharedPlan` compiles every registered rule's condition (after
:func:`~repro.ptl.rewrite.normalize`) into a single node DAG with
*common-subformula elimination*: structurally identical subformulas map to
one compiled node, whose ``F_{g,i}`` is computed and stored exactly once
per update step, whatever the number of referencing rules.  Per-rule
differences stay at the edges:

* **firing**: each rule solves its own top-level formula against its own
  declared domains (:func:`repro.ptl.incremental.fire_result`);
* **query parameters**: a rule whose condition parameterizes queries
  (``price($x)``) is instantiated per domain combination — instantiated
  formulas still share nodes with every other rule (and instance) through
  the same cache.

Sharing is keyed so it is *sound*, not just syntactic:

* ``avail`` — the set of enclosing time-assigned variables visible with no
  temporal operator in between (it changes how windowed aggregates
  compile);
* the subformula's *prune set* — the rule's time-assigned variables
  restricted to the subformula's free variables.  Two rules may share g
  only if Section 5 pruning treats g's stored formula identically;
* the *birth epoch* — the plan step count before the node's first step:
  a rule registered between steps e and e+1, and a query-parameter
  instance the domains add at step e+1, are born at e.  A node added
  after the plan has started stepping must not inherit another rule's
  history-laden temporal state, so it only shares nodes born at the same
  epoch — nodes that have not stepped yet either.  Rules registered
  before the first step (the common case) all share.

A temporal aggregate's starting and sampling formulas (Section 6.1.1's
``r1: φ → initialize F``, ``r2: ψ → update F``) are conditions like any
other: they compile through the same cache under the same key, so a ψ that
also occurs in another rule's condition — or in five other aggregates — is
one node, stepped once per state.

The plan's state is one value (:class:`PlanValue`): the nodes hold none,
a step writes the next value from the committed one, and a capture
(:meth:`SharedPlan.snapshot`) is a reference to it.

A root is computed when its result is read; :meth:`SharedPlan.complete`
computes the roots nobody read and prunes, except that of a stateless
condition gated by an event atom (:func:`infer_relevant_events`), computed
only when read.  So Section 8's relevance filter reaches into the plan:
a rule the manager does not consider on a state costs nothing there, and
a trial step rolled back before it completes costs only what was read.

This is the one condition-evaluation backend: a standalone condition is
a plan holding one rule (:class:`IncrementalEvaluator`).  THEOREM 1
equivalence — one plan for all rules vs one plan per rule vs the
reference semantics (:mod:`repro.ptl.semantics`) — is differential-tested
in ``tests/test_shared_plan.py``.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from types import MappingProxyType
from typing import Iterator, NamedTuple, Optional

from repro._intern import EMPTY, singleton, small
from repro.errors import (
    DuplicateRuleError,
    EvaluationError,
    RecoveryError,
    UnknownRuleError,
    UnsafeFormulaError,
)
from repro.history.state import SystemState
from repro.obs.metrics import as_registry
from repro.ptl import ast
from repro.ptl import constraints as cs
from repro.ptl.context import EvalContext
from repro.ptl.incremental import (
    _FALSE_RESULT,
    FireResult,
    _Aggregate,
    _LasttimeNode,
    _MemoNode,
    _Node,
    _SinceNode,
    _TemporalMemo,
    build_node,
    children,
    decode_stored,
    encode_stored,
    fire_result,
    instantiate_formula,
    query_param_vars,
)
from repro.ptl.optimize import prune_time_bounds
from repro.ptl.rewrite import TIME_QUERY, normalize
from repro.ptl.values import UNDEFINED, eval_query_value
from repro.query import plan as qplan


def rule_fingerprint(condition: ast.Formula) -> str:
    """A condition's identity in a checkpoint: the text of its normal
    form.  A past-only condition is identified by what the evaluator
    stores for it, not by its surface syntax — ``previously f`` and
    ``true since f`` are the same rule on every backend."""
    return str(normalize(condition))


def rule_drift(checkpointed: dict, registered: dict, strict: bool) -> dict:
    """Compare two ``{rule name: fingerprint}`` maps.

    Returns the sorted name lists ``{"added", "dropped", "changed"}``:
    registered but not checkpointed, checkpointed but no longer
    registered, and present in both under a different fingerprint.  With
    ``strict`` any drift raises :class:`RecoveryError` instead."""
    added = sorted(set(registered) - set(checkpointed))
    dropped = sorted(set(checkpointed) - set(registered))
    changed = sorted(
        name
        for name in set(checkpointed) & set(registered)
        if checkpointed[name] != registered[name]
    )
    if strict and (added or dropped):
        raise RecoveryError(
            f"checkpointed rule set {sorted(checkpointed)} != registered "
            f"{sorted(registered)}"
        )
    if strict and changed:
        name = changed[0]
        raise RecoveryError(
            f"rule {name!r} condition differs from the checkpoint:\n"
            f"  checkpoint: {checkpointed[name]}\n"
            f"  registered: {registered[name]}"
        )
    return {"added": added, "dropped": dropped, "changed": changed}


def infer_relevant_events(formula: ast.Formula) -> Optional[frozenset[str]]:
    """Event names that gate a *stateless* condition.

    Sound only when the condition has no temporal operators or aggregates
    (its evaluator carries no state across steps, so skipping states
    cannot corrupt it) and is a conjunction with at least one top-level
    event atom (so states without those events cannot satisfy it).
    Returns None when filtering would be unsound.
    """
    temporal = (ast.Since, ast.Lasttime, ast.Previously, ast.ThroughoutPast)
    if any(isinstance(sub, temporal) for sub in ast.walk(formula)):
        return None
    if ast.aggregate_terms(formula):
        return None
    if isinstance(formula, ast.EventAtom):
        return singleton(formula.name)
    if isinstance(formula, ast.And):
        names = {
            c.name for c in formula.operands if isinstance(c, ast.EventAtom)
        }
        if names:
            return small(frozenset(names))
    return None


#: The node classes that store a formula between states.
_TEMPORAL = (_LasttimeNode, _SinceNode)

#: The instances of every ground rule (it has none).
_NO_INSTANCES = MappingProxyType({})

#: The (top, result) of a rule with no entry in the plan's value.
_NO_TOP = (cs.CFALSE, _FALSE_RESULT)


class PlanValue(NamedTuple):
    """A plan's whole state after one step — Section 5's ``F_{g,i}`` for
    every stored subformula g, as one value.  A step writes the next
    value; once :meth:`SharedPlan.complete` swaps it in, it changes only
    by entries added to ``tops`` that follow from it (a gated stateless
    root's result computed on its first read, a function of
    ``last_state``; a rule registered since, not fired), so a capture is
    a reference."""

    #: Plan step count.
    epoch: int
    #: The stepped state (None before the first step and after a load).
    last_state: Optional[SystemState]
    #: Temporal node -> stored formula (a ``Since`` that has not started,
    #: or a node not stepped yet, has no entry).
    stored: dict
    #: Aggregate -> accumulator F (:class:`_Aggregate`).
    accs: dict
    #: Rule name -> (top-level formula, :class:`FireResult`) of the rules
    #: computed at ``last_state``.
    tops: dict


_new_value = tuple.__new__


def _time_vars(formula: ast.Formula) -> frozenset[str]:
    """Variables assigned from the ``time`` item (monotone — prunable)."""
    assigned = ast.assigned_variables(formula).items()
    return small(
        frozenset(var for var, query in assigned if query == TIME_QUERY)
    )


def _prune_set(time_vars: frozenset, free: frozenset) -> frozenset:
    """``time_vars & free``, as one of its operands' objects when it is
    all of ``time_vars`` or empty: a rule's subformulas share one set."""
    if time_vars.isdisjoint(free):
        return EMPTY
    if time_vars <= free:
        return time_vars
    return time_vars & free


class _SubEval:
    """The evaluator surface the compiled node classes expect (``ctx``,
    ``_term_value``, ``_aggregates``), for one (avail, birth) sharing
    context.  Aggregate terms resolve to the plan-shared
    :class:`_Aggregate` for that context, read under the plan's current
    accumulator."""

    __slots__ = ("ctx", "plan", "_aggregates")

    def __init__(self, plan: "SharedPlan"):
        self.ctx = plan.ctx
        self.plan = plan
        self._aggregates: dict = {}

    def _term_value(self, term: ast.Term, state: SystemState):
        """Symbolic value of a term at the current state, or None if the
        term is undefined there."""
        if isinstance(term, ast.ConstT):
            return cs.SConst(term.value)
        if isinstance(term, ast.Var):
            return cs.SVar(term.name)
        if isinstance(term, ast.FuncT):
            args = []
            for a in term.args:
                sym = self._term_value(a, state)
                if sym is None:
                    return None
                args.append(sym)
            try:
                return cs.sapp(term.func, tuple(args))
            except Exception:
                return None
        if isinstance(term, ast.QueryT):
            value = eval_query_value(term.query, state, {})
            if value is UNDEFINED:
                return None
            return cs.SConst(value)
        if isinstance(term, ast.AggT):
            agg = self._aggregates[term]
            value = agg.value(self.plan._current().accs.get(agg, agg.empty))
            if value is UNDEFINED:
                return None
            return cs.SConst(value)
        raise EvaluationError(f"unknown term {term!r}")


class _PlanRule:
    """One registered rule: its normalized condition, per-rule solve
    context (domains), and the root node(s) it reads off the shared DAG."""

    __slots__ = (
        "name",
        "formula",
        "ctx",
        "time_vars",
        "qvars",
        "root",
        "instances",
        "birth",
        "seq",
        "instance_births",
        "maintains",
        "events",
    )

    def __init__(self, name, formula, ctx, time_vars, qvars):
        self.name = name
        self.formula = formula
        self.ctx = ctx
        self.time_vars = time_vars
        self.qvars = qvars
        self.root: Optional[_Node] = None
        #: domain combo -> root node (query-parameter instantiation), and
        #: combo -> (birth epoch, sequence number) per instance.
        self.instances: dict[tuple, _Node]
        self.instance_births: dict[tuple, tuple[int, int]]
        self.clear_instances()
        #: Plan epoch when this rule's root was compiled.
        self.birth = 0
        #: Global compilation sequence number (checkpoint replay order).
        self.seq = 0
        #: The accumulator F a maintenance rule ``r2: ψ → update F`` roots
        #: (:meth:`SharedPlan.add_aggregate_rules`); None for conditions.
        self.maintains: Optional[_Aggregate] = None
        #: The event atoms a stateless condition conjoins
        #: (:func:`infer_relevant_events`): its root is computed only when
        #: its result is read.  None: by :meth:`SharedPlan.complete` too.
        self.events: Optional[frozenset[str]] = None

    def clear_instances(self) -> None:
        """No instance compiled yet.  A ground rule never has one, and
        every ground rule holds the one read-only empty mapping."""
        if self.qvars:
            self.instances, self.instance_births = {}, {}
        else:
            self.instances = self.instance_births = _NO_INSTANCES

    def roots(self) -> Iterator[_Node]:
        if self.root is not None:
            yield self.root
        yield from self.instances.values()
        if self.maintains is not None:
            yield self.maintains


class SharedPlan:
    """Multi-rule condition evaluator with common-subformula elimination.

    Parameters
    ----------
    ctx:
        Plan-wide :class:`EvalContext` supplying the shared executed store
        for ``executed(...)`` atoms.  Per-rule domains are *not* read from
        here — each rule solves against its own context.
    optimize:
        Apply Section 5 time-bound pruning (once per distinct stored
        formula, not once per rule).
    metrics:
        ``None``/``True``/a registry — when enabled the plan maintains
        gauges for plan size, subformula dedup ratio, and the
        constraint-interning hit rate and live node count (the last two
        are process-wide: every plan publishes the same reading).
    """

    def __init__(self, ctx: Optional[EvalContext] = None,
                 optimize: bool = True, metrics=None):
        self.ctx = ctx or EvalContext()
        self.optimize = optimize
        self.metrics = as_registry(metrics)
        self._obs_on = self.metrics.enabled
        #: Number of steps taken (the birth epoch of what compiles now).
        self.epoch = 0
        #: The committed value, and the open step's (the stepped state's
        #: unread roots not computed yet, :meth:`complete`; else None).
        self._value = PlanValue(0, None, {}, {}, {})
        self._open: Optional[PlanValue] = None
        #: Memo validity: moves on at every step and restore, never back.
        self._tick = 0
        self._rules: dict[str, _PlanRule] = {}
        #: (subformula, avail, prune set, birth epoch) -> memo node.
        self._nodes: dict = {}
        #: (node, prune set, birth epoch) per distinct temporal node.
        self._temporal: list[tuple[_Node, frozenset[str], int]] = []
        #: (aggregate term, avail, birth epoch) -> shared running state,
        #: in registration order: an aggregate nested in another's φ/ψ
        #: comes first, so stepping in order is inner-before-outer.
        self._aggregates: dict = {}
        self._subevals: dict = {}
        #: Next root-compilation sequence number (checkpoint replay order).
        self._next_seq = 0
        #: Compile-time sharing counters (dedup ratio).
        self.compile_requests = 0
        self.compile_shared = 0
        if self._obs_on:
            self._m_rules = self.metrics.gauge("plan_rules")
            self._m_nodes = self.metrics.gauge("plan_distinct_nodes")
            self._m_dedup = self.metrics.gauge("plan_dedup_ratio")
            self._m_state_size = self.metrics.gauge("plan_state_size")
            self._m_intern = self.metrics.gauge("plan_intern_hit_rate")
            self._m_intern_live = self.metrics.gauge("plan_intern_live_nodes")

    # ------------------------------------------------------------------
    # Registration / compilation
    # ------------------------------------------------------------------

    def add_rule(
        self,
        name,
        formula: ast.Formula,
        ctx: Optional[EvalContext] = None,
    ) -> Optional[frozenset[str]]:
        """Register a condition under ``name`` (any hashable; its result is
        read by :meth:`result_of`).  ``ctx`` carries the rule's domains;
        its executed store should be the plan's.  Returns the event atoms
        that gate the condition (:func:`infer_relevant_events`), or None."""
        if name in self._rules:
            raise DuplicateRuleError(f"rule {name!r} already in the plan")
        formula = normalize(formula)
        rule_ctx = ctx or self.ctx
        qvars = tuple(sorted(query_param_vars(formula)))
        for qv in qvars:
            if qv not in rule_ctx.domains:
                raise UnsafeFormulaError(
                    f"free variable {qv!r} parameterizes a query; it "
                    f"needs a domain (EvalContext.domains[{qv!r}])"
                )
        entry = _PlanRule(name, formula, rule_ctx, _time_vars(formula), qvars)
        entry.events = infer_relevant_events(formula)
        entry.birth = self.epoch
        entry.seq = self._next_seq
        self._next_seq += 1
        if not qvars:
            self._compile_root(entry)
        self._rules[name] = entry
        # Not fired at the current state, nor computed when it completes.
        self._current().tops[name] = _NO_TOP
        if self._obs_on:
            self._record_metrics()
        return entry.events

    def add_aggregate_rules(
        self, term: ast.AggT, names: tuple[str, str]
    ) -> None:
        """Section 6.1.1's maintenance of ``term = f(q, φ, ψ)`` as two
        real rules of this plan, ``names = (r1, r2)``: ``r1: φ →
        initialize F`` and ``r2: ψ → update F``.  F is the plan's own
        accumulator for the (normalized, ground) term — the rules' roots
        *are* its φ/ψ nodes — and ``r2`` roots it, so stepping the plan
        maintains it; :meth:`accumulator` reads it by ``r2``'s name."""
        self.add_rule(names[0], term.start)
        self.add_rule(names[1], term.sample)
        self._rules[names[1]].maintains = self._ref_aggregate(term, EMPTY)

    def accumulator(self, name):
        """The accumulator F rooted by ``name`` at the current step (a
        running aggregate's ``(started, poisoned, count, sum,
        extremum)``)."""
        agg = self._rules[name].maintains
        return self._current().accs.get(agg, agg.empty)

    def _compile_root(self, entry: _PlanRule) -> None:
        """Compile a ground rule's root at the current epoch (and
        re-reference the accumulator a maintenance rule roots)."""
        entry.root = self._compile(
            entry.formula, EMPTY, entry.time_vars
        )
        if entry.maintains is not None:
            entry.maintains = self._ref_aggregate(
                entry.maintains.term, EMPTY
            )

    def remove_rule(self, name: str) -> None:
        """Drop a rule and release its references into the shared DAG.
        Nodes still referenced by other rules survive with their state;
        subtrees nobody else shares are physically dropped — removed from
        the compile cache, the per-step temporal prune loop, and the
        shared aggregate stepping — so a removed rule stops consuming
        memory and per-state work."""
        if name not in self._rules:
            raise UnknownRuleError(f"no rule named {name!r} in the plan")
        entry = self._rules.pop(name)
        for root in entry.roots():
            self._release(root)
        if self._obs_on:
            self._record_metrics()

    def _release(self, node) -> None:
        """Drop one reference to a memo node or shared aggregate; on the
        last reference it leaves the plan and its child references are
        released."""
        node.refs -= 1
        if node.refs > 0:
            return
        if isinstance(node, _Aggregate):
            term, avail, birth = node.key
            del self._aggregates[node.key]
            del self._subevals[(avail, birth)]._aggregates[term]
        else:
            self._nodes.pop(node.key, None)
            if isinstance(node.inner, _TEMPORAL):
                for i, (tnode, _, _) in enumerate(self._temporal):
                    if tnode is node.inner:
                        del self._temporal[i]
                        break
        for child in children(node):
            self._release(child)

    def _compile(
        self,
        f: ast.Formula,
        avail: frozenset[str],
        time_vars: frozenset[str],
    ) -> _Node:
        """Hash-consed compilation: one memo node per distinct
        (subformula, avail, prune set, birth epoch)."""
        prune_set = _prune_set(time_vars, ast.free_variables(f))
        key = (f, avail, prune_set, self.epoch)
        self.compile_requests += 1
        node = self._nodes.get(key)
        if node is not None:
            self.compile_shared += 1
            node.refs += 1
            return node
        inner = self._build(f, avail, time_vars, prune_set)
        memo = _TemporalMemo if isinstance(inner, _TEMPORAL) else _MemoNode
        node = memo(inner, self)
        node.key = key
        node.refs = 1
        self._nodes[key] = node
        return node

    def _build(self, f, avail, time_vars, prune_set) -> _Node:
        if isinstance(f, ast.Comparison):
            for term in dict.fromkeys(ast.aggregate_terms(f)):
                self._ref_aggregate(term, avail)
        node = build_node(
            f,
            avail,
            self._subeval(avail),
            lambda g, a: self._compile(g, a, time_vars),
        )
        if isinstance(node, _TEMPORAL):
            self._temporal.append((node, prune_set, self.epoch))
        return node

    def _subeval(self, avail: frozenset[str]) -> _SubEval:
        key = (avail, self.epoch)
        sub = self._subevals.get(key)
        if sub is None:
            sub = _SubEval(self)
            self._subevals[key] = sub
        return sub

    def _ref_aggregate(self, term, avail) -> _Aggregate:
        """Take one reference to the shared aggregate for ``term`` in this
        (avail, birth) context, creating it on first use.  Its φ and ψ
        are conditions like any other: they compile into this DAG at the
        aggregate's birth epoch (same sharing key, refcounts, prune loop
        and checkpoint pools as every temporal child), and the aggregate
        registers *after* them — so one nested in φ/ψ steps first."""
        key = (term, avail, self.epoch)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = _Aggregate(term, self.ctx, avail)
            agg.key = key
            if agg.mode == "running":
                agg.start = self._compile(
                    term.start, EMPTY, _time_vars(term.start)
                )
            agg.sample = self._compile(
                term.sample, EMPTY, _time_vars(term.sample)
            )
            self._aggregates[key] = agg
            self._subeval(avail)._aggregates[term] = agg
        agg.refs += 1
        return agg

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self, state: SystemState) -> None:
        """Process one new system state for *all* rules: the step writes
        the next value from the committed one and stays open until
        :meth:`complete`.  The query-parameter instances the state's
        domains add compile first, at the epoch before the step: they
        share only with nodes that have not stepped yet."""
        self.complete()
        for entry in self._rules.values():
            if entry.qvars:
                self._refresh_instances(entry, state)
        self.epoch += 1
        self._tick += 1
        # ``tuple.__new__`` skips the keyword-matching ``PlanValue.__new__``.
        self._open = value = _new_value(
            PlanValue, (self.epoch, state, {}, {}, {})
        )
        if self._aggregates:
            prev, accs = self._value.accs, value.accs
            for agg in self._aggregates.values():
                accs[agg] = agg.step(prev.get(agg, agg.empty), state)

    def complete(self) -> None:
        """Close the open step: compute every root not read at its state
        (a gated stateless one is not fired there), prune, and swap the
        value in.  The next step and every read of the plan's state call
        this; a step rolled back by :meth:`restore` never completes."""
        value = self._open
        if value is None:
            return
        state, tops = value.last_state, value.tops
        for name, entry in self._rules.items():
            if entry.events is None and name not in tops:
                tops[name] = self._eval_rule(entry, state)
        if self.optimize:
            stored = value.stored
            for node, prune_set, _ in self._temporal:
                if prune_set and node in stored:
                    stored[node] = prune_time_bounds(
                        stored[node], state.timestamp, prune_set
                    )
        self._value, self._open = value, None
        if self._obs_on:
            self._record_metrics()

    def _current(self) -> PlanValue:
        """The open step's value, else the committed one."""
        return self._value if self._open is None else self._open

    def result_of(self, name: str) -> FireResult:
        return self._result(self._rules[name])

    def _result(self, entry: _PlanRule) -> FireResult:
        """The rule's result at the current state, computed on its first
        read there: in the open step, or a gated stateless root's after
        it (a rule registered since has an entry, :data:`_NO_TOP`)."""
        value = self._current()
        got = value.tops.get(entry.name)
        if got is None:
            if value.last_state is None or (
                value is self._value and entry.events is None
            ):
                return _FALSE_RESULT
            got = value.tops[entry.name] = self._eval_rule(
                entry, value.last_state
            )
        return got[1]

    def _eval_rule(self, entry: _PlanRule, state) -> tuple:
        """(top-level formula, result) of the rule at ``state``."""
        if entry.root is not None:
            top = entry.root.compute(state)
            return top, fire_result(top, state, entry.ctx)
        fired = False
        bindings: list[dict] = []
        tops = []
        for combo, root in entry.instances.items():
            top = root.compute(state)
            tops.append(top)
            result = fire_result(top, state, entry.ctx)
            if result.fired:
                fired = True
                for b in result.bindings:
                    merged = dict(zip(entry.qvars, combo))
                    merged.update(b)
                    bindings.append(merged)
        return cs.cor(tops), FireResult(fired, tuple(bindings))

    def _refresh_instances(self, entry: _PlanRule, state) -> None:
        per_var = []
        for name in entry.qvars:
            values = entry.ctx.domain_for(name, state)
            per_var.append(values or [])
        for combo in itertools.product(*per_var):
            if combo in entry.instances:
                continue
            env = dict(zip(entry.qvars, combo))
            inst = instantiate_formula(entry.formula, env)
            entry.instance_births[combo] = (self.epoch, self._next_seq)
            self._next_seq += 1
            entry.instances[combo] = self._compile(
                inst, EMPTY, _time_vars(inst)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rule_names(self) -> list:
        return sorted(self._rules, key=str)

    def distinct_nodes(self) -> int:
        return len(self._nodes)

    def dedup_ratio(self) -> float:
        """Fraction of compile requests answered from the cache."""
        if not self.compile_requests:
            return 0.0
        return self.compile_shared / self.compile_requests

    def stored_formulas(self) -> list[tuple[str, cs.C]]:
        self.complete()
        stored = self._value.stored
        return [
            (node.label, stored.get(node, cs.CFALSE))
            for node, _, _ in self._temporal
        ]

    def aux_rows(self) -> int:
        """Accumulator rows across the plan's shared aggregates."""
        accs = self._current().accs
        return sum(
            agg.size(accs.get(agg, agg.empty))
            for agg in self._aggregates.values()
        )

    def state_size(self) -> int:
        """Retained state across the whole plan: the stored-formula DAG
        (each distinct node once, aggregate φ/ψ included) plus shared
        aggregate rows."""
        self.complete()
        stored = self._value.stored
        return (
            cs.dag_size(
                stored.get(node, cs.CFALSE) for node, _, _ in self._temporal
            )
            + self.aux_rows()
        )

    def compiled_ops(self) -> int:
        """Always 0: conditions step on the interpreted node DAG.  Kept
        because ``benchmarks/spine/probes.py`` reads it."""
        return 0

    def _record_metrics(self) -> None:
        self._m_rules.set(len(self._rules))
        self._m_nodes.set(len(self._nodes))
        self._m_dedup.set(self.dedup_ratio())
        self._m_state_size.set(self.state_size())
        interned = cs.intern_stats()
        self._m_intern.set(interned["hit_rate"])
        self._m_intern_live.set(interned["formulas"] + interned["terms"])
        qplan.STATS.publish(self.metrics)

    # ------------------------------------------------------------------
    # Snapshot / restore (trial evaluation)
    # ------------------------------------------------------------------

    def snapshot(self) -> PlanValue:
        """The committed value, completing the open step first: a
        reference, not a copy."""
        self.complete()
        return self._value

    def restore(self, value: PlanValue) -> None:
        """Rewind to ``value`` (a :meth:`snapshot`), dropping the open
        step.  The step count rolls back with it."""
        # Query-parameter instances born at or after the value's epoch
        # leave through the refcount path, taking their temporal nodes and
        # aggregates with them (else they would keep the trial's state).
        for entry in self._rules.values():
            late = [
                combo
                for combo, (birth, _) in entry.instance_births.items()
                if birth >= value.epoch
            ]
            for combo in late:
                del entry.instance_births[combo]
                self._release(entry.instances.pop(combo))
        self.epoch = value.epoch
        self._value, self._open = value, None
        self._tick += 1
        if self._obs_on:
            self._record_metrics()

    # ------------------------------------------------------------------
    # Serialization (recovery checkpoints)
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """The committed value, JSON-serializable.

        Alongside every temporal node's stored formula and every shared
        aggregate's accumulator, the payload records each rule root's
        (and each query-parameter instance's) *birth epoch* and global
        compilation sequence number: :meth:`from_state` replays the
        compilations at those exact epochs, so the sharing keys reproduce
        the checkpointed DAG.  Each temporal entry also carries its birth
        epoch, letting :meth:`from_state` match stored states by
        (label, prune set, birth) pools rather than by position — which
        makes checkpoints taken after :meth:`remove_rule` (where replay
        order can differ from original compile order) restorable."""
        self.complete()
        value = self._value
        rules = []
        for name, entry in self._rules.items():
            top, result = value.tops.get(name, _NO_TOP)
            rules.append({
                "name": name,
                "formula": rule_fingerprint(entry.formula),
                "birth": entry.birth,
                "seq": entry.seq,
                "instances": [
                    [cs.encode_value(combo), birth, seq]
                    for combo, (birth, seq) in entry.instance_births.items()
                ],
                "last_top": cs.to_payload(top),
                "result": _encode_fire_result(result),
            })
        return {
            "births": "pre_step",
            "epoch": self.epoch,
            "next_seq": self._next_seq,
            "rules": rules,
            "temporal": [
                [
                    node.label,
                    sorted(prune_set),
                    birth,
                    encode_stored(node, value.stored.get(node)),
                ]
                for node, prune_set, birth in self._temporal
            ],
            "aggregates": [
                [str(term), sorted(avail), birth,
                 agg.encode(value.accs.get(agg, agg.empty))]
                for (term, avail, birth), agg in self._aggregates.items()
            ],
        }

    def from_state(self, payload: dict, strict: bool = True) -> dict:
        """Load a checkpoint by replaying the checkpointed compilation
        sequence (registration order need not match — the payload's
        recorded order and birth epochs win), then restoring every
        temporal node's and aggregate's stored state.

        With ``strict=True`` the registered rules must exactly match the
        checkpoint (names and conditions) — any drift raises
        :class:`RecoveryError`, as before.  With ``strict=False`` the
        *intersection* is restored: rules present in both (with the same
        condition) get their checkpointed state back; rules only in the
        plan (or whose condition changed) compile fresh at the checkpoint
        epoch — their temporal operators start from "now", exactly like a
        hot registration; rules only in the checkpoint are dropped.
        Returns ``{"added": [...], "dropped": [...], "changed": [...]}``
        (all empty under ``strict=True``).  A ``"compiled"`` section,
        written by older commits that could step through a generated
        chain, is ignored: the node states above are the whole value.
        A section without the ``"births"`` mark is converted on read
        (:func:`_pre_step_births`)."""
        if payload.get("births") != "pre_step":
            ground = {n for n, e in self._rules.items() if not e.qvars}
            payload = _pre_step_births(payload, ground, strict)
        by_name = {r["name"]: r for r in payload["rules"]}
        drift = rule_drift(
            {name: rec["formula"] for name, rec in by_name.items()},
            {
                name: rule_fingerprint(entry.formula)
                for name, entry in self._rules.items()
            },
            strict,
        )
        changed = drift["changed"]
        kept = [n for n in self._rules if n in by_name and n not in changed]
        fresh = [n for n in self._rules if n not in by_name or n in changed]

        # Rebuild the compiled DAG by replaying the recorded compilations.
        self._nodes = {}
        self._temporal = []
        self._aggregates = {}
        self._subevals = {}
        self.compile_requests = 0
        self.compile_shared = 0
        jobs = []  # (seq, birth, entry, combo-or-None)
        for name in kept:
            entry = self._rules[name]
            rec = by_name[name]
            entry.birth = rec["birth"]
            entry.seq = rec["seq"]
            entry.root = None
            entry.clear_instances()
            if not entry.qvars:
                jobs.append((rec["seq"], rec["birth"], entry, None))
            for enc_combo, birth, seq in rec["instances"]:
                combo = cs.decode_value(enc_combo)
                jobs.append((seq, birth, entry, combo))
        for seq, birth, entry, combo in sorted(jobs):
            self.epoch = birth
            if combo is None:
                self._compile_root(entry)
                continue
            env = dict(zip(entry.qvars, combo))
            inst = instantiate_formula(entry.formula, env)
            entry.instance_births[combo] = (birth, seq)
            entry.instances[combo] = self._compile(
                inst, EMPTY, _time_vars(inst)
            )
        next_seq = payload["next_seq"]
        self.epoch = payload["epoch"]
        for name in fresh:
            entry = self._rules[name]
            entry.birth = self.epoch
            entry.seq = next_seq
            next_seq += 1
            entry.root = None
            entry.clear_instances()
            if not entry.qvars:
                self._compile_root(entry)
        self._next_seq = next_seq

        # Pool matching by (label, prune set, birth): nodes with the same
        # pool key carry identical state (temporal children and aggregate
        # φ/ψ always compile with avail=∅, so two same-key memo wrappers
        # step in lockstep),
        # making assignment within a pool safe whatever order replay
        # produced them in.
        stored: dict = {}
        pools: dict = {}
        for label, ps, birth, state in payload["temporal"]:
            pools.setdefault((label, tuple(ps), birth), []).append(state)
        for node, prune_set, birth in self._temporal:
            pool = pools.get((node.label, tuple(sorted(prune_set)), birth))
            if pool:
                formula = decode_stored(pool.pop(0))
                if formula is not None:
                    stored[node] = formula
            elif strict:
                raise RecoveryError(
                    f"temporal node {node.label!r} (prune "
                    f"{sorted(prune_set)}, birth {birth}) has no "
                    "stored state in the checkpoint"
                )
            # drift: a node of an added/changed rule starts fresh.
        if strict and any(pools.values()):
            leftover = sorted(k for k, v in pools.items() if v)
            raise RecoveryError(
                f"checkpoint temporal states left unmatched: {leftover}"
            )
        accs: dict = {}
        agg_pools: dict = {}
        for fp, fp_avail, fp_birth, state in payload["aggregates"]:
            agg_pools.setdefault(
                (fp, tuple(fp_avail), fp_birth), []
            ).append(state)
        for (term, avail, birth), agg in self._aggregates.items():
            pool = agg_pools.get((str(term), tuple(sorted(avail)), birth))
            if pool:
                accs[agg] = agg.decode(pool.pop(0))
            elif strict:
                raise RecoveryError(
                    f"shared aggregate ({str(term)!r}, {sorted(avail)}, "
                    f"{birth}) has no stored state in the checkpoint"
                )
        if strict and any(agg_pools.values()):
            leftover = sorted(k for k, v in agg_pools.items() if v)
            raise RecoveryError(
                f"checkpoint aggregate states left unmatched: {leftover}"
            )
        tops = {
            name: (
                cs.from_payload(by_name[name]["last_top"]),
                _decode_fire_result(by_name[name]["result"]),
            )
            for name in kept
        }
        self._value = PlanValue(self.epoch, None, stored, accs, tops)
        self._open = None
        self._tick += 1
        if self._obs_on:
            self._record_metrics()
        return drift


def _pre_step_births(payload: dict, ground: set, strict: bool) -> dict:
    """Convert a plan section written when a query-parameter instance was
    born at the epoch *after* its first step: its instances, and the
    temporal nodes and aggregates born with them, move one epoch down.
    Where a rule root (a rule of ``ground``, the plan's rules without
    query parameters) was registered at such an instance's old birth, the
    two may have shared nodes the instance had already stepped, and the
    entries cannot be attributed: a strict restore refuses them, a lenient
    one keeps them as recorded (the roots' nodes restore, the instance's
    start fresh)."""
    roots = {rec["birth"] for rec in payload["rules"] if rec["name"] in ground}
    born = {b for rec in payload["rules"] for _, b, _ in rec["instances"]}
    if born & roots and strict:
        raise RecoveryError(
            f"checkpointed instances born at epochs {sorted(born & roots)} "
            "may share nodes with rules registered there; restore with "
            "strict_rules=False to start them fresh"
        )
    shift = born - roots

    def moved(entries: list) -> list:
        kept = [e for e in entries if e[2] not in shift]
        out = list(kept)
        for label, key, birth, state in entries:
            entry = [label, key, birth - 1, state]
            # A root born there holds the same node (same key, same state).
            if birth in shift and entry not in kept:
                out.append(entry)
        return out

    rules = [
        {**rec, "instances": [[c, b - 1, q] for c, b, q in rec["instances"]]}
        for rec in payload["rules"]
    ]
    return {
        **payload,
        "rules": rules,
        "temporal": moved(payload["temporal"]),
        "aggregates": moved(payload["aggregates"]),
    }


def _encode_fire_result(result: FireResult) -> dict:
    return {
        "fired": result.fired,
        "bindings": [
            {name: cs.encode_value(v) for name, v in b.items()}
            for b in result.bindings
        ],
    }


def _decode_fire_result(payload: dict) -> FireResult:
    return FireResult(
        payload["fired"],
        tuple([
            {name: cs.decode_value(v) for name, v in b.items()}
            for b in payload["bindings"]
        ]),
    )


class IncrementalEvaluator:
    """Incremental detector for one PTL condition: a private one-rule
    :class:`SharedPlan`, so a standalone condition (a valid-time trigger,
    a baseline's condition) runs through exactly the code a shared rule
    base does.  A rule manager's triggers, integrity constraints and
    future-monitor atoms are not standalone: they are roots of the
    manager's one plan.

    Parameters
    ----------
    formula:
        The PTL condition (an :mod:`repro.ptl.ast` formula; use
        :func:`repro.ptl.parser.parse_formula` for the textual syntax).
    ctx:
        :class:`~repro.ptl.context.EvalContext` (executed store and
        free-variable domains).
    optimize:
        Apply the Section 5 time-bound pruning after each step.
    metrics:
        ``None``/``False`` (default), ``True``, or a
        :class:`~repro.obs.metrics.MetricsRegistry` — when enabled, the
        evaluator maintains per-step latency histograms and state-size,
        auxiliary-row and instance gauges.  Disabled instrumentation
        costs one branch per step and allocates nothing.
    name:
        Label for this evaluator's metrics (the rule name); defaults to a
        shared anonymous label.

    Call :meth:`step` with each appended system state; the result reports
    firing and free-variable bindings.  :meth:`snapshot` before a *trial*
    step lets :meth:`restore` undo it.  The private plan is ``plan``; a
    checkpoint serializes it (:meth:`SharedPlan.to_state`).
    """

    def __init__(
        self,
        formula: ast.Formula,
        ctx: Optional[EvalContext] = None,
        optimize: bool = True,
        metrics=None,
        name: Optional[str] = None,
    ):
        self.name = name if name is not None else "<anonymous>"
        self.plan = SharedPlan(ctx, optimize)
        self.plan.add_rule(self.name, formula)
        self.steps = 0
        self.metrics = as_registry(metrics)
        self._obs_on = self.metrics.enabled
        if self._obs_on:
            registry, rule = self.metrics, self.name
            self._m_steps = registry.counter("evaluator_steps_total", rule=rule)
            self._m_step_seconds = registry.histogram(
                "evaluator_step_seconds", rule=rule
            )
            self._m_state_size = registry.gauge(
                "evaluator_state_size", rule=rule
            )
            self._m_stored_size = registry.gauge(
                "evaluator_stored_formula_size", rule=rule
            )
            self._m_aux_rows = registry.gauge("evaluator_aux_rows", rule=rule)
            self._m_instances = registry.gauge(
                "evaluator_instances", rule=rule
            )

    def step(self, state: SystemState) -> FireResult:
        """Process one new system state."""
        if not self._obs_on:
            self.plan.step(state)
            self.steps += 1
            return self.plan.result_of(self.name)
        t0 = perf_counter()
        self.plan.step(state)
        self.steps += 1
        result = self.plan.result_of(self.name)
        self._m_step_seconds.observe(perf_counter() - t0)
        self._m_steps.inc()
        self._record_gauges()
        return result

    @property
    def last_top(self) -> cs.C:
        return self.plan._current().tops.get(self.name, _NO_TOP)[0]

    def stored_formulas(self) -> list[tuple[str, cs.C]]:
        return self.plan.stored_formulas()

    def stored_formula_size(self) -> int:
        return cs.dag_size(c for _, c in self.stored_formulas())

    def aux_rows(self) -> int:
        return self.plan.aux_rows()

    def state_size(self) -> int:
        """Total retained state — the paper's space metric (E2/E4):
        stored-formula DAG size plus auxiliary aggregate rows."""
        return self.stored_formula_size() + self.aux_rows()

    def _record_gauges(self) -> None:
        """Refresh the memory gauges from the current evaluator state (the
        E4 bounded-memory claim as live metrics)."""
        stored = self.stored_formula_size()
        aux = self.aux_rows()
        self._m_stored_size.set(stored)
        self._m_aux_rows.set(aux)
        self._m_state_size.set(stored + aux)
        entry = self.plan._rules[self.name]
        self._m_instances.set(
            1 if entry.root is not None else len(entry.instances)
        )
        qplan.STATS.publish(self.metrics)

    def snapshot(self):
        return (self.steps, self.plan.snapshot())

    def restore(self, snap) -> None:
        self.steps, plan_snap = snap
        self.plan.restore(plan_snap)
        if self._obs_on:
            # Gauges must reflect the restored state, not the pre-restore
            # one (no stale R_x counts after a snapshot round-trip).
            self._record_gauges()
