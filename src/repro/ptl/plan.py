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
* the *birth epoch* — the plan step count at compile time.  A rule (or a
  lazily created query-parameter instance) added after the plan has
  started stepping must not inherit another rule's history-laden temporal
  state, so it only shares nodes born at the same epoch.  Rules registered
  before the first step (the common case) all share.

A temporal aggregate's starting and sampling formulas (Section 6.1.1's
``r1: φ → initialize F``, ``r2: ψ → update F``) are conditions like any
other: they compile through the same cache under the same key, so a ψ that
also occurs in another rule's condition — or in five other aggregates — is
one node, stepped once per state.

This is the one condition-evaluation backend: a standalone condition is
a plan holding one rule (:class:`IncrementalEvaluator`).  THEOREM 1
equivalence — one plan for all rules vs one plan per rule vs the
reference semantics (:mod:`repro.ptl.semantics`) — is differential-tested
in ``tests/test_shared_plan.py``.
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import Iterator, Optional

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
from repro.ptl import compile_toggle
from repro.ptl.incremental import (
    FireResult,
    _AggregateState,
    _LasttimeNode,
    _MemoNode,
    _Node,
    _SinceNode,
    _decode_node_state,
    _encode_node_state,
    build_node,
    children,
    fire_result,
    instantiate_formula,
    peel,
    query_param_vars,
)
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


#: The node classes that store a formula between states.
_TEMPORAL = (_LasttimeNode, _SinceNode)

#: "Tried to lower, unsupported" marker — distinct from None ("not yet
#: tried") so the lowering attempt happens at most once per root set.
_NO_CHAIN = object()


def _is_chain(chain) -> bool:
    """A built compiled chain: neither not-yet-tried nor declined.  Only
    then is :mod:`repro.ptl.compiled` loaded."""
    return chain is not None and chain is not _NO_CHAIN


def _time_vars(formula: ast.Formula) -> frozenset[str]:
    """Variables assigned from the ``time`` item (monotone — prunable)."""
    return frozenset(
        var
        for var, query in ast.assigned_variables(formula).items()
        if query == TIME_QUERY
    )


class _SubEval:
    """The evaluator surface the compiled node classes expect (``ctx``,
    ``_term_value``, ``_aggregates``), for one (avail, birth) sharing
    context.  Aggregate terms resolve to the plan-shared
    :class:`_AggregateState` for that context."""

    __slots__ = ("ctx", "_aggregates")

    def __init__(self, ctx: EvalContext):
        self.ctx = ctx
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
            value = self._aggregates[term].value()
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
        "last_top",
        "result",
        "birth",
        "seq",
        "instance_births",
        "maintains",
    )

    def __init__(self, name, formula, ctx, time_vars, qvars):
        self.name = name
        self.formula = formula
        self.ctx = ctx
        self.time_vars = time_vars
        self.qvars = qvars
        self.root: Optional[_Node] = None
        #: domain combo -> root node (query-parameter instantiation).
        self.instances: dict[tuple, _Node] = {}
        self.last_top: cs.C = cs.CFALSE
        self.result: FireResult = FireResult(False)
        #: Plan epoch when this rule's root was compiled.
        self.birth = 0
        #: Global compilation sequence number (checkpoint replay order).
        self.seq = 0
        #: combo -> (birth epoch, sequence number) per instance.
        self.instance_births: dict[tuple, tuple[int, int]] = {}
        #: The accumulator F a maintenance rule ``r2: ψ → update F`` roots
        #: (:meth:`SharedPlan.add_aggregate_rules`); None for conditions.
        self.maintains: Optional[_AggregateState] = None

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
        #: Number of steps taken; also the memoization epoch.
        self.epoch = 0
        self._last_state: Optional[SystemState] = None
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
        #: Compiled recurrence chain over all rule roots (None = not yet
        #: built; _NO_CHAIN = lowering unsupported).  ``_layout_gen`` bumps
        #: whenever the root set changes; a live chain is *patched* to the
        #: new root set (full rebuilds only on first use, restore, or
        #: lazy compaction).
        self._chain = None
        self._chain_gen = -1
        self._layout_gen = 0
        #: Full chain compiles / incremental patches performed.
        self.chain_builds = 0
        self.chain_patches = 0
        if self._obs_on:
            self._m_rules = self.metrics.gauge("plan_rules")
            self._m_nodes = self.metrics.gauge("plan_distinct_nodes")
            self._m_dedup = self.metrics.gauge("plan_dedup_ratio")
            self._m_state_size = self.metrics.gauge("plan_state_size")
            self._m_intern = self.metrics.gauge("plan_intern_hit_rate")
            self._m_intern_live = self.metrics.gauge("plan_intern_live_nodes")
            self._m_compiled = self.metrics.gauge("plan_compiled")
            self._m_compiled_ops = self.metrics.gauge("plan_compiled_ops")
            self._m_chain_build = self.metrics.histogram(
                "plan_chain_build_seconds"
            )
            self._m_chain_patches = self.metrics.counter(
                "plan_chain_patches_total"
            )

    # ------------------------------------------------------------------
    # Registration / compilation
    # ------------------------------------------------------------------

    def add_rule(
        self,
        name: str,
        formula: ast.Formula,
        ctx: Optional[EvalContext] = None,
    ) -> "PlanBoundEvaluator":
        """Register a rule's condition; returns the per-rule view.
        ``ctx`` carries the rule's domains; its executed store should be
        the plan's."""
        return PlanBoundEvaluator(
            self, self._register(name, formula, ctx), formula
        )

    def _register(self, name, formula, ctx) -> "_PlanRule":
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
        entry.birth = self.epoch
        entry.seq = self._next_seq
        self._next_seq += 1
        if not qvars:
            self._compile_root(entry)
        self._rules[name] = entry
        self._layout_gen += 1
        if self._obs_on:
            self._record_metrics()
        return entry

    def add_aggregate_rules(
        self, term: ast.AggT, names: tuple[str, str]
    ) -> "PlanBoundEvaluator":
        """Section 6.1.1's maintenance of ``term = f(q, φ, ψ)`` as two
        real rules of this plan, ``names = (r1, r2)``: ``r1: φ →
        initialize F`` and ``r2: ψ → update F``.  F is the plan's own
        accumulator for the (normalized, ground) term — the rules' roots
        *are* its φ/ψ nodes — and ``r2`` roots it, so whichever backend
        steps the plan maintains it.  Returns r2's view; the live
        accumulator is ``view.entry.maintains``."""
        self.add_rule(names[0], term.start)
        view = self.add_rule(names[1], term.sample)
        view.entry.maintains = self._ref_aggregate(term, frozenset())
        self._layout_gen += 1
        return view

    def _compile_root(self, entry: _PlanRule) -> None:
        """Compile a ground rule's root at the current epoch (and
        re-reference the accumulator a maintenance rule roots)."""
        entry.root = self._compile(
            entry.formula, frozenset(), entry.time_vars
        )
        if entry.maintains is not None:
            entry.maintains = self._ref_aggregate(
                entry.maintains.term, frozenset()
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
        self._layout_gen += 1
        if self._obs_on:
            self._record_metrics()

    def _release(self, node) -> None:
        """Drop one reference to a memo node or shared aggregate; on the
        last reference it leaves the plan and its child references are
        released."""
        node.refs -= 1
        if node.refs > 0:
            return
        if isinstance(node, _AggregateState):
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
        prune_set = time_vars & ast.free_variables(f)
        key = (f, avail, prune_set, self.epoch)
        self.compile_requests += 1
        node = self._nodes.get(key)
        if node is not None:
            self.compile_shared += 1
            node.refs += 1
            return node
        node = _MemoNode(self._build(f, avail, time_vars, prune_set), self)
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
            sub = _SubEval(self.ctx)
            self._subevals[key] = sub
        return sub

    def _ref_aggregate(self, term, avail) -> _AggregateState:
        """Take one reference to the shared aggregate for ``term`` in this
        (avail, birth) context, creating it on first use.  Its φ and ψ
        are conditions like any other: they compile into this DAG at the
        aggregate's birth epoch (same sharing key, refcounts, prune loop
        and checkpoint pools as every temporal child), and the aggregate
        registers *after* them — so one nested in φ/ψ steps first."""
        key = (term, avail, self.epoch)
        agg = self._aggregates.get(key)
        if agg is None:
            agg = _AggregateState(term, self.ctx, avail)
            agg.key = key
            if agg.mode == "running":
                agg.start = self._compile(
                    term.start, frozenset(), _time_vars(term.start)
                )
            agg.sample = self._compile(
                term.sample, frozenset(), _time_vars(term.sample)
            )
            self._aggregates[key] = agg
            self._subeval(avail)._aggregates[term] = agg
        agg.refs += 1
        return agg

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    def step(self, state: SystemState) -> None:
        """Process one new system state for *all* rules.  Idempotent per
        state object: the per-rule views each call this, the first one
        does the work."""
        if state is self._last_state:
            return
        self._last_state = state
        self.epoch += 1
        for entry in self._rules.values():
            if entry.qvars:
                self._refresh_instances(entry, state)
        chain = self._ensure_chain() if compile_toggle.ENABLED else None
        if chain is not None:
            # Aggregates are slots of the chain like their φ/ψ: the
            # generated code maintains every one reachable from a root.
            chain.run(state)
        else:
            for agg in self._aggregates.values():
                agg.step(state)
        for entry in self._rules.values():
            entry.result = self._eval_rule(entry, state, chain)
        if self.optimize:
            for node, prune_set, _ in self._temporal:
                if prune_set:
                    node.prune(state.timestamp, prune_set)
        if self._obs_on:
            self._record_metrics()

    def result_of(self, name: str) -> FireResult:
        return self._rules[name].result

    def _eval_rule(self, entry: _PlanRule, state, chain=None) -> FireResult:
        if entry.root is not None:
            if chain is not None:
                top = chain.top_of(entry.root)
            else:
                top = entry.root.compute(state)
            entry.last_top = top
            return fire_result(top, state, entry.ctx)
        fired = False
        bindings: list[dict] = []
        tops = []
        for combo, root in entry.instances.items():
            if chain is not None:
                top = chain.top_of(root)
            else:
                top = root.compute(state)
            tops.append(top)
            result = fire_result(top, state, entry.ctx)
            if result.fired:
                fired = True
                for b in result.bindings:
                    merged = dict(zip(entry.qvars, combo))
                    merged.update(b)
                    bindings.append(merged)
        entry.last_top = cs.cor(tops)
        return FireResult(fired, tuple(bindings))

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
                inst, frozenset(), _time_vars(inst)
            )
            self._layout_gen += 1

    # ------------------------------------------------------------------
    # Compiled backend
    # ------------------------------------------------------------------

    def _ensure_chain(self):
        """The compiled chain over every rule root (and instance root);
        None when the lowering declined (evaluation stays interpreted).
        Only *reachable* roots are lowered — temporal nodes orphaned by
        ``remove_rule`` are not stepped, exactly as in the interpreted
        path.

        When the root set changed under a live chain, the chain is
        *patched*: removed roots are refcounted out (dead temporal slots
        go inert, whole segments drop once empty), new roots compile only
        their unshared suffix into a fresh appended segment.  Full
        rebuilds happen on first use, after a restore, when patching hits
        an unlowerable shape, and lazily once enough dead slots pile up
        (:meth:`CompiledChain.should_compact`)."""
        chain = self._chain
        if chain is not None and self._chain_gen == self._layout_gen:
            return chain if chain is not _NO_CHAIN else None
        roots = [
            root
            for entry in self._rules.values()
            for root in entry.roots()
        ]
        if _is_chain(chain) and not chain.should_compact():
            self._patch_chain(chain, roots)
            chain = self._chain
            if _is_chain(chain) and chain.should_compact():
                # The patch just crossed the dead-slot threshold.
                self._build_chain(roots)
        else:
            self._build_chain(roots)
        self._chain_gen = self._layout_gen
        chain = self._chain
        return chain if chain is not _NO_CHAIN else None

    def _temporal_meta(self) -> dict:
        """Prune sets by temporal-node identity, for the chain's canonical
        slot-layout fingerprint (birth epochs are deliberately excluded:
        the fingerprint must be a function of the rule set alone so a
        patched chain and a fresh rebuild agree)."""
        return {
            id(node): tuple(sorted(prune_set))
            for node, prune_set, _ in self._temporal
        }

    def _build_chain(self, roots) -> None:
        from repro.ptl.compiled import try_lower

        start = perf_counter()
        chain = try_lower(roots, self._temporal_meta())
        self._chain = chain if chain is not None else _NO_CHAIN
        self.chain_builds += 1
        if self._obs_on:
            self._m_chain_build.observe(perf_counter() - start)

    def _patch_chain(self, chain, roots) -> None:
        """Diff the wanted root multiset against the chain's root refs and
        apply release + append patches; falls back to ``_NO_CHAIN`` if the
        added rules contain an unlowerable shape (the whole plan then runs
        interpreted — mixed-mode stepping is not worth the complexity)."""
        want: dict[int, int] = {}
        by_id: dict[int, _Node] = {}
        for root in roots:
            rid = id(root)
            want[rid] = want.get(rid, 0) + 1
            by_id[rid] = root
        releases = []
        for rid, have in list(chain._root_refs.items()):
            extra = have - want.get(rid, 0)
            if extra > 0:
                releases.extend([chain._root_obj[rid]] * extra)
        adds = []
        for rid, need in want.items():
            have = chain._root_refs.get(rid, 0)
            if need > have:
                adds.extend([by_id[rid]] * (need - have))
        if not releases and not adds:
            return
        from repro.ptl.compiled import ChainLoweringError

        chain.release_roots(releases)
        try:
            chain.add_roots(adds, self._temporal_meta())
        except ChainLoweringError:
            self._chain = _NO_CHAIN
            return
        chain.refingerprint()
        self.chain_patches += 1
        if self._obs_on:
            self._m_chain_patches.inc()

    def compiled_ops(self) -> int:
        """Slots in the plan's compiled chain (0 when interpreted).

        Gated on the live toggle, like ``plan_compiled``: a built chain
        that the toggle has switched off is not what evaluates rules."""
        if not compile_toggle.ENABLED:
            return 0
        chain = self._chain
        if _is_chain(chain):
            return chain.n_nodes
        return 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def rule_names(self) -> list[str]:
        return sorted(self._rules)

    def distinct_nodes(self) -> int:
        return len(self._nodes)

    def dedup_ratio(self) -> float:
        """Fraction of compile requests answered from the cache."""
        if not self.compile_requests:
            return 0.0
        return self.compile_shared / self.compile_requests

    def stored_formulas(self) -> list[tuple[str, cs.C]]:
        out = []
        for node, _, _ in self._temporal:
            out.extend(node.stored_formulas())
        return out

    def aux_rows(self) -> int:
        """Accumulator rows across the plan's shared aggregates."""
        return sum(agg.state_size() for agg in self._aggregates.values())

    def state_size(self) -> int:
        """Retained state across the whole plan: the stored-formula DAG
        (each distinct node once, aggregate φ/ψ included) plus shared
        aggregate rows."""
        return (
            cs.dag_size(c for _, c in self.stored_formulas())
            + self.aux_rows()
        )

    def _record_metrics(self) -> None:
        self._m_rules.set(len(self._rules))
        self._m_nodes.set(len(self._nodes))
        self._m_dedup.set(self.dedup_ratio())
        self._m_state_size.set(self.state_size())
        interned = cs.intern_stats()
        self._m_intern.set(interned["hit_rate"])
        self._m_intern_live.set(interned["formulas"] + interned["terms"])
        chain = self._chain
        is_chain = _is_chain(chain)
        self._m_compiled.set(
            1 if (is_chain and compile_toggle.ENABLED) else 0
        )
        self._m_compiled_ops.set(self.compiled_ops())
        qplan.STATS.publish(self.metrics)

    # ------------------------------------------------------------------
    # Snapshot / restore (trial evaluation)
    # ------------------------------------------------------------------

    def snapshot(self):
        """Whole-plan snapshot (temporal node states, aggregate states,
        per-rule results).  Restoring also rolls back the step count."""
        return (
            self.epoch,
            self._last_state,
            [(node, node.get_state()) for node, _, _ in self._temporal],
            {key: agg.get_state() for key, agg in self._aggregates.items()},
            {
                name: (entry.last_top, entry.result)
                for name, entry in self._rules.items()
            },
        )

    def restore(self, snap) -> None:
        epoch, last_state, node_states, agg_states, rule_states = snap
        # Query-parameter instances born after the snapshot leave through
        # the refcount path, taking their temporal nodes and aggregates
        # with them (they would otherwise keep the trial's state).
        for entry in self._rules.values():
            late = [
                combo
                for combo, (birth, _) in entry.instance_births.items()
                if birth > epoch
            ]
            for combo in late:
                del entry.instance_births[combo]
                self._release(entry.instances.pop(combo))
            if late:
                self._layout_gen += 1
        self.epoch = epoch
        self._last_state = last_state
        # The memo cache is keyed on the epoch being rolled back: the next
        # step reuses it, and must not read the abandoned step's values.
        for memo in self._nodes.values():
            memo._epoch = -1
        for node, stored in node_states:
            node.set_state(stored)
        for key, stored in agg_states.items():
            if key in self._aggregates:
                self._aggregates[key].set_state(stored)
        for name, (last_top, result) in rule_states.items():
            if name in self._rules:
                self._rules[name].last_top = last_top
                self._rules[name].result = result

    # ------------------------------------------------------------------
    # Serialization (recovery checkpoints)
    # ------------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable whole-plan state.

        Alongside every temporal node's stored formula and every shared
        aggregate's running state, the payload records each rule root's
        (and each query-parameter instance's) *birth epoch* and global
        compilation sequence number: :meth:`from_state` replays the
        compilations at those exact epochs, so the sharing keys reproduce
        the checkpointed DAG.  Each temporal entry also carries its birth
        epoch, letting :meth:`from_state` match stored states by
        (label, prune set, birth) pools rather than by position — which
        makes checkpoints taken after :meth:`remove_rule` (where replay
        order can differ from original compile order) restorable."""
        out = {
            "epoch": self.epoch,
            "next_seq": self._next_seq,
            "rules": [
                {
                    "name": entry.name,
                    "formula": rule_fingerprint(entry.formula),
                    "birth": entry.birth,
                    "seq": entry.seq,
                    "instances": [
                        [cs.encode_value(combo), birth, seq]
                        for combo, (birth, seq) in entry.instance_births.items()
                    ],
                    "last_top": cs.to_payload(entry.last_top),
                    "result": _encode_fire_result(entry.result),
                }
                for entry in self._rules.values()
            ],
            "temporal": [
                [
                    node.label,
                    sorted(prune_set),
                    birth,
                    _encode_node_state(node.get_state()),
                ]
                for node, prune_set, birth in self._temporal
            ],
            "aggregates": [
                [str(term), sorted(avail), birth, agg.to_state()]
                for (term, avail, birth), agg in self._aggregates.items()
            ],
        }
        if compile_toggle.ENABLED:
            chain = self._ensure_chain()
            if chain is not None:
                out["compiled"] = chain.to_state()
        return out

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
        (all empty under ``strict=True``)."""
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
            entry.instances = {}
            entry.instance_births = {}
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
                inst, frozenset(), _time_vars(inst)
            )
        next_seq = payload["next_seq"]
        self.epoch = payload["epoch"]
        for name in fresh:
            entry = self._rules[name]
            entry.birth = self.epoch
            entry.seq = next_seq
            next_seq += 1
            entry.root = None
            entry.instances = {}
            entry.instance_births = {}
            entry.last_top = cs.CFALSE
            entry.result = FireResult(False)
            if not entry.qvars:
                self._compile_root(entry)
        self._next_seq = next_seq
        self._last_state = None

        # Pool matching by (label, prune set, birth): nodes with the same
        # pool key carry identical state (temporal children and aggregate
        # φ/ψ always compile with avail=∅, so two same-key memo wrappers
        # step in lockstep),
        # making assignment within a pool safe whatever order replay
        # produced them in.
        pools: dict = {}
        for label, ps, birth, state in payload["temporal"]:
            pools.setdefault((label, tuple(ps), birth), []).append(state)
        for node, prune_set, birth in self._temporal:
            pool = pools.get((node.label, tuple(sorted(prune_set)), birth))
            if pool:
                node.set_state(_decode_node_state(pool.pop(0)))
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
        agg_pools: dict = {}
        for fp, fp_avail, fp_birth, state in payload["aggregates"]:
            agg_pools.setdefault(
                (fp, tuple(fp_avail), fp_birth), []
            ).append(state)
        for (term, avail, birth), agg in self._aggregates.items():
            pool = agg_pools.get((str(term), tuple(sorted(avail)), birth))
            if pool:
                agg.from_state(pool.pop(0))
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
        for name in kept:
            rec = by_name[name]
            entry = self._rules[name]
            entry.last_top = cs.from_payload(rec["last_top"])
            entry.result = _decode_fire_result(rec["result"])
        # The replay above rebuilt every node object; a surviving chain
        # would patch against stale identities — drop it and rebuild.
        self._chain = None
        self._chain_gen = -1
        self._layout_gen += 1
        compiled_section = payload.get("compiled")
        if (
            compiled_section is not None
            and compile_toggle.ENABLED
            and not any(drift.values())
        ):
            chain = self._ensure_chain()
            if chain is not None:
                # The slots alias the temporal nodes restored above;
                # loading through the chain verifies the layout
                # fingerprint (RecoveryError on slot-layout drift).
                # Under rule drift the section is skipped: the nodes
                # already hold their state and the chain rebuilds lazily.
                chain.from_state(compiled_section)
        if self._obs_on:
            self._record_metrics()
        return drift


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
        tuple(
            {name: cs.decode_value(v) for name, v in b.items()}
            for b in payload["bindings"]
        ),
    )


class PlanBoundEvaluator:
    """Per-rule view of a :class:`SharedPlan` (step, firing result,
    inspection), with the evaluation work done once in the plan however
    many views step it on the same state."""

    def __init__(self, plan: SharedPlan, entry: _PlanRule, original):
        self.plan = plan
        self.entry = entry
        self.original = original
        self.formula = entry.formula
        self.ctx = entry.ctx
        self.steps = 0

    @property
    def name(self) -> str:
        return self.entry.name

    def step(self, state: SystemState) -> FireResult:
        self.plan.step(state)
        self.steps += 1
        return self.entry.result

    @property
    def last_top(self) -> cs.C:
        return self.entry.last_top

    def _under(self, kinds) -> list:
        """Distinct DAG nodes of the given classes under this rule's
        roots (aggregates and their φ/ψ included)."""
        seen: set[int] = set()
        stack = list(self.entry.roots())
        out = []
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            inner = peel(node)
            if isinstance(inner, kinds):
                out.append(inner)
            stack.extend(children(node))
        return out

    def stored_formulas(self) -> list[tuple[str, cs.C]]:
        return [
            pair
            for node in self._under(_TEMPORAL)
            for pair in node.stored_formulas()
        ]

    def stored_formula_size(self) -> int:
        """This rule's stored-formula footprint, counted over the shared
        DAG (nodes shared with other rules are still part of this rule's
        working set — the plan's :meth:`SharedPlan.state_size` is the
        deduplicated total)."""
        return cs.dag_size(c for _, c in self.stored_formulas())

    def aux_rows(self) -> int:
        return sum(
            agg.state_size() for agg in self._under(_AggregateState)
        )

    def state_size(self) -> int:
        """Total retained state — the paper's space metric (E2/E4):
        stored-formula DAG size plus auxiliary aggregate rows."""
        return self.stored_formula_size() + self.aux_rows()


class IncrementalEvaluator(PlanBoundEvaluator):
    """Incremental detector for one PTL condition: the sole view of a
    private one-rule :class:`SharedPlan`, so a standalone condition (an
    integrity constraint, a valid-time trigger, a future-monitor atom)
    runs through exactly the code a shared rule base does.

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
    firing and free-variable bindings.  :meth:`snapshot`/:meth:`restore`
    bracket a *trial* step (integrity-constraint enforcement).
    """

    def __init__(
        self,
        formula: ast.Formula,
        ctx: Optional[EvalContext] = None,
        optimize: bool = True,
        metrics=None,
        name: Optional[str] = None,
    ):
        ctx = ctx or EvalContext()
        plan = SharedPlan(ctx, optimize)
        entry = plan._register(
            name if name is not None else "<anonymous>", formula, ctx
        )
        super().__init__(plan, entry, formula)
        self.optimize = optimize
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
            self._m_compiled_ops = registry.gauge(
                "evaluator_compiled_ops", rule=rule
            )

    def step(self, state: SystemState) -> FireResult:
        """Process one new system state."""
        # Sole view: every call is a new step, even on the same state
        # object (the plan's per-state idempotence exists for many views
        # stepping one plan).
        self.plan._last_state = None
        if not self._obs_on:
            return super().step(state)
        t0 = perf_counter()
        result = super().step(state)
        self._m_step_seconds.observe(perf_counter() - t0)
        self._m_steps.inc()
        self._record_gauges()
        return result

    def _record_gauges(self) -> None:
        """Refresh the memory gauges from the current evaluator state (the
        E4 bounded-memory claim as live metrics)."""
        stored = self.stored_formula_size()
        aux = self.aux_rows()
        self._m_stored_size.set(stored)
        self._m_aux_rows.set(aux)
        self._m_state_size.set(stored + aux)
        entry = self.entry
        self._m_instances.set(
            1 if entry.root is not None else len(entry.instances)
        )
        self._m_compiled_ops.set(self.compiled_ops())
        qplan.STATS.publish(self.metrics)

    def compiled_ops(self) -> int:
        """Slots in the plan's compiled chain (0 when interpreted)."""
        return self.plan.compiled_ops()

    def snapshot(self):
        return (self.steps, self.plan.snapshot())

    def restore(self, snap) -> None:
        self.steps, plan_snap = snap
        self.plan.restore(plan_snap)
        if self._obs_on:
            # Gauges must reflect the restored state, not the pre-restore
            # one (no stale R_x counts after a snapshot round-trip).
            self._record_gauges()

    # -- serialization (recovery checkpoints) --------------------------------

    def to_state(self) -> dict:
        """JSON-serializable evaluator state (the recovery counterpart of
        the in-memory :meth:`snapshot`): the step count around the private
        plan's own checkpoint section (which fingerprints the normalized
        condition: :meth:`from_state` refuses to load state into an
        evaluator compiled from a different one)."""
        return {"steps": self.steps, "plan": self.plan.to_state()}

    def from_state(self, payload: dict) -> None:
        """Load serialized state produced by :meth:`to_state`.  The
        evaluator must have been constructed from the same formula (and
        context domains); domain-indexed instances are re-instantiated
        from their recorded keys."""
        self.plan.from_state(payload["plan"])
        self.steps = payload["steps"]
        if self._obs_on:
            self._record_gauges()
