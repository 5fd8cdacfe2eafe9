"""The paper's incremental trigger-detection algorithm (Section 5).

For each subformula g of the condition f, the evaluator maintains a state
formula ``F_{g,i}`` (over the formula's free variables) such that an
assignment rho satisfies ``F_{g,i}`` iff the history prefix ending at the
i-th state satisfies g under rho.  After each update only the *new* system
state is examined:

* atoms evaluate against the newest state, folding current query values,
  event parameters and execution records into constants;
* ``F_{lasttime g, i} = F_{g, i-1}``;
* ``F_{g since h, i} = F_{h,i} | (F_{g,i} & F_{g since h, i-1})``;
* ``F_{[x := q] g, i} = F_{g,i}[x -> value of q at state i]``;
* boolean connectives combine their children's values;
* temporal aggregates (Section 6) are maintained directly: a running
  aggregate that resets when the starting formula fires and samples the
  query when the sampling formula fires (the rewriting pipeline of Section
  6.1.1 is in :mod:`repro.ptl.aggregates`).

"After the i-th update it simply computes F_{g,i} for each subformula g and
fires the trigger iff the formula F_{f,i} evaluates to true.  Also, it
discards the previous values F_{g,i-1}."  (THEOREM 1 — equivalence with the
reference semantics — is property-tested in the test suite and measured in
benchmark E10.)

Free variables
--------------
* Variables bound by event/``executed`` matching or by equality with
  constants stay *symbolic* in the state formulas; satisfying assignments
  are extracted by :func:`repro.ptl.constraints.solve`.
* Variables used as *query parameters* (``price($x)``) cannot stay
  symbolic — a query cannot run half-bound.  Following Section 6.1.1
  ("multiple database items, indexed with different values for the free
  variables"), the condition is *instantiated* once per combination of
  domain values, created eagerly for list domains and lazily as values
  appear for query domains.

This module holds the recurrences themselves: the node classes, the one
formula -> node switch (:func:`build_node`), the one child enumeration
(:func:`children`) and the aggregate accumulator.  The engine that steps
them — for one rule or for many, with common-subformula elimination — is
:class:`repro.ptl.plan.SharedPlan`;
:class:`~repro.ptl.plan.IncrementalEvaluator` is its one-rule view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.datamodel.relation import Relation
from repro.errors import (
    EvaluationError,
    PTLError,
    RecoveryError,
    UnsafeFormulaError,
)
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl import constraints as cs
from repro.ptl.context import EvalContext
from repro.ptl.optimize import prune_time_bounds
from repro.ptl.rewrite import TIME_QUERY
from repro.ptl.values import UNDEFINED, eval_query_value
from repro.query import ast as qast
from repro.query import plan as qplan
from repro.query.evaluator import apply_comparison
from repro.query.functions import RunningAggregate, scalar_function
from repro.query.subst import substitute_query


@dataclass(frozen=True)
class FireResult:
    """Outcome of one evaluation step: whether the condition fired and the
    satisfying assignments for its free variables ("parameter passing from
    the condition part to the action part", Section 3)."""

    fired: bool
    bindings: tuple[dict, ...] = ()

    def __bool__(self) -> bool:
        return self.fired


#: Shared results for the constant-truth tops (the overwhelmingly common
#: case on dense workloads) — callers copy binding dicts before mutating.
_TRUE_RESULT = FireResult(True, ({},))
_FALSE_RESULT = FireResult(False)


def fire_result(top: cs.C, state: SystemState, ctx: EvalContext) -> FireResult:
    """Firing decision for a computed top-level state formula: solve for
    the satisfying assignments, drawing candidate values from equality
    atoms and the context's declared domains (a
    :class:`repro.ptl.plan.SharedPlan` resolves one shared formula against
    each rule's own domains)."""
    if top is cs.CTRUE:
        return _TRUE_RESULT
    if top is cs.CFALSE:
        return _FALSE_RESULT
    domains = {}
    for name in top.variables():
        values = ctx.domain_for(name, state)
        if values is not None:
            domains[name] = values
    solutions = cs.solve(top, domains)
    return FireResult(bool(solutions), tuple(solutions))


# ---------------------------------------------------------------------------
# Formula instantiation (domain-indexed evaluators)
# ---------------------------------------------------------------------------


def instantiate_formula(f: ast.Formula, env: Mapping[str, Any]) -> ast.Formula:
    """Substitute concrete values for free variables, both as terms
    (``Var``) and as query parameters (``$x``)."""

    qmap = {name: qast.Const(value) for name, value in env.items()}

    def iq(query):
        return substitute_query(query, qmap)

    def it(term: ast.Term) -> ast.Term:
        if isinstance(term, ast.Var) and term.name in env:
            return ast.ConstT(env[term.name])
        if isinstance(term, ast.FuncT):
            return ast.FuncT(term.func, tuple(it(a) for a in term.args))
        if isinstance(term, ast.QueryT):
            return ast.QueryT(iq(term.query))
        if isinstance(term, ast.AggT):
            return ast.AggT(term.func, iq(term.query), rec(term.start), rec(term.sample))
        return term

    def rec(g: ast.Formula) -> ast.Formula:
        if isinstance(g, ast.Comparison):
            return ast.Comparison(g.op, it(g.left), it(g.right))
        if isinstance(g, ast.EventAtom):
            return ast.EventAtom(g.name, tuple(it(a) for a in g.args))
        if isinstance(g, ast.ExecutedAtom):
            return ast.ExecutedAtom(g.rule, tuple(it(a) for a in g.args), it(g.time))
        if isinstance(g, ast.InQuery):
            return ast.InQuery(tuple(it(a) for a in g.args), iq(g.query))
        if isinstance(g, ast.Not):
            return ast.Not(rec(g.operand))
        if isinstance(g, ast.And):
            return ast.And(tuple(rec(c) for c in g.operands))
        if isinstance(g, ast.Or):
            return ast.Or(tuple(rec(c) for c in g.operands))
        if isinstance(g, ast.Since):
            return ast.Since(rec(g.lhs), rec(g.rhs))
        if isinstance(g, ast.Lasttime):
            return ast.Lasttime(rec(g.operand))
        if isinstance(g, ast.Assign):
            return ast.Assign(g.var, iq(g.query), rec(g.body))
        return g

    return rec(f)


def query_param_vars(f: ast.Formula) -> frozenset[str]:
    """Free variables used as query parameters anywhere in the formula."""
    out: set[str] = set()

    def visit_term(term: ast.Term) -> None:
        if isinstance(term, ast.QueryT):
            out.update(term.query.params())
        elif isinstance(term, ast.AggT):
            out.update(term.query.params())
            visit(term.start)
            visit(term.sample)
        elif isinstance(term, ast.FuncT):
            for a in term.args:
                visit_term(a)

    def visit(g: ast.Formula) -> None:
        if isinstance(g, ast.Comparison):
            visit_term(g.left)
            visit_term(g.right)
        elif isinstance(g, ast.InQuery):
            out.update(g.query.params())
        elif isinstance(g, ast.Assign):
            out.update(g.query.params())
            visit(g.body)
        else:
            for child in g.children():
                visit(child)

    visit(f)
    return frozenset(out) & ast.free_variables(f)


# ---------------------------------------------------------------------------
# Delta-aware atom gating
# ---------------------------------------------------------------------------


def _term_queries(term: ast.Term, out: list) -> bool:
    """Collect the queries ``term`` reads into ``out``.  Returns False if
    the term contains an aggregate — aggregate values evolve with the
    evaluator's own running state, not the database state alone, so atoms
    over them must re-evaluate every step."""
    if isinstance(term, ast.QueryT):
        out.append(term.query)
        return True
    if isinstance(term, ast.AggT):
        return False
    if isinstance(term, ast.FuncT):
        ok = True
        for a in term.args:
            ok = _term_queries(a, out) and ok
        return ok
    return True  # Var / ConstT: state-independent


def _atom_gate(queries) -> Optional[qplan.DeltaGate]:
    """A delta gate over ``queries``, or None when gating is unsound for
    them (time-dependent or unanalyzable)."""
    gate = qplan.DeltaGate(queries)
    return gate if gate.enabled else None


def gated_query_value(gate, query, state):
    """``eval_query_value(query, state, {})`` memoized through ``gate``
    (None = always evaluate).  Only valid for ground queries."""
    if gate is not None:
        value = gate.lookup(state)
        if value is not qplan.MISS:
            return value
    value = eval_query_value(query, state, {})
    if gate is not None:
        gate.store(state, value)
    return value


# ---------------------------------------------------------------------------
# Compiled node tree
# ---------------------------------------------------------------------------


class _Node:
    """A compiled subformula.  ``compute(state)`` returns the node's state
    formula at the new system state, updating any persistent storage."""

    __slots__ = ()

    def compute(self, state: SystemState) -> cs.C:
        raise NotImplementedError

    def get_state(self):
        return None

    def set_state(self, snapshot) -> None:
        pass

    def stored_size(self) -> int:
        return 0

    def prune(self, now: int, time_vars: frozenset[str]) -> None:
        pass

    def stored_formulas(self):
        """(label, stored C) pairs for inspection (the E1 table)."""
        return ()


class _BoolNode(_Node):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = cs.CTRUE if value else cs.CFALSE

    def compute(self, state):
        return self.value


class _ComparisonNode(_Node):
    __slots__ = ("formula", "evaluator", "aggs", "_gate")

    def __init__(self, formula: ast.Comparison, evaluator):
        self.formula = formula
        self.evaluator = evaluator
        #: The shared aggregates this atom reads (its DAG children).
        self.aggs = tuple(
            evaluator._aggregates[term]
            for term in dict.fromkeys(ast.aggregate_terms(formula))
        )
        queries: list = []
        left_ok = _term_queries(formula.left, queries)
        right_ok = _term_queries(formula.right, queries)
        self._gate = _atom_gate(queries) if (left_ok and right_ok) else None

    def compute(self, state):
        gate = self._gate
        if gate is not None:
            hit = gate.lookup(state)
            if hit is not qplan.MISS:
                return hit
        left = self.evaluator._term_value(self.formula.left, state)
        right = self.evaluator._term_value(self.formula.right, state)
        if left is None or right is None:  # undefined subterm
            result = cs.CFALSE
        else:
            result = cs.catom(self.formula.op, left, right)
        if gate is not None:
            gate.store(state, result)
        return result


class _EventNode(_Node):
    __slots__ = ("formula", "evaluator")

    def __init__(self, formula: ast.EventAtom, evaluator):
        self.formula = formula
        self.evaluator = evaluator

    def compute(self, state):
        disjuncts = []
        for event in state.events:
            if event.name != self.formula.name:
                continue
            if len(event.params) != len(self.formula.args):
                continue
            conjuncts = []
            for arg, value in zip(self.formula.args, event.params):
                sym = self.evaluator._term_value(arg, state)
                if sym is None:
                    conjuncts = [cs.CFALSE]
                    break
                conjuncts.append(cs.catom("=", sym, cs.SConst(value)))
            disjuncts.append(cs.cand(conjuncts))
        return cs.cor(disjuncts)


class _ExecutedNode(_Node):
    __slots__ = ("formula", "evaluator")

    def __init__(self, formula: ast.ExecutedAtom, evaluator):
        self.formula = formula
        self.evaluator = evaluator

    def compute(self, state):
        records = self.evaluator.ctx.executed.records(
            rule=self.formula.rule, before=state.timestamp
        )
        disjuncts = []
        for rec in records:
            if len(rec.params) != len(self.formula.args):
                continue
            conjuncts = []
            for arg, value in zip(self.formula.args, rec.params):
                sym = self.evaluator._term_value(arg, state)
                if sym is None:
                    conjuncts = [cs.CFALSE]
                    break
                conjuncts.append(cs.catom("=", sym, cs.SConst(value)))
            tsym = self.evaluator._term_value(self.formula.time, state)
            if tsym is None:
                continue
            conjuncts.append(cs.catom("=", tsym, cs.SConst(rec.time)))
            disjuncts.append(cs.cand(conjuncts))
        return cs.cor(disjuncts)


class _InQueryNode(_Node):
    __slots__ = ("formula", "evaluator", "_gate")

    def __init__(self, formula: ast.InQuery, evaluator):
        self.formula = formula
        self.evaluator = evaluator
        queries: list = [formula.query]
        args_ok = all(_term_queries(a, queries) for a in formula.args)
        self._gate = _atom_gate(queries) if args_ok else None

    def compute(self, state):
        gate = self._gate
        if gate is not None:
            hit = gate.lookup(state)
            if hit is not qplan.MISS:
                return hit
        result = self._compute(state)
        if gate is not None:
            gate.store(state, result)
        return result

    def _compute(self, state):
        from repro.query.evaluator import eval_query

        try:
            result = eval_query(self.formula.query, state, {})
        except Exception:
            return cs.CFALSE
        if not isinstance(result, Relation):
            rows_values = [(result,)]
        else:
            rows_values = [row.values for row in result.sorted_rows()]
        disjuncts = []
        for values in rows_values:
            if len(values) != len(self.formula.args):
                return cs.CFALSE
            conjuncts = []
            for arg, value in zip(self.formula.args, values):
                sym = self.evaluator._term_value(arg, state)
                if sym is None:
                    conjuncts = [cs.CFALSE]
                    break
                conjuncts.append(cs.catom("=", sym, cs.SConst(value)))
            disjuncts.append(cs.cand(conjuncts))
        return cs.cor(disjuncts)


class _NotNode(_Node):
    __slots__ = ("child",)

    def __init__(self, child: _Node):
        self.child = child

    def compute(self, state):
        return cs.cnot(self.child.compute(state))


class _AndNode(_Node):
    __slots__ = ("children",)

    def __init__(self, children: list[_Node]):
        self.children = children

    def compute(self, state):
        # Every child must compute at every step — temporal descendants
        # update their stored state as a side effect, so no short-circuit.
        results = [c.compute(state) for c in self.children]
        return cs.cand(results)


class _OrNode(_Node):
    __slots__ = ("children",)

    def __init__(self, children: list[_Node]):
        self.children = children

    def compute(self, state):
        results = [c.compute(state) for c in self.children]
        return cs.cor(results)


class _LasttimeNode(_Node):
    __slots__ = ("child", "stored", "label")

    def __init__(self, child: _Node, label: str):
        self.child = child
        self.stored: cs.C = cs.CFALSE
        self.label = label

    def compute(self, state):
        result = self.stored
        self.stored = self.child.compute(state)
        return result

    def get_state(self):
        return self.stored

    def set_state(self, snapshot):
        self.stored = snapshot

    def stored_size(self):
        return cs.size(self.stored)

    def prune(self, now, time_vars):
        self.stored = prune_time_bounds(self.stored, now, time_vars)

    def stored_formulas(self):
        return ((self.label, self.stored),)


class _SinceNode(_Node):
    __slots__ = ("lhs", "rhs", "stored", "started", "label")

    def __init__(self, lhs: _Node, rhs: _Node, label: str):
        self.lhs = lhs
        self.rhs = rhs
        self.stored: cs.C = cs.CFALSE
        self.started = False
        self.label = label

    def compute(self, state):
        f_lhs = self.lhs.compute(state)
        f_rhs = self.rhs.compute(state)
        if not self.started:
            current = f_rhs
            self.started = True
        else:
            current = cs.cor((f_rhs, cs.cand((f_lhs, self.stored))))
        self.stored = current
        return current

    def get_state(self):
        return (self.stored, self.started)

    def set_state(self, snapshot):
        self.stored, self.started = snapshot

    def stored_size(self):
        return cs.size(self.stored)

    def prune(self, now, time_vars):
        self.stored = prune_time_bounds(self.stored, now, time_vars)

    def stored_formulas(self):
        return ((self.label, self.stored),)


class _AssignNode(_Node):
    __slots__ = ("var", "query", "child", "_gate")

    def __init__(self, var: str, query, child: _Node):
        self.var = var
        self.query = query
        self.child = child
        self._gate = _atom_gate((query,))

    def compute(self, state):
        inner = self.child.compute(state)
        value = gated_query_value(self._gate, self.query, state)
        if value is UNDEFINED:
            return cs.CFALSE
        return cs.substitute(inner, {self.var: value})


def build_node(f: ast.Formula, avail: frozenset[str], owner, child) -> _Node:
    """The one formula -> node switch.  ``owner`` is the evaluator surface
    the atoms read through (``ctx``, ``_term_value``, ``_aggregates``);
    ``child(g, avail)`` compiles a subformula (hash-consed in
    :class:`~repro.ptl.plan.SharedPlan`).

    ``avail`` tracks variables assigned from ``time`` on the path from the
    root with no temporal operator in between — at every step their
    binding equals the current timestamp, which is what lets windowed
    aggregates resolve them."""
    if isinstance(f, ast.BoolConst):
        return _BoolNode(f.value)
    if isinstance(f, ast.Comparison):
        return _ComparisonNode(f, owner)
    if isinstance(f, ast.EventAtom):
        return _EventNode(f, owner)
    if isinstance(f, ast.ExecutedAtom):
        return _ExecutedNode(f, owner)
    if isinstance(f, ast.InQuery):
        return _InQueryNode(f, owner)
    if isinstance(f, ast.Not):
        return _NotNode(child(f.operand, avail))
    if isinstance(f, ast.And):
        return _AndNode([child(c, avail) for c in f.operands])
    if isinstance(f, ast.Or):
        return _OrNode([child(c, avail) for c in f.operands])
    if isinstance(f, ast.Lasttime):
        return _LasttimeNode(child(f.operand, frozenset()), str(f))
    if isinstance(f, ast.Since):
        return _SinceNode(
            child(f.lhs, frozenset()), child(f.rhs, frozenset()), str(f)
        )
    if isinstance(f, ast.Assign):
        if f.query.params():
            raise UnsafeFormulaError(
                f"assignment query {f.query} has unresolved parameters"
            )
        inner_avail = avail | {f.var} if f.query == TIME_QUERY else avail
        return _AssignNode(f.var, f.query, child(f.body, inner_avail))
    raise PTLError(f"cannot compile formula node {f!r}")


class _MemoNode(_Node):
    """Epoch-memoized wrapper around a shared node: however many parents
    (within one rule or across rules) reference it, ``compute`` runs once
    per plan step.  Besides the shared work, this is what keeps temporal
    nodes *correct* under sharing — a ``Since`` stepped twice per state
    would corrupt its recurrence.

    ``refs`` counts referencing parents (rule roots, parent memo nodes
    and aggregates): :meth:`SharedPlan.remove_rule` releases a removed
    rule's references and physically drops subtrees nobody shares any
    more."""

    __slots__ = ("inner", "plan", "_epoch", "_cached", "key", "refs")

    def __init__(self, inner: _Node, plan):
        self.inner = inner
        self.plan = plan
        self._epoch = -1
        self._cached: Optional[cs.C] = None
        #: The plan's sharing key (subformula, avail, prune set, birth).
        self.key = None
        #: Number of live references from roots, parents and aggregates.
        self.refs = 0

    def compute(self, state):
        if self._epoch == self.plan.epoch:
            return self._cached
        result = self.inner.compute(state)
        self._epoch = self.plan.epoch
        self._cached = result
        return result

    def get_state(self):
        return self.inner.get_state()

    def set_state(self, snapshot) -> None:
        self.inner.set_state(snapshot)

    def stored_size(self) -> int:
        return self.inner.stored_size()

    def prune(self, now, time_vars) -> None:
        self.inner.prune(now, time_vars)

    def stored_formulas(self):
        return self.inner.stored_formulas()


def peel(node):
    """The node behind any memo wrappers."""
    while isinstance(node, _MemoNode):
        node = node.inner
    return node


def children(node) -> tuple:
    """The DAG nodes hanging directly under ``node`` — the one child
    enumeration (plan release and the per-rule walks go through it).
    Children come back *as
    referenced*: memo wrappers on, since those carry the refcounts.  A
    comparison's children are the shared aggregates it reads, an
    aggregate's are its φ/ψ roots — so whatever walks the DAG sees
    aggregate sub-formulas like any other subformula."""
    node = peel(node)
    if isinstance(node, (_NotNode, _LasttimeNode, _AssignNode)):
        return (node.child,)
    if isinstance(node, (_AndNode, _OrNode)):
        return tuple(node.children)
    if isinstance(node, _SinceNode):
        return (node.lhs, node.rhs)
    if isinstance(node, _ComparisonNode):
        return node.aggs
    if isinstance(node, _AggregateState):
        if node.start is None:
            return (node.sample,)
        return (node.start, node.sample)
    return ()


# ---------------------------------------------------------------------------
# Temporal aggregates (direct pipeline)
# ---------------------------------------------------------------------------


def _is_time_pred(f: ast.Formula, avail: frozenset[str]) -> bool:
    """A *pure time predicate*: boolean combinations of comparisons whose
    terms use only the ``time`` item, constants, and variables in ``avail``
    (outer variables assigned from ``time``).  Such starting formulas are
    the paper's moving-window aggregates ("time <= u - 60")."""

    def term_ok(term: ast.Term) -> bool:
        if isinstance(term, ast.ConstT):
            return True
        if isinstance(term, ast.Var):
            return term.name in avail
        if isinstance(term, ast.QueryT):
            return term.query == TIME_QUERY
        if isinstance(term, ast.FuncT):
            return all(term_ok(a) for a in term.args)
        return False

    if isinstance(f, ast.BoolConst):
        return True
    if isinstance(f, ast.Comparison):
        return term_ok(f.left) and term_ok(f.right)
    if isinstance(f, ast.Not):
        return _is_time_pred(f.operand, avail)
    if isinstance(f, (ast.And, ast.Or)):
        return all(_is_time_pred(c, avail) for c in f.operands)
    return False


def _time_term(t: ast.Term, ts: int, env: Mapping[str, int]):
    """Value of a time-predicate term at a state with timestamp ``ts``."""
    if isinstance(t, ast.ConstT):
        return t.value
    if isinstance(t, ast.Var):
        return env[t.name]
    if isinstance(t, ast.QueryT):
        return ts
    if isinstance(t, ast.FuncT):
        return scalar_function(t.func)(*(_time_term(a, ts, env) for a in t.args))
    raise EvaluationError(f"not a time-predicate term: {t!r}")


def _eval_time_pred(f: ast.Formula, ts: int, env: Mapping[str, int]) -> bool:
    """Evaluate a pure time predicate at a state with timestamp ``ts``."""
    if isinstance(f, ast.BoolConst):
        return f.value
    if isinstance(f, ast.Comparison):
        return apply_comparison(
            f.op, _time_term(f.left, ts, env), _time_term(f.right, ts, env)
        )
    if isinstance(f, ast.Not):
        return not _eval_time_pred(f.operand, ts, env)
    if isinstance(f, ast.And):
        return all(_eval_time_pred(c, ts, env) for c in f.operands)
    if isinstance(f, ast.Or):
        return any(_eval_time_pred(c, ts, env) for c in f.operands)
    raise EvaluationError(f"not a time predicate: {f!r}")


def _is_monotone_window(f: ast.Formula, avail: frozenset[str]) -> bool:
    """Detect ``time <= u - c`` / ``time < u - c`` starting formulas, whose
    satisfying set only grows as the clock advances — entries before the
    current start index can then be pruned (bounded memory)."""
    if not isinstance(f, ast.Comparison) or f.op not in ("<=", "<"):
        return False
    if not (isinstance(f.left, ast.QueryT) and f.left.query == TIME_QUERY):
        return False
    right = f.right
    if isinstance(right, ast.Var):
        return right.name in avail
    return (
        isinstance(right, ast.FuncT)
        and right.func in ("-", "+")
        and isinstance(right.args[0], ast.Var)
        and right.args[0].name in avail
        and isinstance(right.args[1], ast.ConstT)
    )


class _AggregateState:
    """Running state for one temporal-aggregate term ``f(q, φ, ψ)``.

    Section 6.1.1 maintains the aggregate with two more rules — ``r1: φ →
    initialize F``, ``r2: ψ → update F`` — so φ and ψ are ordinary
    conditions: ``start`` and ``sample`` are *node references into the
    owning plan's DAG* (bound by :meth:`SharedPlan._ref_aggregate`;
    compiled, shared, refcounted, pruned and checkpointed like every other
    subformula), and the aggregate itself is a refcounted DAG node whose
    parents are the comparison atoms reading it (:func:`children`).

    Two modes:

    * **running** — ground starting formula: φ firing resets, a
      :class:`RunningAggregate` accumulates samples (O(1) per step).
    * **windowed** — starting formula is a pure time predicate over outer
      variables assigned from ``time`` (the paper's moving hourly
      average): a log of (timestamp, sampled, value) entries; at read time
      the start index is the latest entry satisfying the predicate with
      the outer variables bound to the *current* timestamp.  For monotone
      windows the log is pruned below the start index.  No φ node.
    """

    __slots__ = (
        "term",
        "mode",
        "avail",
        "ctx",
        "start",
        "sample",
        "key",
        "refs",
        "agg",
        "started",
        "poisoned",
        "log",
        "prunable",
        "now",
        "_qgate",
    )

    def __init__(
        self,
        term: ast.AggT,
        ctx: EvalContext,
        avail_time_vars: frozenset[str] = frozenset(),
    ):
        start_free = ast.free_variables(term.start)
        if ast.free_variables(term.sample):
            raise UnsafeFormulaError(
                f"aggregate sampling formula must be ground: {term}"
            )
        self.term = term
        self.ctx = ctx
        self.avail = frozenset(avail_time_vars)
        #: φ / ψ roots in the owning plan (φ only in running mode).
        self.start: Optional[_Node] = None
        self.sample: Optional[_Node] = None
        #: The plan's sharing key (term, avail, birth) and reader count.
        self.key = None
        self.refs = 0
        self.started = False
        self.poisoned = False
        self._qgate = _atom_gate((term.query,))
        if not start_free:
            self.mode = "running"
            self.agg = RunningAggregate(term.func)
            self.log = None
            self.prunable = False
        else:
            if not start_free <= self.avail or not _is_time_pred(
                term.start, self.avail
            ):
                raise UnsafeFormulaError(
                    "aggregate starting formula may only reference outer "
                    "variables assigned from 'time' (with no temporal "
                    f"operator in between): {term}"
                )
            self.mode = "windowed"
            self.agg = None
            #: (timestamp, sampled, value) per state.
            self.log = []
            self.prunable = _is_monotone_window(term.start, self.avail)
        self.now = None

    def step(self, state: SystemState) -> None:
        """Interpreted step: whether φ/ψ fire is read off the plan's
        nodes (memoized — the plan computes each once per state)."""
        ctx = self.ctx
        reset = (
            self.start is not None
            and fire_result(self.start.compute(state), state, ctx).fired
        )
        sampled = fire_result(self.sample.compute(state), state, ctx).fired
        self.advance(state, reset, sampled)

    def advance(self, state: SystemState, reset: bool, sampled: bool) -> None:
        """The r1/r2 actions for one state, given whether φ and ψ fired
        (``reset`` is ignored in windowed mode)."""
        self.now = state.timestamp
        if self.mode == "running":
            if reset:
                self.agg.reset()
                self.started = True
                self.poisoned = False
            if sampled and self.started:
                value = gated_query_value(self._qgate, self.term.query, state)
                if value is UNDEFINED:
                    self.poisoned = True
                else:
                    self.agg.add(value)
            return
        # windowed mode: record, then evaluate lazily at read time.
        value = None
        if sampled:
            v = gated_query_value(self._qgate, self.term.query, state)
            if v is UNDEFINED:
                self.poisoned = True
            else:
                value = v
        self.log.append((state.timestamp, sampled, value))
        if self.prunable:
            self._prune()

    def _start_index(self) -> Optional[int]:
        env = {name: self.now for name in self.avail}
        for k in range(len(self.log) - 1, -1, -1):
            if _eval_time_pred(self.term.start, self.log[k][0], env):
                return k
        return None

    def _prune(self) -> None:
        j = self._start_index()
        if j and j > 0:
            del self.log[:j]

    def value(self):
        if self.poisoned:
            return UNDEFINED
        if self.mode == "running":
            if not self.started:
                return UNDEFINED
            return self.agg.value_or(UNDEFINED)
        j = self._start_index()
        if j is None:
            return UNDEFINED
        samples = [v for (_, sampled, v) in self.log[j:] if sampled]
        from repro.query.functions import aggregate_function
        from repro.errors import QueryEvaluationError

        try:
            return aggregate_function(self.term.func)(samples)
        except QueryEvaluationError:
            return UNDEFINED

    def get_state(self):
        if self.mode == "running":
            return (self.started, self.poisoned, list(self.agg._samples))
        return (self.poisoned, list(self.log), self.now)

    def set_state(self, snap) -> None:
        if self.mode == "running":
            self.started, self.poisoned, samples = snap
            self.agg.reset()
            self.agg.add_all(samples)
        else:
            self.poisoned, log, self.now = snap
            self.log = list(log)

    def state_size(self) -> int:
        """Accumulator rows (φ/ψ state is the plan's, counted there)."""
        return self.agg.count if self.mode == "running" else len(self.log)

    # -- serialization (recovery checkpoints) --------------------------------

    def to_state(self) -> dict:
        if self.mode == "running":
            return {
                "mode": "running",
                "started": self.started,
                "poisoned": self.poisoned,
                "samples": [cs.encode_value(v) for v in self.agg._samples],
            }
        return {
            "mode": "windowed",
            "poisoned": self.poisoned,
            "log": [
                [ts, sampled, cs.encode_value(v)]
                for ts, sampled, v in self.log
            ],
            "now": self.now,
        }

    def from_state(self, state: dict) -> None:
        if state.get("mode") != self.mode:
            raise RecoveryError(
                f"aggregate mode mismatch: checkpoint says "
                f"{state.get('mode')!r}, evaluator compiled {self.mode!r}"
            )
        self.poisoned = state["poisoned"]
        if self.mode == "running":
            self.started = state["started"]
            self.agg.reset()
            self.agg.add_all([cs.decode_value(v) for v in state["samples"]])
        else:
            self.log = [
                (ts, sampled, cs.decode_value(v))
                for ts, sampled, v in state["log"]
            ]
            self.now = state["now"]


def _encode_node_state(snap) -> Optional[dict]:
    """JSON-encode one temporal node's stored state (``Lasttime`` stores a
    constraint formula; ``Since`` stores a formula plus its started flag)."""
    if snap is None:
        return None
    if isinstance(snap, tuple):
        stored, started = snap
        return {"k": "since", "f": cs.to_payload(stored), "started": started}
    return {"k": "last", "f": cs.to_payload(snap)}


def _decode_node_state(payload):
    if payload is None:
        return None
    if payload["k"] == "since":
        return (cs.from_payload(payload["f"]), payload["started"])
    return cs.from_payload(payload["f"])
