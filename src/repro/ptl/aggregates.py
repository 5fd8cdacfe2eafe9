"""Temporal-aggregate processing via rewriting (Section 6.1.1).

The paper replaces each aggregate ``f(q, phi, psi)`` in a rule condition by
a new database item F, plus two rules that maintain F::

    r1 : phi  ->  initialize F
    r2 : psi  ->  update F with the current value of q

e.g. the running example ``Avg(price(IBM), time = 9AM, update_stocks) > 70``
becomes ``CUM_PRICE / TOTAL_UPDATES > 70`` with rules r1 (reset both items
at 9AM) and r2 (accumulate on each ``update_stocks``).

This module compiles that construction.  The maintained items are kept in
an *overlay* on top of each system state rather than as committed database
items: rule actions in the paper execute as transactions, which would make
the updated item visible only at the *next* state — the overlay applies the
r1/r2 updates synchronously so the rewritten condition is exactly
equivalent to the direct aggregate semantics (benchmark E5 verifies the
equivalence and compares cost).

The incremental evaluator's *direct* pipeline
(:class:`repro.ptl.incremental._AggregateState`) is the ablation
counterpart.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import UnsafeFormulaError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.semantics import UNDEFINED, eval_query_value
from repro.query import ast as qast

_counter = itertools.count()


@dataclass
class RewrittenAggregate:
    """One aggregate occurrence compiled to maintained items + two rules."""

    term: ast.AggT
    #: Query that replaces the aggregate term in the condition.
    replacement: qast.Query
    #: Names of the overlay items backing this aggregate.
    item_names: tuple[str, ...]
    #: Names of the generated maintenance rules (the paper's r1, r2).
    rule_names: tuple[str, str]


@dataclass
class AggregateRewrite:
    """Outcome of rewriting a condition: the aggregate-free condition plus
    the executor that maintains the overlay items."""

    condition: ast.Formula
    rewritten: list[RewrittenAggregate]
    executor: "AggregateExecutor"

    @property
    def item_names(self) -> list[str]:
        return [n for r in self.rewritten for n in r.item_names]

    @property
    def rule_count(self) -> int:
        """Total rules after rewriting (original + 2 per aggregate)."""
        return 1 + 2 * len(self.rewritten)


class _MaintainedAggregate:
    """Runtime state of one rewritten aggregate: the r1/r2 rule pair."""

    def __init__(self, term: ast.AggT, names: tuple[str, ...], ctx: EvalContext):
        from repro.ptl.incremental import _CoreEvaluator, _atom_gate, gated_query_value

        if ast.free_variables(term.start) or ast.free_variables(term.sample):
            raise UnsafeFormulaError(
                f"aggregate starting/sampling formulas must be ground: {term}"
            )
        self.term = term
        self.names = names
        self.start_eval = _CoreEvaluator(term.start, ctx)
        self.sample_eval = _CoreEvaluator(term.sample, ctx)
        self.started = False
        self.poisoned = False
        self.values: dict[str, Any] = {name: None for name in names}
        self._qgate = _atom_gate((term.query,))
        self._gated_value = gated_query_value

    def _initialize(self) -> None:
        func = self.term.func
        self.started = True
        self.poisoned = False
        if func == "sum":
            self.values[self.names[0]] = 0
        elif func == "count":
            self.values[self.names[0]] = 0
        elif func == "avg":
            self.values[self.names[0]] = 0
            self.values[self.names[1]] = 0
        else:  # min / max: undefined until the first sample
            self.values[self.names[0]] = None

    def step(self, state: SystemState) -> dict[str, Any]:
        func = self.term.func
        # r1: initialize on the starting formula.
        if self.start_eval.step(state).fired:
            self._initialize()
        # r2: update on the sampling formula.
        sampled = self.sample_eval.step(state).fired
        if sampled and self.started and not self.poisoned:
            value = self._gated_value(self._qgate, self.term.query, state)
            if value is UNDEFINED:
                self.poisoned = True
            elif func in ("sum", "avg"):
                self.values[self.names[0]] += value
                if func == "avg":
                    self.values[self.names[1]] += 1
            elif func == "count":
                self.values[self.names[0]] += 1
            elif func == "min":
                cur = self.values[self.names[0]]
                self.values[self.names[0]] = value if cur is None else min(cur, value)
            elif func == "max":
                cur = self.values[self.names[0]]
                self.values[self.names[0]] = value if cur is None else max(cur, value)
        if not self.started or self.poisoned:
            return {name: None for name in self.names}
        return dict(self.values)


#: Sentinel: the lowering declined this executor — stay interpreted.
_EXEC_NO_CHAIN = object()


class AggregateExecutor:
    """Steps every maintained aggregate and produces the overlay mapping.

    Under ``REPRO_PTL_COMPILE=1`` the r1/r2 maintenance of every
    lowerable aggregate runs as one generated function (overlay writes
    included); state authority stays in the ``_MaintainedAggregate``
    objects, so checkpoints and the interpreted differential oracle are
    unchanged."""

    def __init__(self) -> None:
        self._maintained: list[_MaintainedAggregate] = []
        self._chain = None

    def add(self, maintained: _MaintainedAggregate) -> None:
        self._maintained.append(maintained)
        self._chain = None

    def _ensure_chain(self):
        chain = self._chain
        if chain is None:
            from repro.ptl.compiled import try_lower_executor

            chain = try_lower_executor(self._maintained)
            self._chain = chain if chain is not None else _EXEC_NO_CHAIN
        return self._chain

    def step(self, state: SystemState) -> dict[str, Any]:
        from repro.ptl import compiled as _compiled

        if self._maintained and _compiled._PTL_COMPILE:
            chain = self._ensure_chain()
            if chain is not _EXEC_NO_CHAIN:
                chain.fn(state)
                overlay = dict(chain.overlay)
                for m in chain.uncompiled:
                    overlay.update(m.step(state))
                return overlay
        overlay: dict[str, Any] = {}
        for m in self._maintained:
            overlay.update(m.step(state))
        return overlay

    def compiled_ops(self) -> int:
        """Maintained aggregates running on generated code (0 when the
        toggle is off or the lowering declined)."""
        from repro.ptl import compiled as _compiled

        if not _compiled._PTL_COMPILE:
            return 0
        chain = self._chain
        if chain is None or chain is _EXEC_NO_CHAIN:
            return 0
        return chain.n_ops

    def __len__(self) -> int:
        return len(self._maintained)


class OverlayState:
    """A system state extended with overlay items (the maintained F's).

    Satisfies the query StateView protocol; overlay items shadow database
    items of the same name.
    """

    __slots__ = ("base", "overlay")

    def __init__(self, base: SystemState, overlay: dict[str, Any]):
        self.base = base
        self.overlay = overlay

    @property
    def events(self):
        return self.base.events

    @property
    def timestamp(self):
        return self.base.timestamp

    @property
    def index(self):
        return self.base.index

    @property
    def db(self):
        return self.base.db

    def relation(self, name: str):
        return self.base.relation(name)

    def item(self, name: str, index: tuple = ()):
        if name in self.overlay:
            return self.overlay[name]
        return self.base.item(name, index)

    def has_relation(self, name: str) -> bool:
        return self.base.has_relation(name)

    def has_item(self, name: str) -> bool:
        return name in self.overlay or self.base.has_item(name)


def rewrite_condition(
    condition: ast.Formula,
    ctx: Optional[EvalContext] = None,
    prefix: str = "AGG",
) -> AggregateRewrite:
    """Compile every aggregate term out of ``condition`` (Section 6.1.1).

    Returns the aggregate-free condition (reading maintained items instead)
    and the executor producing the per-state overlay.  Aggregates with free
    variables are not rewritten here — the evaluator's domain instantiation
    grounds them first (the paper's "multiple database items, indexed with
    different values for the free variables").
    """
    ctx = ctx or EvalContext()
    executor = AggregateExecutor()
    rewritten: list[RewrittenAggregate] = []

    def fresh_names(func: str) -> tuple[str, ...]:
        n = next(_counter)
        if func == "avg":
            return (f"{prefix}_{n}_SUM", f"{prefix}_{n}_COUNT")
        return (f"{prefix}_{n}_{func.upper()}",)

    def rewrite_term(term: ast.Term) -> ast.Term:
        if isinstance(term, ast.AggT):
            if ast.free_variables(term.start):
                # Moving-window aggregates (starting formula over an outer
                # time variable, Section 6's hourly average) have no
                # r1/r2 item construction — they stay on the evaluator's
                # direct pipeline.
                return term
            if term.query.params():
                raise UnsafeFormulaError(
                    f"rewrite_condition needs a ground aggregate query: "
                    f"{term.query} (instantiate domains first)"
                )
            # Nested aggregates in start/sample are handled by the
            # sub-evaluators inside _MaintainedAggregate directly.
            names = fresh_names(term.func)
            maintained = _MaintainedAggregate(term, names, ctx)
            executor.add(maintained)
            if term.func == "avg":
                replacement = qast.ExprQuery(
                    "/", (qast.ItemRef(names[0]), qast.ItemRef(names[1]))
                )
            else:
                replacement = qast.ItemRef(names[0])
            n = len(rewritten)
            rewritten.append(
                RewrittenAggregate(
                    term,
                    replacement,
                    names,
                    (f"r{2 * n + 1}__init", f"r{2 * n + 2}__update"),
                )
            )
            return ast.QueryT(replacement)
        if isinstance(term, ast.FuncT):
            return ast.FuncT(term.func, tuple(rewrite_term(a) for a in term.args))
        return term

    def rec(f: ast.Formula) -> ast.Formula:
        if isinstance(f, ast.Comparison):
            return ast.Comparison(f.op, rewrite_term(f.left), rewrite_term(f.right))
        if isinstance(f, ast.Not):
            return ast.Not(rec(f.operand))
        if isinstance(f, ast.And):
            return ast.And(tuple(rec(c) for c in f.operands))
        if isinstance(f, ast.Or):
            return ast.Or(tuple(rec(c) for c in f.operands))
        if isinstance(f, ast.Since):
            return ast.Since(rec(f.lhs), rec(f.rhs))
        if isinstance(f, ast.Lasttime):
            return ast.Lasttime(rec(f.operand))
        if isinstance(f, ast.Previously):
            return ast.Previously(rec(f.operand), f.window)
        if isinstance(f, ast.ThroughoutPast):
            return ast.ThroughoutPast(rec(f.operand), f.window)
        if isinstance(f, ast.Assign):
            return ast.Assign(f.var, f.query, rec(f.body))
        return f

    new_condition = rec(condition)
    return AggregateRewrite(new_condition, rewritten, executor)


class RewrittenEvaluator:
    """Drop-in evaluator running a rewritten condition: steps the
    aggregate-maintenance rules, overlays the maintained items, then steps
    the aggregate-free condition."""

    def __init__(
        self,
        condition: ast.Formula,
        ctx: Optional[EvalContext] = None,
        optimize: bool = True,
        metrics=None,
        name=None,
    ):
        from repro.ptl.plan import IncrementalEvaluator

        self.ctx = ctx or EvalContext()
        self.rewrite = rewrite_condition(condition, self.ctx)
        self.evaluator = IncrementalEvaluator(
            self.rewrite.condition, self.ctx, optimize,
            metrics=metrics, name=name,
        )

    def step(self, state: SystemState):
        overlay = self.rewrite.executor.step(state)
        return self.evaluator.step(OverlayState(state, overlay))

    def state_size(self) -> int:
        return self.evaluator.state_size()

    def compiled_ops(self) -> int:
        """Chain slots of the underlying evaluator plus maintained
        aggregates lowered into the executor's generated function, when
        the compiled recurrence backend is active (0 on the interpreted
        path)."""
        return (
            self.evaluator.compiled_ops()
            + self.rewrite.executor.compiled_ops()
        )
