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

r1 and r2 are real rules: each rewritten condition owns one maintenance
:class:`~repro.ptl.plan.SharedPlan` holding them, and F is that plan's
:class:`repro.ptl.incremental._AggregateState` — the accumulator the
evaluator's *direct* pipeline (the ablation counterpart) reads as a term
value.  The two pipelines are two read paths over one maintenance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.errors import UnsafeFormulaError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.plan import IncrementalEvaluator, SharedPlan
from repro.ptl.rewrite import normalize
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
    #: Names of the maintenance rules (the paper's r1, r2) in the
    #: executor's plan.
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


def _item_values(agg) -> tuple:
    """The maintained items of one accumulator F, in ``item_names``
    order (``None`` = undefined: before the first φ, or poisoned; the
    caller zips against the names, so one spare ``None`` is harmless)."""
    if not agg.started or agg.poisoned:
        return (None, None)
    acc = agg.agg
    if acc.name == "avg":
        return (acc._sum, acc._count)
    if acc.name == "sum":
        return (acc._sum,)
    if acc.name == "count":
        return (acc._count,)
    return (acc._extremum,)  # min / max: None until the first sample


class AggregateExecutor:
    """The maintenance rules of one rewritten condition — an r1/r2 pair
    per aggregate — registered in one :class:`SharedPlan`, whose shared
    accumulators the overlay items are read off.  Whatever steps a plan
    (interpreted nodes, or a compiled chain under ``REPRO_PTL_COMPILE=1``)
    steps the maintenance."""

    def __init__(self, ctx: EvalContext) -> None:
        self.plan = SharedPlan(ctx)
        #: (item names, r2's view) per rewritten aggregate.
        self._maintained: list = []

    def add(self, rewritten: RewrittenAggregate) -> None:
        view = self.plan.add_aggregate_rules(
            rewritten.term, rewritten.rule_names
        )
        self._maintained.append((rewritten.item_names, view))

    def step(self, state: SystemState) -> dict[str, Any]:
        self.plan.step(state)
        overlay: dict[str, Any] = {}
        for names, view in self._maintained:
            overlay.update(zip(names, _item_values(view.entry.maintains)))
        return overlay


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
    condition = normalize(condition)
    executor = AggregateExecutor(ctx or EvalContext())
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
            # Aggregates nested in start/sample stay direct: they compile
            # into the maintenance plan with the rule that reads them.
            names = fresh_names(term.func)
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
            executor.add(rewritten[-1])
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
        if isinstance(f, ast.Assign):
            return ast.Assign(f.var, f.query, rec(f.body))
        return f

    return AggregateRewrite(rec(condition), rewritten, executor)


class RewrittenEvaluator(IncrementalEvaluator):
    """Drop-in evaluator running a rewritten condition: an
    :class:`IncrementalEvaluator` of the aggregate-free condition that
    first steps the maintenance rules and overlays the maintained items.
    Its retained state is the two plans' — condition plus maintenance."""

    def __init__(
        self,
        condition: ast.Formula,
        ctx: Optional[EvalContext] = None,
        optimize: bool = True,
        metrics=None,
        name=None,
    ):
        ctx = ctx or EvalContext()
        self.rewrite = rewrite_condition(condition, ctx)
        self.maintenance = self.rewrite.executor.plan
        super().__init__(
            self.rewrite.condition, ctx, optimize, metrics=metrics, name=name
        )

    def step(self, state: SystemState):
        overlay = self.rewrite.executor.step(state)
        return super().step(OverlayState(state, overlay))

    def stored_formulas(self):
        return super().stored_formulas() + self.maintenance.stored_formulas()

    def aux_rows(self) -> int:
        return super().aux_rows() + self.maintenance.aux_rows()

    def compiled_ops(self) -> int:
        """Chain slots of the condition plus the maintenance plan (0 on
        the interpreted path)."""
        return super().compiled_ops() + self.maintenance.compiled_ops()

    def snapshot(self):
        return (super().snapshot(), self.maintenance.snapshot())

    def restore(self, snap) -> None:
        mine, maintenance = snap
        self.maintenance.restore(maintenance)
        super().restore(mine)
