"""Formula rewriting: derived operators and variable hygiene.

Section 4.1: "Other temporal operators, such as Previously and Throughout
the Past, can be expressed in terms of the basic operators":

* ``previously f``       == ``true since f``
* ``throughout_past f``  == ``!(true since !f)``

Bounded windows desugar with the assignment operator exactly as the paper's
SHARP-INCREASE example binds ``t`` to ``time``:

* ``previously[w] f``      == ``[u := time] (true since (f & time >= u - w))``
* ``throughout_past[w] f`` == ``[u := time] !(true since (!f & time >= u - w))``

where ``u`` is a fresh variable.  Because ``u`` is assigned from ``time``
(monotone), the Section 5 optimization prunes the expansion's state to a
bounded window.

Section 5 also assumes "each bound variable x is assigned a query value at
most once in the formula; if this condition is not satisfied, we can simply
rename some of the occurrences" — :func:`rename_duplicate_assignments` does
that renaming.
"""

from __future__ import annotations

from typing import Callable

from repro._intern import same
from repro.errors import PTLError
from repro.ptl import ast
from repro.query import ast as qast
from repro.query.subst import substitute_query

#: Query AST for the clock data item.
TIME_QUERY = qast.ItemRef("time")
#: Term for the current timestamp.
TIME_TERM = ast.QueryT(TIME_QUERY)


class FreshNames:
    """Generator of fresh variable names (``__v0``, ``__v1``, ...)."""

    def __init__(self, taken: frozenset[str] = frozenset()):
        self._taken = set(taken)
        self._counter = 0

    def fresh(self, hint: str = "v") -> str:
        while True:
            name = f"__{hint}{self._counter}"
            self._counter += 1
            if name not in self._taken:
                self._taken.add(name)
                return name


def expand_derived(formula: ast.Formula, fresh: FreshNames = None) -> ast.Formula:
    """Eliminate ``Previously``/``ThroughoutPast`` (and their bounded
    variants) in favour of ``Since``, ``Lasttime``, ``Not``, ``Assign``.
    A subformula with nothing to expand comes back as the same object."""
    if fresh is None:
        fresh = FreshNames(formula.variables())

    def rec(f: ast.Formula) -> ast.Formula:
        if isinstance(f, ast.Previously):
            body = rec(f.operand)
            if f.window is None:
                return ast.Since(ast.TRUE, body)
            u = fresh.fresh("bnd")
            recent = ast.Comparison(
                ">=",
                TIME_TERM,
                ast.FuncT("-", (ast.Var(u), ast.ConstT(f.window))),
            )
            return ast.Assign(
                u, TIME_QUERY, ast.Since(ast.TRUE, ast.And((body, recent)))
            )
        if isinstance(f, ast.ThroughoutPast):
            inner = ast.Previously(ast.Not(f.operand), f.window)
            return ast.Not(rec(inner))
        if isinstance(f, (ast.Not, ast.Lasttime)):
            operand = rec(f.operand)
            return f if operand is f.operand else type(f)(operand)
        if isinstance(f, (ast.And, ast.Or)):
            operands = [rec(c) for c in f.operands]
            if same(operands, f.operands):
                return f
            return type(f)(tuple(operands))
        if isinstance(f, ast.Since):
            lhs, rhs = rec(f.lhs), rec(f.rhs)
            if lhs is f.lhs and rhs is f.rhs:
                return f
            return ast.Since(lhs, rhs)
        if isinstance(f, ast.Assign):
            body = rec(f.body)
            return f if body is f.body else ast.Assign(f.var, f.query, body)
        if isinstance(f, ast.Comparison):
            left, right = rec_term(f.left), rec_term(f.right)
            if left is f.left and right is f.right:
                return f
            return ast.Comparison(f.op, left, right)
        return f

    def rec_term(t: ast.Term) -> ast.Term:
        if isinstance(t, ast.AggT):
            start, sample = rec(t.start), rec(t.sample)
            if start is t.start and sample is t.sample:
                return t
            return ast.AggT(t.func, t.query, start, sample)
        if isinstance(t, ast.FuncT):
            args = [rec_term(a) for a in t.args]
            return t if same(args, t.args) else ast.FuncT(t.func, tuple(args))
        return t

    return rec(formula)


def rename_duplicate_assignments(formula: ast.Formula) -> ast.Formula:
    """Ensure every assignment operator binds a distinct variable name,
    renaming later occurrences (and their bound uses) with fresh names.
    A subformula that needs no renaming comes back as the same object."""
    fresh = FreshNames(formula.variables())
    seen: set[str] = set()

    def rec(f: ast.Formula, renaming: dict[str, str]) -> ast.Formula:
        if isinstance(f, ast.Assign):
            query = _rename_query(f.query, renaming)
            if f.var in seen:
                new_name = fresh.fresh(f.var.strip("_") or "v")
                inner_renaming = dict(renaming)
                inner_renaming[f.var] = new_name
                seen.add(new_name)
                return ast.Assign(new_name, query, rec(f.body, inner_renaming))
            seen.add(f.var)
            inner_renaming = renaming
            if f.var in renaming:
                inner_renaming = dict(renaming)
                del inner_renaming[f.var]
            body = rec(f.body, inner_renaming)
            if query is f.query and body is f.body:
                return f
            return ast.Assign(f.var, query, body)
        if isinstance(f, ast.Comparison):
            left = _rename_term(f.left, renaming, rec)
            right = _rename_term(f.right, renaming, rec)
            if left is f.left and right is f.right:
                return f
            return ast.Comparison(f.op, left, right)
        if isinstance(f, ast.EventAtom):
            args = _rename_terms(f.args, renaming, rec)
            return f if args is f.args else ast.EventAtom(f.name, args)
        if isinstance(f, ast.ExecutedAtom):
            args = _rename_terms(f.args, renaming, rec)
            time = _rename_term(f.time, renaming, rec)
            if args is f.args and time is f.time:
                return f
            return ast.ExecutedAtom(f.rule, args, time)
        if isinstance(f, ast.InQuery):
            args = _rename_terms(f.args, renaming, rec)
            query = _rename_query(f.query, renaming)
            if args is f.args and query is f.query:
                return f
            return ast.InQuery(args, query)
        if isinstance(f, (ast.Not, ast.Lasttime)):
            operand = rec(f.operand, renaming)
            return f if operand is f.operand else type(f)(operand)
        if isinstance(f, (ast.And, ast.Or)):
            operands = [rec(c, renaming) for c in f.operands]
            if same(operands, f.operands):
                return f
            return type(f)(tuple(operands))
        if isinstance(f, ast.Since):
            lhs, rhs = rec(f.lhs, renaming), rec(f.rhs, renaming)
            if lhs is f.lhs and rhs is f.rhs:
                return f
            return ast.Since(lhs, rhs)
        if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
            raise PTLError("expand derived operators before renaming")
        return f

    return rec(formula, {})


def _rename_terms(terms: tuple, renaming: dict[str, str], rec) -> tuple:
    """``terms`` renamed, or ``terms`` itself when nothing changed."""
    out = [_rename_term(a, renaming, rec) for a in terms]
    return terms if same(out, terms) else tuple(out)


def _rename_term(term: ast.Term, renaming: dict[str, str], rec) -> ast.Term:
    if isinstance(term, ast.Var):
        name = renaming.get(term.name)
        return term if name is None else ast.Var(name)
    if isinstance(term, ast.FuncT):
        args = _rename_terms(term.args, renaming, rec)
        return term if args is term.args else ast.FuncT(term.func, args)
    if isinstance(term, ast.QueryT):
        query = _rename_query(term.query, renaming)
        return term if query is term.query else ast.QueryT(query)
    if isinstance(term, ast.AggT):
        query = _rename_query(term.query, renaming)
        start, sample = rec(term.start, renaming), rec(term.sample, renaming)
        if query is term.query and start is term.start and sample is term.sample:
            return term
        return ast.AggT(term.func, query, start, sample)
    return term


def _rename_query(query: qast.Query, renaming: dict[str, str]) -> qast.Query:
    if not renaming:
        return query
    mapping = {old: qast.Param(new) for old, new in renaming.items()}
    return substitute_query(query, mapping)


def normalize(formula: ast.Formula) -> ast.Formula:
    """Full normalization pipeline: expand derived operators, then rename
    duplicate assignments.  Evaluators call this before compilation."""
    return rename_duplicate_assignments(expand_derived(formula))
