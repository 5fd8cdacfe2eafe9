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
    variants) in favour of ``Since``, ``Lasttime``, ``Not``, ``Assign``."""
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
        if isinstance(f, ast.Not):
            return ast.Not(rec(f.operand))
        if isinstance(f, ast.And):
            return ast.And(tuple([rec(c) for c in f.operands]))
        if isinstance(f, ast.Or):
            return ast.Or(tuple([rec(c) for c in f.operands]))
        if isinstance(f, ast.Since):
            return ast.Since(rec(f.lhs), rec(f.rhs))
        if isinstance(f, ast.Lasttime):
            return ast.Lasttime(rec(f.operand))
        if isinstance(f, ast.Assign):
            return ast.Assign(f.var, f.query, rec(f.body))
        if isinstance(f, ast.Comparison):
            return ast.Comparison(f.op, rec_term(f.left), rec_term(f.right))
        return f

    def rec_term(t: ast.Term) -> ast.Term:
        if isinstance(t, ast.AggT):
            return ast.AggT(t.func, t.query, rec(t.start), rec(t.sample))
        if isinstance(t, ast.FuncT):
            return ast.FuncT(t.func, tuple([rec_term(a) for a in t.args]))
        return t

    return rec(formula)


def rename_duplicate_assignments(formula: ast.Formula) -> ast.Formula:
    """Ensure every assignment operator binds a distinct variable name,
    renaming later occurrences (and their bound uses) with fresh names."""
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
            inner_renaming = dict(renaming)
            inner_renaming.pop(f.var, None)
            return ast.Assign(f.var, query, rec(f.body, inner_renaming))
        if isinstance(f, ast.Comparison):
            return ast.Comparison(
                f.op,
                _rename_term(f.left, renaming, rec),
                _rename_term(f.right, renaming, rec),
            )
        if isinstance(f, ast.EventAtom):
            return ast.EventAtom(
                f.name,
                tuple([_rename_term(a, renaming, rec) for a in f.args]),
            )
        if isinstance(f, ast.ExecutedAtom):
            return ast.ExecutedAtom(
                f.rule,
                tuple([_rename_term(a, renaming, rec) for a in f.args]),
                _rename_term(f.time, renaming, rec),
            )
        if isinstance(f, ast.InQuery):
            return ast.InQuery(
                tuple([_rename_term(a, renaming, rec) for a in f.args]),
                _rename_query(f.query, renaming),
            )
        if isinstance(f, ast.Not):
            return ast.Not(rec(f.operand, renaming))
        if isinstance(f, ast.And):
            return ast.And(tuple([rec(c, renaming) for c in f.operands]))
        if isinstance(f, ast.Or):
            return ast.Or(tuple([rec(c, renaming) for c in f.operands]))
        if isinstance(f, ast.Since):
            return ast.Since(rec(f.lhs, renaming), rec(f.rhs, renaming))
        if isinstance(f, ast.Lasttime):
            return ast.Lasttime(rec(f.operand, renaming))
        if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
            raise PTLError("expand derived operators before renaming")
        return f

    return rec(formula, {})


def _rename_term(term: ast.Term, renaming: dict[str, str], rec) -> ast.Term:
    if isinstance(term, ast.Var):
        return ast.Var(renaming.get(term.name, term.name))
    if isinstance(term, ast.FuncT):
        return ast.FuncT(
            term.func,
            tuple([_rename_term(a, renaming, rec) for a in term.args]),
        )
    if isinstance(term, ast.QueryT):
        return ast.QueryT(_rename_query(term.query, renaming))
    if isinstance(term, ast.AggT):
        return ast.AggT(
            term.func,
            _rename_query(term.query, renaming),
            rec(term.start, renaming),
            rec(term.sample, renaming),
        )
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
