"""Reference (offline) semantics of PTL over full histories.

This is the declarative ground truth of Section 4.2: satisfaction of a
formula at position i of a system history, by structural recursion.  It is
deliberately simple and *not* incremental — the incremental algorithm of
Section 5 must agree with it (Theorem 1), and our property tests check
exactly that.  It also powers the naive baseline
(:mod:`repro.baselines.naive`) and offline integrity-constraint checking in
the valid-time model (Section 9.3).

Undefined values (an aggregate before its starting formula ever held, a
division by zero inside a term) make the enclosing *atom* false rather
than poisoning the whole formula.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.errors import EvaluationError, QueryEvaluationError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext, domain_values
from repro.ptl.rewrite import normalize
from repro.ptl.values import UNDEFINED, Undefined, eval_query_value
from repro.query.evaluator import apply_comparison, eval_query
from repro.query.functions import aggregate_function, scalar_function
from repro.datamodel.relation import Relation

__all__ = [
    "UNDEFINED",
    "Undefined",
    "answers",
    "eval_aggregate",
    "eval_query_value",
    "eval_term",
    "satisfies",
]


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


def eval_term(
    term: ast.Term,
    history: Sequence[SystemState],
    i: int,
    env: Mapping[str, Any],
    ctx: EvalContext,
) -> Any:
    """Value of ``term`` at position ``i`` under ``env``."""
    if isinstance(term, ast.ConstT):
        return term.value
    if isinstance(term, ast.Var):
        if term.name not in env:
            raise EvaluationError(f"unbound variable {term.name!r}")
        return env[term.name]
    if isinstance(term, ast.FuncT):
        args = [eval_term(a, history, i, env, ctx) for a in term.args]
        if any(a is UNDEFINED for a in args):
            return UNDEFINED
        try:
            return scalar_function(term.func)(*args)
        except QueryEvaluationError:
            return UNDEFINED
    if isinstance(term, ast.QueryT):
        return eval_query_value(term.query, history[i], env)
    if isinstance(term, ast.AggT):
        return eval_aggregate(term, history, i, env, ctx)
    raise EvaluationError(f"unknown term {term!r}")


def eval_aggregate(
    term: ast.AggT,
    history: Sequence[SystemState],
    i: int,
    env: Mapping[str, Any],
    ctx: EvalContext,
) -> Any:
    """Section 6 semantics: let j be the highest index <= i whose prefix
    satisfies the starting formula; aggregate the query's value at every
    k in [j, i] whose prefix satisfies the sampling formula."""
    j = None
    for k in range(i, -1, -1):
        if satisfies(history, k, term.start, env, ctx):
            j = k
            break
    if j is None:
        return UNDEFINED
    samples = []
    for k in range(j, i + 1):
        if satisfies(history, k, term.sample, env, ctx):
            value = eval_query_value(term.query, history[k], env)
            if value is UNDEFINED:
                return UNDEFINED
            samples.append(value)
    try:
        return aggregate_function(term.func)(samples)
    except QueryEvaluationError:
        return UNDEFINED


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


def satisfies(
    history: Sequence[SystemState],
    i: int,
    formula: ast.Formula,
    env: Optional[Mapping[str, Any]] = None,
    ctx: Optional[EvalContext] = None,
) -> bool:
    """Does the history prefix ending at position ``i`` satisfy ``formula``
    under ``env``?

    ``env`` must bind every non-assignment-bound variable of the formula;
    use :func:`answers` to search for satisfying bindings.
    """
    env = dict(env or {})
    ctx = ctx or EvalContext()
    if not (0 <= i < len(history)):
        raise EvaluationError(f"position {i} outside history of length {len(history)}")
    return _sat(history, i, formula, env, ctx)


def _sat(history, i, f, env, ctx) -> bool:
    if isinstance(f, ast.BoolConst):
        return f.value
    if isinstance(f, ast.Comparison):
        left = eval_term(f.left, history, i, env, ctx)
        right = eval_term(f.right, history, i, env, ctx)
        if left is UNDEFINED or right is UNDEFINED:
            return False
        try:
            return apply_comparison(f.op, left, right)
        except QueryEvaluationError:
            return False
    if isinstance(f, ast.EventAtom):
        for event in history[i].events:
            if event.name != f.name or len(event.params) != len(f.args):
                continue
            values = [eval_term(a, history, i, env, ctx) for a in f.args]
            if any(v is UNDEFINED for v in values):
                continue
            if tuple(values) == event.params:
                return True
        return False
    if isinstance(f, ast.InQuery):
        result = eval_query(f.query, history[i], env)
        if not isinstance(result, Relation):
            result_values = {(result,)}
        else:
            result_values = {row.values for row in result}
        values = tuple(eval_term(a, history, i, env, ctx) for a in f.args)
        if any(v is UNDEFINED for v in values):
            return False
        return values in result_values
    if isinstance(f, ast.ExecutedAtom):
        now = history[i].timestamp
        t = eval_term(f.time, history, i, env, ctx)
        if t is UNDEFINED:
            return False
        values = tuple(eval_term(a, history, i, env, ctx) for a in f.args)
        if any(v is UNDEFINED for v in values):
            return False
        for rec in ctx.executed.records(rule=f.rule, before=now):
            if rec.time == t and rec.params == values:
                return True
        return False
    if isinstance(f, ast.Not):
        return not _sat(history, i, f.operand, env, ctx)
    if isinstance(f, ast.And):
        return all(_sat(history, i, c, env, ctx) for c in f.operands)
    if isinstance(f, ast.Or):
        return any(_sat(history, i, c, env, ctx) for c in f.operands)
    if isinstance(f, ast.Lasttime):
        return i > 0 and _sat(history, i - 1, f.operand, env, ctx)
    if isinstance(f, ast.Since):
        j = i
        while j >= 0:
            if _sat(history, j, f.rhs, env, ctx):
                return True
            if not _sat(history, j, f.lhs, env, ctx):
                return False
            j -= 1
        return False
    if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
        # Derived operators are accepted directly for convenience.
        return _sat(history, i, normalize(f), env, ctx)
    if isinstance(f, ast.Assign):
        value = eval_query_value(f.query, history[i], env)
        if value is UNDEFINED:
            return False
        inner = dict(env)
        inner[f.var] = value
        return _sat(history, i, f.body, inner, ctx)
    raise EvaluationError(f"unknown formula {f!r}")


# ---------------------------------------------------------------------------
# Answers: satisfying assignments for free variables
# ---------------------------------------------------------------------------


def answers(
    history: Sequence[SystemState],
    i: int,
    formula: ast.Formula,
    ctx: Optional[EvalContext] = None,
) -> list[dict[str, Any]]:
    """All satisfying assignments of the formula's free (non-assignment-
    bound) variables at position ``i``, by candidate enumeration.

    Candidates per variable: declared domain values (evaluated at each
    state up to ``i``), event parameters from the history, execution-record
    values, and constants compared for equality with the variable in the
    formula.  This matches the answer semantics of the incremental
    evaluator on safe formulas.
    """
    ctx = ctx or EvalContext()
    free = sorted(ast.free_variables(formula))
    if not free:
        return [{}] if satisfies(history, i, formula, {}, ctx) else []

    candidates = _candidate_values(history, i, formula, free, ctx)
    # Every pool also carries the fresh-value witness: a variable that is
    # only negatively constrained (e.g. ``!@e1(u)``) satisfies the formula
    # with a value matching nothing (see repro.ptl.constraints.FRESH).
    from repro.ptl.constraints import FRESH

    for name in free:
        candidates.setdefault(name, set()).add(FRESH)

    out: list[dict[str, Any]] = []

    def rec(k: int, env: dict) -> None:
        if k == len(free):
            if satisfies(history, i, formula, env, ctx):
                out.append(dict(env))
            return
        name = free[k]
        for value in sorted(candidates[name], key=repr):
            env[name] = value
            rec(k + 1, env)
            del env[name]

    rec(0, {})
    return out


def _candidate_values(history, i, formula, free, ctx) -> dict[str, set]:
    candidates: dict[str, set] = {name: set() for name in free}

    # Declared domains, evaluated at every state up to i.
    for name in free:
        if name in ctx.domains:
            for k in range(i + 1):
                for v in domain_values(ctx.domains[name], history[k]):
                    candidates[name].add(v)

    # Structural candidates from atoms.
    def visit(f: ast.Formula) -> None:
        if isinstance(f, ast.EventAtom):
            for k in range(i + 1):
                for event in history[k].events:
                    if event.name != f.name or len(event.params) != len(f.args):
                        continue
                    for arg, value in zip(f.args, event.params):
                        if isinstance(arg, ast.Var) and arg.name in candidates:
                            candidates[arg.name].add(value)
        elif isinstance(f, ast.ExecutedAtom):
            for rec in ctx.executed.records(rule=f.rule):
                for arg, value in zip(f.args, rec.params):
                    if isinstance(arg, ast.Var) and arg.name in candidates:
                        candidates[arg.name].add(value)
                if isinstance(f.time, ast.Var) and f.time.name in candidates:
                    candidates[f.time.name].add(rec.time)
        elif isinstance(f, ast.InQuery):
            for k in range(i + 1):
                try:
                    result = eval_query(f.query, history[k], {})
                except Exception:
                    continue
                if isinstance(result, Relation):
                    value_rows = [row.values for row in result]
                else:
                    value_rows = [(result,)]
                for values in value_rows:
                    for arg, value in zip(f.args, values):
                        if isinstance(arg, ast.Var) and arg.name in candidates:
                            candidates[arg.name].add(value)
        elif isinstance(f, ast.Comparison) and f.op == "=":
            pairs = [(f.left, f.right), (f.right, f.left)]
            for a, b in pairs:
                if isinstance(a, ast.Var) and a.name in candidates and isinstance(
                    b, ast.ConstT
                ):
                    candidates[a.name].add(b.value)
        if isinstance(f, ast.Assign):
            visit(f.body)
        else:
            for child in f.children():
                visit(child)

    visit(formula)
    return candidates
