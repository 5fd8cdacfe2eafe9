"""Explain *why* a condition is (or is not) satisfied.

Debugging aid for rule authors: :func:`explain` evaluates a ground PTL
formula at a history position with the reference semantics, recording the
*witnesses* — which past state satisfied the right side of a ``since``,
which conjunct broke, what value each query term had — and renders the
result as an indented proof tree::

    >>> print(render(explain(history.states, 3, formula)))
    ✓ previously (price(IBM) <= 0.5 * x & time >= t - 10)
      witness at position 0 (t=1)
      ✓ price(IBM) <= 0.5 * x   [10.0 <= 12.5]
      ✓ time >= t - 10          [1 >= -2]

Only ground formulas (no free variables) are explainable; pass the firing
binding through ``env`` for rules with parameters.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro._value import Value, factory
from repro.errors import EvaluationError
from repro.history.state import SystemState
from repro.ptl import ast
from repro.ptl.context import EvalContext
from repro.ptl.rewrite import normalize
from repro.ptl.semantics import UNDEFINED, eval_term, satisfies


class Explanation(Value, frozen=False):
    """One node of the proof tree."""

    formula: str
    holds: bool
    position: int
    timestamp: int
    detail: str = ""
    children: list["Explanation"] = factory(list)


def explain(
    history: Sequence[SystemState],
    i: int,
    formula: ast.Formula,
    env: Optional[Mapping[str, Any]] = None,
    ctx: Optional[EvalContext] = None,
) -> Explanation:
    """Proof tree for ``formula`` at position ``i`` under ``env``."""
    env = dict(env or {})
    ctx = ctx or EvalContext()
    return _explain(history, i, formula, env, ctx)


def _node(history, i, f, holds, detail="", children=None) -> Explanation:
    return Explanation(
        formula=str(f),
        holds=holds,
        position=i,
        timestamp=history[i].timestamp,
        detail=detail,
        children=children or [],
    )


def _explain(history, i, f, env, ctx) -> Explanation:
    if isinstance(f, (ast.Previously, ast.ThroughoutPast)):
        f = normalize(f)
    if isinstance(f, ast.BoolConst):
        return _node(history, i, f, f.value)
    if isinstance(f, ast.Comparison):
        left = eval_term(f.left, history, i, env, ctx)
        right = eval_term(f.right, history, i, env, ctx)
        holds = satisfies(history, i, f, env, ctx)
        return _node(history, i, f, holds, detail=f"[{left!r} {f.op} {right!r}]")
    if isinstance(f, (ast.EventAtom, ast.InQuery, ast.ExecutedAtom)):
        holds = satisfies(history, i, f, env, ctx)
        if isinstance(f, ast.EventAtom):
            present = sorted(str(e) for e in history[i].events)
            detail = f"[events here: {', '.join(present) or 'none'}]"
        else:
            detail = ""
        return _node(history, i, f, holds, detail=detail)
    if isinstance(f, ast.Not):
        child = _explain(history, i, f.operand, env, ctx)
        return _node(history, i, f, not child.holds, children=[child])
    if isinstance(f, ast.And):
        children = [_explain(history, i, c, env, ctx) for c in f.operands]
        return _node(
            history, i, f, all(c.holds for c in children), children=children
        )
    if isinstance(f, ast.Or):
        children = [_explain(history, i, c, env, ctx) for c in f.operands]
        return _node(
            history, i, f, any(c.holds for c in children), children=children
        )
    if isinstance(f, ast.Lasttime):
        if i == 0:
            return _node(history, i, f, False, detail="[no previous state]")
        child = _explain(history, i - 1, f.operand, env, ctx)
        return _node(history, i, f, child.holds, children=[child])
    if isinstance(f, ast.Since):
        # find the witness: the latest j <= i where rhs holds with lhs
        # holding on (j, i]
        j = i
        lhs_breaker: Optional[Explanation] = None
        while j >= 0:
            if satisfies(history, j, f.rhs, env, ctx):
                rhs_exp = _explain(history, j, f.rhs, env, ctx)
                rhs_exp.detail = (
                    f"witness at position {j} (t={history[j].timestamp})"
                )
                return _node(history, i, f, True, children=[rhs_exp])
            if not satisfies(history, j, f.lhs, env, ctx):
                lhs_breaker = _explain(history, j, f.lhs, env, ctx)
                lhs_breaker.detail = (
                    f"left side fails at position {j} "
                    f"(t={history[j].timestamp}) before any witness"
                )
                return _node(history, i, f, False, children=[lhs_breaker])
            j -= 1
        return _node(
            history, i, f, False, detail="[right side never held]"
        )
    if isinstance(f, ast.Assign):
        from repro.ptl.semantics import eval_query_value

        value = eval_query_value(f.query, history[i], env)
        if value is UNDEFINED:
            return _node(history, i, f, False, detail="[query undefined]")
        inner_env = dict(env)
        inner_env[f.var] = value
        child = _explain(history, i, f.body, inner_env, ctx)
        return _node(
            history,
            i,
            f,
            child.holds,
            detail=f"[{f.var} := {value!r}]",
            children=[child],
        )
    raise EvaluationError(f"cannot explain {f!r}")


def render(explanation: Explanation, indent: int = 0) -> str:
    """The proof tree as indented text (✓/✗ per node)."""
    mark = "✓" if explanation.holds else "✗"
    pad = "  " * indent
    line = f"{pad}{mark} {explanation.formula}"
    if explanation.detail:
        line += f"   {explanation.detail}"
    lines = [line]
    for child in explanation.children:
        lines.append(render(child, indent + 1))
    return "\n".join(lines)
