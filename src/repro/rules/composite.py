"""Temporal and composite actions via the ``executed`` predicate (Section 7).

"A composite action is specified by a set of atomic actions together with a
partial order on them and a set of timing constraints on their execution."
The compilation is the paper's: the first action runs off the original
condition; each follow-up action runs off a rule whose condition matches
the predecessor's execution record at the required time offset::

    r1 : C(x) -> A1(x)
    r2 : executed(r1, x, t) & time = t + 10 -> A2(x)

and the periodic form::

    r1 : C -> A
    r2 : executed(r1, t) & (time - t <= 60) & (time - t) mod 10 = 0 -> A

Exact-time conditions (``time = t + 10``) fire at the system state whose
timestamp is exactly ``t + 10`` — drive the clock with ``engine.tick()``
(or any event) at the relevant instants, as the paper's model assumes a
state per event occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import RuleError
from repro.ptl import ast
from repro.ptl.rewrite import TIME_TERM
from repro.rules.actions import Action, as_action
from repro.rules.rule import FireMode, Rule

_TIME_VAR = "__t"


def _executed_at_offset(
    rule_name: str,
    params: tuple[str, ...],
    offset: int,
    comparator: str = "=",
) -> ast.Formula:
    """``executed(rule, params..., t) & time <cmp> t + offset``."""
    executed = ast.ExecutedAtom(
        rule_name,
        tuple(ast.Var(p) for p in params),
        ast.Var(_TIME_VAR),
    )
    timing = ast.Comparison(
        comparator,
        TIME_TERM,
        ast.FuncT("+", (ast.Var(_TIME_VAR), ast.ConstT(offset))),
    )
    return ast.And((executed, timing))


def add_sequence(
    manager,
    name: str,
    condition,
    steps: Sequence[tuple[Union[Action, callable], int]],
    params: Sequence[str] = (),
    domains=None,
) -> list[Rule]:
    """A sequential composite action: ``steps`` is a list of
    (action, delay) pairs; the first step runs when ``condition`` first
    becomes satisfied (rising edge), each later step runs ``delay`` time
    units after the previous step executed.  ``params`` are condition
    variables passed along the chain (the paper's A(x) decomposition).

    Returns the generated rules, named ``{name}__s0 .. {name}__sN``.
    """
    if not steps:
        raise RuleError("a sequence needs at least one step")
    params = tuple(params)
    rules = []
    first_action, _ = steps[0]
    rules.append(
        manager.add_trigger(
            f"{name}__s0",
            condition,
            as_action(first_action),
            params=params,
            domains=domains,
            fire_mode=FireMode.RISING_EDGE,
        )
    )
    for k, (action, delay) in enumerate(steps[1:], start=1):
        prev = f"{name}__s{k - 1}"
        cond = _executed_at_offset(prev, params, delay)
        rules.append(
            manager.add_trigger(
                f"{name}__s{k}",
                cond,
                as_action(action),
                params=params,
            )
        )
    return rules


def add_periodic(
    manager,
    name: str,
    condition,
    action,
    period: int,
    horizon: int,
    params: Sequence[str] = (),
    domains=None,
) -> list[Rule]:
    """The paper's temporal action: when ``condition`` becomes satisfied,
    execute ``action`` immediately and then every ``period`` time units for
    the next ``horizon`` time units (e.g. buy 50 IBM stocks every 10
    minutes for an hour while driving the price up slowly)."""
    params = tuple(params)
    arm = manager.add_trigger(
        f"{name}__arm",
        condition,
        as_action(action),
        params=params,
        domains=domains,
        fire_mode=FireMode.RISING_EDGE,
    )
    executed = ast.ExecutedAtom(
        f"{name}__arm",
        tuple(ast.Var(p) for p in params),
        ast.Var(_TIME_VAR),
    )
    elapsed = ast.FuncT("-", (TIME_TERM, ast.Var(_TIME_VAR)))
    within = ast.Comparison("<=", elapsed, ast.ConstT(horizon))
    on_beat = ast.Comparison(
        "=", ast.FuncT("mod", (elapsed, ast.ConstT(period))), ast.ConstT(0)
    )
    repeat = manager.add_trigger(
        f"{name}__repeat",
        ast.And((executed, within, on_beat)),
        as_action(action),
        params=params,
    )
    return [arm, repeat]


@dataclass(frozen=True)
class CompositeStep:
    """One atomic action of a composite action."""

    label: str
    action: Action
    #: Predecessor step label (None = runs off the main condition).
    after: Optional[str] = None
    #: Delay relative to the predecessor's execution.
    delay: int = 0


def add_composite(
    manager,
    name: str,
    condition,
    steps: Sequence[CompositeStep],
    params: Sequence[str] = (),
    domains=None,
) -> list[Rule]:
    """A composite action with a (forest-shaped) partial order and timing
    constraints: every step has at most one predecessor.  Root steps run
    when ``condition`` first becomes satisfied; each dependent step runs
    ``delay`` units after its predecessor executed."""
    params = tuple(params)
    by_label = {s.label: s for s in steps}
    for s in steps:
        if s.after is not None and s.after not in by_label:
            raise RuleError(f"step {s.label!r} depends on unknown {s.after!r}")
    rules = []
    for s in steps:
        rule_name = f"{name}__{s.label}"
        if s.after is None:
            rules.append(
                manager.add_trigger(
                    rule_name,
                    condition,
                    s.action,
                    params=params,
                    domains=domains,
                    fire_mode=FireMode.RISING_EDGE,
                )
            )
        else:
            cond = _executed_at_offset(f"{name}__{s.after}", params, s.delay)
            rules.append(
                manager.add_trigger(
                    rule_name, cond, s.action, params=params
                )
            )
    return rules
