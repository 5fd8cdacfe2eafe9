"""Rules: triggers and integrity constraints (Section 3).

"A rule is either a trigger or an integrity constraint.  An integrity
constraint is a rule in which the action is abort(X), and the condition
consists of the event attempts_to_commit(X), and the negation of the
integrity constraint. ... A trigger is any other type of rule."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.ptl import ast
from repro.rules.actions import AbortAction, Action


class CouplingMode(enum.Enum):
    """Couplings between rule execution and user transactions (Section 8).

    * ``TCA`` — condition and action execute as part of the user
      transaction, right before commitment (integrity constraints).
    * ``T_CA`` — condition evaluated when the event occurs; the action
      executes immediately, independent of user transactions.
    * ``T_C_A`` — both detached: fired actions are queued and executed
      when the application drains the queue.
    """

    TCA = "TCA"
    T_CA = "T-CA"
    T_C_A = "T-C-A"


class FireMode(enum.Enum):
    """When a satisfied condition triggers the action.

    * ``ALWAYS`` — at every state where the condition is satisfied (the
      paper's semantics: rules are evaluated whenever a new system state
      is added, and fire iff satisfied).
    * ``RISING_EDGE`` — only at states where a binding is satisfied and
      was not satisfied at the previous state (used by the composite-
      action compilation so the first action of a sequence runs once per
      episode).
    """

    ALWAYS = "always"
    RISING_EDGE = "rising_edge"


@dataclass
class Rule:
    """A Condition-Action rule.

    ``params`` names the condition's free variables whose bindings are
    recorded in the ``executed`` store (and passed, in order, as the
    execution record's parameter list).
    """

    name: str
    condition: ast.Formula
    action: Action
    params: tuple[str, ...] = ()
    coupling: CouplingMode = CouplingMode.T_CA
    fire_mode: FireMode = FireMode.ALWAYS
    #: Event names this rule is *relevant* to (Section 8 filtering); None
    #: means the rule is considered at every state.
    relevant_events: Optional[frozenset[str]] = None
    #: Process temporal aggregates by rewriting (Section 6.1.1) instead of
    #: the direct pipeline.
    rewrite_aggregates: bool = False
    #: Record executions of this rule in the executed store.
    record_executions: bool = True
    #: Evaluation/execution order within one state: higher runs first;
    #: ties break by registration order.
    priority: int = 0
    #: Shadow deployment: the condition evaluates (building temporal
    #: state) and firings are recorded/traced, but the action never runs
    #: and nothing enters the executed store.
    #: :meth:`~repro.rules.manager.RuleManager.promote_rule` flips it live.
    shadow: bool = False

    @property
    def is_integrity_constraint(self) -> bool:
        return isinstance(self.action, AbortAction)

    def __str__(self) -> str:
        return f"{self.name}: {self.condition} -> {self.action!r}"


@dataclass(frozen=True, slots=True)
class FiringRecord:
    """One rule firing: which rule, with which bindings, at which state."""

    rule: str
    bindings: tuple[tuple[str, Any], ...]
    state_index: int
    timestamp: int
    #: True when the rule was in shadow mode: the firing was recorded but
    #: its action was suppressed.
    shadow: bool = False

    @property
    def binding_dict(self) -> dict:
        return dict(self.bindings)


def make_integrity_constraint(
    name: str, constraint: ast.Formula, txn_var: str = "__txn"
) -> Rule:
    """Build the Section 3 integrity-constraint rule: condition
    ``attempts_to_commit(X) & !constraint``, action ``abort(X)``."""
    condition = ast.And(
        (
            ast.EventAtom("attempts_to_commit", (ast.Var(txn_var),)),
            ast.Not(constraint),
        )
    )
    return Rule(
        name=name,
        condition=condition,
        action=AbortAction(),
        params=(txn_var,),
        coupling=CouplingMode.TCA,
        record_executions=False,
    )
