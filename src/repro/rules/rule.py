"""Rules: triggers and integrity constraints (Section 3).

"A rule is either a trigger or an integrity constraint.  An integrity
constraint is a rule in which the action is abort(X), and the condition
consists of the event attempts_to_commit(X), and the negation of the
integrity constraint. ... A trigger is any other type of rule."
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Optional

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


#: One firing in a :class:`FiringLog`: ``(rule, shadow)`` id, bindings id,
#: state index, timestamp.
_FIRING = struct.Struct("=IIqq")


class FiringLog:
    """The manager's firing log, stored as packed rows.

    One firing is one 24-byte row of a ``bytearray``: an interned
    ``(rule, shadow)`` id, an interned bindings id, the state index and
    the timestamp.  A :class:`FiringRecord` is built only when the log
    is read."""

    def __init__(self) -> None:
        self._rows = bytearray()
        #: ``(rule, shadow)`` pairs and bindings tuples, by id.
        self._key_values: list[tuple[str, bool]] = []
        self._key_ids: dict[tuple[str, bool], int] = {}
        self._binding_values: list[tuple] = []
        self._binding_ids: dict[tuple, int] = {}

    def append(
        self,
        rule: str,
        bindings: tuple,
        state_index: int,
        timestamp: int,
        shadow: bool = False,
    ) -> None:
        key = (rule, shadow)
        # ``1 == 1.0 == True`` hash alike: the value types join the
        # bindings' intern key so a read gives back what was appended.
        exact = (bindings, tuple(type(v) for _, v in bindings))
        self._rows += _FIRING.pack(
            _intern(self._key_ids, self._key_values, key, key),
            _intern(self._binding_ids, self._binding_values, exact, bindings),
            state_index,
            timestamp,
        )

    def record(self, i: int) -> FiringRecord:
        """Build the ``i``-th firing's record."""
        key, bindings, index, timestamp = _FIRING.unpack_from(
            self._rows, i * _FIRING.size
        )
        rule, shadow = self._key_values[key]
        return FiringRecord(
            rule, self._binding_values[bindings], index, timestamp,
            shadow=shadow,
        )

    def records(self, start: int = 0) -> list[FiringRecord]:
        """The firings from position ``start`` on."""
        return list(map(self.record, range(len(self))[start:]))

    def records_of(self, rule: str) -> list[FiringRecord]:
        wanted = {
            i for i, (name, _) in enumerate(self._key_values) if name == rule
        }
        return [
            self.record(i)
            for i, (key, *_) in enumerate(_FIRING.iter_unpack(self._rows))
            if key in wanted
        ]

    def __len__(self) -> int:
        return len(self._rows) // _FIRING.size

    def __iter__(self) -> Iterator[FiringRecord]:
        return map(self.record, range(len(self)))


def _intern(ids: dict, values: list, key, value) -> int:
    """``value``'s position in ``values``, appended under ``key`` when new."""
    i = ids.get(key)
    if i is None:
        i = ids[key] = len(values)
        values.append(value)
    return i


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
    )
