"""Rules: triggers and integrity constraints (Section 3).

"A rule is either a trigger or an integrity constraint.  An integrity
constraint is a rule in which the action is abort(X), and the condition
consists of the event attempts_to_commit(X), and the negation of the
integrity constraint. ... A trigger is any other type of rule."
"""

from __future__ import annotations

import enum
from array import array
from itertools import starmap
from typing import Any, Iterator, Optional

from repro._intern import leaf
from repro._value import Value
from repro.ptl import ast
from repro.rules.actions import AbortAction, Action

_set = object.__setattr__


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


class Rule(Value, frozen=False):
    """A Condition-Action rule.

    ``params`` names the condition's free variables whose bindings are
    recorded in the ``executed`` store (and passed, in order, as the
    execution record's parameter list).
    """

    __slots__ = (
        "name",
        "condition",
        "action",
        "params",
        "coupling",
        "fire_mode",
        "relevant_events",
        "priority",
        "shadow",
    )

    name: str
    condition: ast.Formula
    action: Action
    params: tuple[str, ...]
    coupling: CouplingMode
    fire_mode: FireMode
    #: Event names this rule is *relevant* to (Section 8 filtering); None
    #: means the rule is considered at every state.
    relevant_events: Optional[frozenset[str]]
    #: Evaluation/execution order within one state: higher runs first;
    #: ties break by registration order.
    priority: int
    #: Shadow deployment: the condition evaluates (building temporal
    #: state) and firings are recorded/traced, but the action never runs
    #: and nothing enters the executed store.
    #: :meth:`~repro.rules.manager.RuleManager.promote_rule` flips it live.
    shadow: bool

    def __init__(
        self,
        name: str,
        condition: ast.Formula,
        action: Action,
        params: tuple[str, ...] = (),
        coupling: CouplingMode = CouplingMode.T_CA,
        fire_mode: FireMode = FireMode.ALWAYS,
        relevant_events: Optional[frozenset[str]] = None,
        priority: int = 0,
        shadow: bool = False,
    ) -> None:
        self.name = name
        self.condition = condition
        self.action = action
        self.params = params
        self.coupling = coupling
        self.fire_mode = fire_mode
        self.relevant_events = relevant_events
        self.priority = priority
        self.shadow = shadow

    @property
    def is_integrity_constraint(self) -> bool:
        return isinstance(self.action, AbortAction)

    def __str__(self) -> str:
        return f"{self.name}: {self.condition} -> {self.action!r}"


class FiringRecord(Value):
    """One rule firing: which rule, with which bindings, at which state."""

    __slots__ = ("rule", "bindings", "state_index", "timestamp", "shadow")

    rule: str
    bindings: tuple[tuple[str, Any], ...]
    state_index: int
    timestamp: int
    #: True when the rule was in shadow mode: the firing was recorded but
    #: its action was suppressed.
    shadow: bool

    def __init__(
        self,
        rule: str,
        bindings: tuple[tuple[str, Any], ...],
        state_index: int,
        timestamp: int,
        shadow: bool = False,
    ) -> None:
        _set(self, "rule", rule)
        _set(self, "bindings", bindings)
        _set(self, "state_index", state_index)
        _set(self, "timestamp", timestamp)
        _set(self, "shadow", shadow)

    @property
    def binding_dict(self) -> dict:
        return dict(self.bindings)


#: A run of consecutive firings at one state: its first position, the
#: state index and the timestamp.
_Run = tuple[int, int, int]


class FiringLog:
    """The manager's firing log, stored as packed numbers.

    A firing is two numbers of one ``array``: an interned ``(rule,
    shadow)`` id and an interned bindings id, two bytes each until an id
    outgrows them, four from then on.  The state a run of consecutive
    firings shares is stored once, in a ``bytearray`` of varints: the
    run's first position, state index and timestamp, each as its
    difference from the previous run's — a few bytes, where a run of one
    firing, the served shape, would pay 24 as three 8-byte numbers.
    Reads decode the runs forward, from the start or from where the last
    read stopped, so a reader that takes only what is new (the
    notification pump) decodes only that.  A :class:`FiringRecord` is
    built only when the log is read."""

    def __init__(self) -> None:
        self._rows = array("H")
        self._runs = bytearray()
        #: The last run appended; ``_runs`` is empty while it is None.
        self._last: Optional[_Run] = None
        #: Where the last read stopped: a decoded run and the offset of
        #: the record after it (``None, 0``: the start of ``_runs``).
        self._cursor: tuple[Optional[_Run], int] = (None, 0)
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
        last = self._last
        if last is None or last[1:] != (state_index, timestamp):
            run = (len(self), state_index, timestamp)
            _put_run(self._runs, run, last or (0, 0, 0))
            self._last = run
        key = (rule, shadow)
        # ``1 == 1.0 == True`` and ``-0.0 == 0.0``: the bindings' values
        # are keyed type-exactly, so a read gives back what was appended.
        exact = tuple([(name, leaf(value)) for name, value in bindings])
        row = (
            _index_of(self._key_ids, self._key_values, key, key),
            _index_of(self._binding_ids, self._binding_values, exact, bindings),
        )
        if self._rows.typecode == "H" and max(row) > 0xFFFF:
            self._rows = array("I", self._rows)
        self._rows.extend(row)

    def _walk(self, start: int = 0) -> Iterator[tuple[int, int, int, int]]:
        """``(key id, bindings id, state index, timestamp)`` per firing,
        from position ``start`` on."""
        rows, runs, total = self._rows, self._runs, len(self)
        if start >= total:
            return
        run, offset = self._cursor
        if run is None or run[0] > start:
            run, offset = _next_run(runs, 0, (0, 0, 0))
        # Decode forward to the run holding ``start``.
        while offset < len(runs):
            after, next_offset = _next_run(runs, offset, run)
            if after[0] > start:
                break
            run, offset = after, next_offset
        while True:
            self._cursor = (run, offset)
            if offset < len(runs):
                after, next_offset = _next_run(runs, offset, run)
                end = after[0]
            else:
                end = total
            for i in range(2 * start, 2 * end, 2):
                yield rows[i], rows[i + 1], run[1], run[2]
            if end == total:
                return
            start, run, offset = end, after, next_offset

    def _record(
        self, key: int, bindings: int, index: int, timestamp: int
    ) -> FiringRecord:
        rule, shadow = self._key_values[key]
        return FiringRecord(
            rule, self._binding_values[bindings], index, timestamp,
            shadow=shadow,
        )

    def records(self, start: int = 0) -> list[FiringRecord]:
        """The firings from position ``start`` on."""
        return list(
            starmap(self._record, self._walk(range(len(self))[start:].start))
        )

    def records_of(self, rule: str) -> list[FiringRecord]:
        wanted = {
            i for i, (name, _) in enumerate(self._key_values) if name == rule
        }
        return [self._record(*row) for row in self._walk() if row[0] in wanted]

    def __len__(self) -> int:
        return len(self._rows) // 2

    def __iter__(self) -> Iterator[FiringRecord]:
        return starmap(self._record, self._walk())


def _put_run(buf: bytearray, run: _Run, prev: _Run) -> None:
    """Append ``run`` to ``buf`` as zigzag varints of its differences
    from ``prev``."""
    for value, base in zip(run, prev):
        delta = value - base
        n = delta << 1 if delta >= 0 else (-delta << 1) - 1
        while n > 0x7F:
            buf.append(n & 0x7F | 0x80)
            n >>= 7
        buf.append(n)


def _next_run(buf: bytearray, offset: int, prev: _Run) -> tuple[_Run, int]:
    """The run recorded at ``offset`` after ``prev``, and the offset of
    the record that follows it."""
    values = []
    for base in prev:
        n = shift = 0
        while True:
            byte = buf[offset]
            offset += 1
            n |= (byte & 0x7F) << shift
            shift += 7
            if byte < 0x80:
                break
        values.append(base + ((n >> 1) ^ -(n & 1)))
    return tuple(values), offset


def _index_of(ids: dict, values: list, key, value) -> int:
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
