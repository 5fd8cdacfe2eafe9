"""Events: instantaneous, possibly parameterized occurrences (Section 2).

The paper's set U of events includes ``Transaction-begin``,
``Transaction-commit``, ``Rule-execute``, ``Insert-tuple`` etc., "many of
these events may be parameterized".  An :class:`Event` is a name plus a
tuple of parameter values; PTL event atoms match on the name and on
parameter *patterns* (constants, or variables that bind).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


# Standard event names -------------------------------------------------------

TRANSACTION_BEGIN = "transaction_begin"
TRANSACTION_COMMIT = "transaction_commit"
TRANSACTION_ABORT = "transaction_abort"
ATTEMPTS_TO_COMMIT = "attempts_to_commit"
INSERT_TUPLE = "insert_tuple"
DELETE_TUPLE = "delete_tuple"
UPDATE_ITEM = "update_item"
RULE_EXECUTE = "rule_execute"
CLOCK_TICK = "clock_tick"

STANDARD_EVENTS = frozenset(
    {
        TRANSACTION_BEGIN,
        TRANSACTION_COMMIT,
        TRANSACTION_ABORT,
        ATTEMPTS_TO_COMMIT,
        INSERT_TUPLE,
        DELETE_TUPLE,
        UPDATE_ITEM,
        RULE_EXECUTE,
        CLOCK_TICK,
    }
)


@dataclass(frozen=True, slots=True)
class Event:
    """An instantaneous event occurrence: ``name(params...)``.

    ``Event("transaction_begin", (30,))`` is the paper's
    ``Transaction-begin(30)``.
    """

    name: str
    params: tuple = ()

    def __str__(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({', '.join(map(repr, self.params))})"

    def matches(self, name: str, arg_values: tuple) -> bool:
        """Exact match on name and fully-ground parameter values."""
        return self.name == name and self.params == arg_values


def transaction_begin(txn_id: int) -> Event:
    return Event(TRANSACTION_BEGIN, (txn_id,))


def transaction_commit(txn_id: int) -> Event:
    return Event(TRANSACTION_COMMIT, (txn_id,))


def transaction_abort(txn_id: int) -> Event:
    return Event(TRANSACTION_ABORT, (txn_id,))


def attempts_to_commit(txn_id: int) -> Event:
    return Event(ATTEMPTS_TO_COMMIT, (txn_id,))


def insert_tuple(relation: str, values: tuple) -> Event:
    return Event(INSERT_TUPLE, (relation,) + tuple(values))


def delete_tuple(relation: str, values: tuple) -> Event:
    return Event(DELETE_TUPLE, (relation,) + tuple(values))


def update_item(name: str) -> Event:
    return Event(UPDATE_ITEM, (name,))


def rule_execute(rule_name: str, params: tuple = ()) -> Event:
    return Event(RULE_EXECUTE, (rule_name,) + tuple(params))


def user_event(name: str, *params: Any) -> Event:
    """A user-defined event, e.g. ``user_event("user_login", "X")``."""
    return Event(name, tuple(params))
