"""Transactions: buffered write sets applied atomically at commit.

In the transaction-time model (Section 2), all of a transaction's changes
appear in the single system state created by its commit event: "the new
database state reflects all and only the database changes made by the
transaction".  A :class:`Transaction` therefore buffers operations against
a private view and the engine materializes them at commit.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Mapping, Optional

from repro.datamodel.relation import Relation
from repro.datamodel.tuples import Row
from repro.errors import TransactionStateError
from repro.events import model as ev
from repro.storage.database import Database
from repro.storage.snapshot import DatabaseState, IndexedItem


class TxnStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class WriteOp:
    """One buffered update: (item name, valid time, apply function).

    ``valid_time`` is None in the transaction-time model; the valid-time
    engine (Section 9) stamps each update with the time at which it is
    claimed to have occurred in the real world.
    """

    __slots__ = ("item", "apply", "valid_time", "describe")

    def __init__(
        self,
        item: str,
        apply: Callable[[Any], Any],
        valid_time: Optional[int] = None,
        describe: str = "",
    ):
        self.item = item
        self.apply = apply
        self.valid_time = valid_time
        self.describe = describe

    def __repr__(self) -> str:
        return f"WriteOp({self.item}, {self.describe or 'fn'}, vt={self.valid_time})"


class Transaction:
    """A transaction handle.  Obtain via ``ActiveDatabase.begin()``."""

    #: ``(rule, state_index, timestamp)`` per integrity constraint that
    #: vetoed this transaction's commit (Section 8, TCA coupling).
    vetoes: tuple[tuple[str, int, int], ...] = ()

    def __init__(self, txn_id: int, database: Database, engine):
        self.id = txn_id
        self._database = database
        self._engine = engine
        self.status = TxnStatus.ACTIVE
        self.writes: list[WriteOp] = []
        self.events: list[ev.Event] = []
        #: Timestamp of the system state created by this txn's begin event.
        self.begin_time: Optional[int] = None

    # -- buffered operations ---------------------------------------------------

    def _require_active(self) -> None:
        if self.status is not TxnStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.id} is {self.status.value}"
            )

    def insert(
        self, relation: str, values, valid_time: Optional[int] = None
    ) -> None:
        self._require_active()
        schema = self._database.schema(relation)
        coerced = schema.check_row_values(tuple(values))
        self.writes.append(
            WriteOp(
                relation,
                lambda rel: rel.insert(coerced),
                valid_time,
                f"insert {coerced}",
            )
        )
        self.events.append(ev.insert_tuple(relation, coerced))

    def delete(
        self,
        relation: str,
        predicate: Callable[[Row], bool],
        valid_time: Optional[int] = None,
    ) -> None:
        self._require_active()
        self._database.schema(relation)
        self.writes.append(
            WriteOp(relation, lambda rel: rel.delete(predicate), valid_time, "delete")
        )
        self.events.append(ev.Event(ev.DELETE_TUPLE, (relation,)))

    def update(
        self,
        relation: str,
        predicate: Callable[[Row], bool],
        changes: Callable[[Row], Mapping[str, Any]],
        valid_time: Optional[int] = None,
    ) -> None:
        self._require_active()
        self._database.schema(relation)
        self.writes.append(
            WriteOp(
                relation,
                lambda rel: rel.update(predicate, changes),
                valid_time,
                "update",
            )
        )
        self.events.append(ev.update_item(relation))

    def set_item(
        self, name: str, value: Any, valid_time: Optional[int] = None
    ) -> None:
        self._require_active()
        self.writes.append(
            WriteOp(name, lambda _old: value, valid_time, f"set {value!r}")
        )
        self.events.append(ev.update_item(name))

    def set_indexed_item(
        self,
        name: str,
        index: tuple,
        value: Any,
        valid_time: Optional[int] = None,
    ) -> None:
        self._require_active()

        def apply(old: Any) -> Any:
            family = old if isinstance(old, IndexedItem) else IndexedItem()
            return family.with_entry(index, value)

        self.writes.append(
            WriteOp(name, apply, valid_time, f"set[{index!r}] {value!r}")
        )
        self.events.append(ev.update_item(name))

    def post_event(self, event: ev.Event) -> None:
        """Attach a user event to this transaction's commit state."""
        self._require_active()
        self.events.append(event)

    # -- resolution ------------------------------------------------------------

    def write_set(self) -> frozenset[str]:
        """Names of the database items this transaction's writes touch —
        recorded as ``SystemState.delta`` on the commit state so the
        temporal component can skip atoms over untouched items."""
        return frozenset(op.item for op in self.writes)

    def apply_to(self, state: DatabaseState) -> DatabaseState:
        """The state with this transaction's buffered writes applied."""
        changes: dict[str, Any] = {}
        for op in self.writes:
            current = changes.get(op.item, _item_of(state, op.item))
            changes[op.item] = op.apply(current)
        return state.with_updates(changes)

    def commit(self, at_time: Optional[int] = None):
        """Attempt to commit via the engine.  Raises
        :class:`~repro.errors.TransactionAborted` if an integrity
        constraint rejects the transaction."""
        self._require_active()
        return self._engine._commit(self, at_time)

    def abort(self, at_time: Optional[int] = None, reason: str = "user abort"):
        self._require_active()
        return self._engine._abort(self, at_time, reason)

    def __repr__(self) -> str:
        return f"Transaction({self.id}, {self.status.value}, {len(self.writes)} writes)"


def _item_of(state: DatabaseState, name: str) -> Any:
    return state.raw_item(name)


class TransactionManager:
    """Issues transaction ids and tracks live transactions."""

    def __init__(self) -> None:
        self._next_id = 1
        self.active: dict[int, Transaction] = {}

    def begin(self, database: Database, engine) -> Transaction:
        txn = Transaction(self._next_id, database, engine)
        self._next_id += 1
        self.active[txn.id] = txn
        return txn

    def finish(self, txn: Transaction, status: TxnStatus) -> None:
        txn.status = status
        self.active.pop(txn.id, None)
