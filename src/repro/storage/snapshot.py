"""Immutable database states with structural sharing.

A :class:`DatabaseState` maps *database items* (the paper's Section 2:
"names of relations or object classes", plus scalar items such as ``time``
and the items introduced by aggregate rewriting) to values.  States are
immutable; an update produces a new state sharing all unchanged items, and
the relation versions the newest state replaced are kept as reverse
row-deltas (:func:`supersede`), so a history of n states over a database
with k items costs O(n * changed rows), not O(n * k * |relation|).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.datamodel.relation import Relation
from repro.errors import QueryEvaluationError, UnknownRelationError


class IndexedItem:
    """A family of scalar items indexed by value tuples.

    Section 6.1.1: aggregates with free variables need "multiple database
    items, indexed with different values for the free variables", e.g.
    ``CUM_PRICE(x)``.  Immutable; ``with_entry`` returns a new family.
    """

    __slots__ = ("_entries", "_default")

    def __init__(self, entries: Optional[Mapping[tuple, Any]] = None, default: Any = None):
        self._entries: dict[tuple, Any] = dict(entries or {})
        self._default = default

    def get(self, index: tuple) -> Any:
        return self._entries.get(index, self._default)

    def with_entry(self, index: tuple, value: Any) -> "IndexedItem":
        out = IndexedItem.__new__(IndexedItem)
        out._entries = {**self._entries, index: value}
        out._default = self._default
        return out

    def indices(self) -> list[tuple]:
        return sorted(self._entries, key=repr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexedItem):
            return NotImplemented
        return self._entries == other._entries and self._default == other._default

    def __hash__(self) -> int:
        return hash((frozenset(self._entries.items()), self._default))

    def __repr__(self) -> str:
        return f"IndexedItem({self._entries!r}, default={self._default!r})"


class DatabaseState:
    """An immutable snapshot of all database items.

    Satisfies the :class:`repro.query.evaluator.StateView` protocol, so
    queries evaluate directly against snapshots — including snapshots deep
    inside a history, which is what the reference (offline) PTL semantics
    needs.
    """

    __slots__ = ("_items", "version")

    def __init__(self, items: Mapping[str, Any], version: int = 0):
        self._items = dict(items)
        self.version = version

    # -- StateView protocol --------------------------------------------------

    def relation(self, name: str) -> Relation:
        """The relation ``name`` for a reader: the stored version while it
        is the newest, a transient flat copy of a superseded one (see
        :meth:`Relation.flat` — a query over the past indexes the copy,
        not the history)."""
        value = self._items.get(name)
        if not isinstance(value, Relation):
            raise UnknownRelationError(f"no relation named {name!r}")
        return value if value._succ is None else value.flat()

    def item(self, name: str, index: tuple = ()) -> Any:
        if name not in self._items:
            raise QueryEvaluationError(f"no database item named {name!r}")
        value = self._items[name]
        if isinstance(value, IndexedItem):
            return value.get(index)
        if index:
            raise QueryEvaluationError(f"item {name!r} is not indexed")
        return value

    def has_relation(self, name: str) -> bool:
        return isinstance(self._items.get(name), Relation)

    def raw_item(self, name: str) -> Any:
        """The stored value, without unwrapping :class:`IndexedItem`."""
        if name not in self._items:
            raise QueryEvaluationError(f"no database item named {name!r}")
        return self._items[name]

    # -- inspection ------------------------------------------------------------

    def has_item(self, name: str) -> bool:
        return name in self._items

    def item_names(self) -> list[str]:
        return sorted(self._items)

    def items_view(self) -> Mapping[str, Any]:
        return dict(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseState):
            return NotImplemented
        return self._items == other._items

    def __repr__(self) -> str:
        return f"DatabaseState(v{self.version}, items={sorted(self._items)})"

    # -- derivation --------------------------------------------------------------

    def with_updates(self, changes: Mapping[str, Any]) -> "DatabaseState":
        """New state with ``changes`` applied (unchanged items shared)."""
        if not changes:
            return self
        out = DatabaseState.__new__(DatabaseState)
        out._items = {**self._items, **changes}
        out.version = self.version + 1
        return out

    def with_indexed_update(self, name: str, index: tuple, value: Any) -> "DatabaseState":
        current = self._items.get(name)
        if not isinstance(current, IndexedItem):
            current = IndexedItem()
        return self.with_updates({name: current.with_entry(index, value)})

    def changed_items(self, previous: "DatabaseState") -> list[str]:
        """Names of items whose value differs from ``previous`` (the delta
        the incremental algorithm looks at)."""
        out = []
        names = set(self._items) | set(previous._items)
        for name in names:
            if self._items.get(name) is previous._items.get(name):
                continue
            if self._items.get(name) != previous._items.get(name):
                out.append(name)
        return sorted(out)


def supersede(old: DatabaseState, new: DatabaseState) -> None:
    """``new`` took ``old``'s place as the newest state of a history:
    every relation version it replaced becomes a reverse row-delta off its
    replacement (:meth:`Relation.supersede`).  Call it only once ``new``
    is decided — a vetoed candidate must not demote the live version."""
    items = new._items
    for name, was in old._items.items():
        if isinstance(was, Relation):
            now = items.get(name)
            if now is not was and isinstance(now, Relation):
                was.supersede(now)
