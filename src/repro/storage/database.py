"""The database proper: catalog, current state, named-query registry.

:class:`Database` owns the schema catalog and the *current* committed
:class:`~repro.storage.snapshot.DatabaseState`.  It knows nothing about
events, histories, or rules — that wiring lives in
:class:`repro.engine.ActiveDatabase`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.datamodel.relation import Relation
from repro.datamodel.schema import Schema
from repro.errors import DuplicateRelationError, UnknownRelationError
from repro.query.subst import QueryDef, QueryRegistry
from repro.storage.snapshot import DatabaseState, IndexedItem, supersede


class Database:
    """Catalog + current state + query registry."""

    def __init__(self) -> None:
        self._schemas: dict[str, Schema] = {}
        self._state = DatabaseState({})
        self.queries = QueryRegistry()

    # -- catalog -----------------------------------------------------------

    def create_relation(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[Any]] = (),
    ) -> Relation:
        """Create an empty (or pre-populated) relation."""
        if name in self._schemas or self._state.has_item(name):
            raise DuplicateRelationError(f"item {name!r} already exists")
        relation = Relation.from_values(schema, rows)
        self._schemas[name] = schema
        self._state = self._state.with_updates({name: relation})
        return relation

    def declare_item(self, name: str, initial: Any) -> None:
        """Create a scalar database item (e.g. for aggregate rewriting)."""
        if self._state.has_item(name):
            raise DuplicateRelationError(f"item {name!r} already exists")
        self._state = self._state.with_updates({name: initial})

    def declare_indexed_item(self, name: str, default: Any = None) -> None:
        """Create an indexed item family (Section 6.1.1, ``CUM_PRICE(x)``)."""
        if self._state.has_item(name):
            raise DuplicateRelationError(f"item {name!r} already exists")
        self._state = self._state.with_updates({name: IndexedItem(default=default)})

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownRelationError(f"no relation named {name!r}") from None

    # -- named queries -------------------------------------------------------

    def define_query(
        self, name: str, params: Sequence[str], text: str
    ) -> QueryDef:
        """Register a named, parameterized query (a paper 'function symbol
        denoting a query'), e.g.::

            db.define_query("price", ["name"],
                "RETRIEVE (S.price) FROM STOCK S WHERE S.name = $name")
        """
        return self.queries.define_text(name, tuple(params), text)

    # -- state -----------------------------------------------------------------

    @property
    def state(self) -> DatabaseState:
        return self._state

    def _set_state(self, state: DatabaseState) -> None:
        """Install ``state`` as the current one — the one place a version
        of the database is superseded (a commit past its durable point, a
        replayed WAL record): only the present stays materialised."""
        supersede(self._state, state)
        self._state = state
