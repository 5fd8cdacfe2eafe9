"""Relations: immutable sets of rows over a schema, with algebra helpers.

Relations use *set* semantics (the paper's examples are QUEL/relational).
All operations return new relations; the engine layers copy-on-write
versioning on top of this immutability (see ``repro.storage.snapshot``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.tuples import Row
from repro.errors import DataModelError, NotScalarError, SchemaError


class Relation:
    """An immutable set of :class:`Row` sharing one :class:`Schema`.

    ``_index_cache`` memoizes hash indexes (see
    :mod:`repro.storage.index`) — safe because the row set never changes.
    """

    __slots__ = ("_schema", "_rows", "_index_cache", "_sorted_cache")

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self._index_cache = None
        self._sorted_cache = None
        self._schema = schema
        frozen: frozenset[Row] = (
            rows if isinstance(rows, frozenset) else frozenset(rows)
        )
        for row in frozen:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row arity {len(row)} != schema arity {len(schema)}"
                )
        self._rows = frozen

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(
        cls, schema: Schema, value_rows: Iterable[Sequence[Any]]
    ) -> "Relation":
        return cls(schema, (Row(schema, vals) for vals in value_rows))

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    @classmethod
    def singleton_scalar(cls, value: Any, name: str = "value") -> "Relation":
        """A 1x1 relation holding one scalar (query results that are scalars)."""
        from repro.datamodel.types import infer_type

        schema = Schema([Attribute(name, infer_type(value))])
        return cls(schema, (Row(schema, [value]),))

    # -- basic protocol ----------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> frozenset[Row]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row) -> bool:
        if isinstance(row, (tuple, list)):
            return any(r.values == tuple(row) for r in self._rows)
        return row in self._rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self._schema.types == other._schema.types and self._rows == other._rows

    def __hash__(self) -> int:
        return hash((self._schema.types, self._rows))

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, {len(self._rows)} rows)"

    def is_empty(self) -> bool:
        return not self._rows

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (for printing and testing).

        Memoized on the (immutable) relation — callers must not mutate
        the returned list.
        """
        cached = self._sorted_cache
        if cached is None:
            cached = self._sorted_cache = sort_rows(self._rows)
        return cached

    # -- scalar view -------------------------------------------------------

    def scalar(self) -> Any:
        """The single value of a 1x1 relation.

        The paper allows a query to retrieve "a scalar or a relation";
        scalar query results are represented as 1x1 relations and unwrapped
        here.
        """
        if len(self._rows) != 1 or len(self._schema) != 1:
            raise NotScalarError(
                f"relation is {len(self._rows)}x{len(self._schema)}, not 1x1"
            )
        (row,) = self._rows
        return row[0]

    # -- algebra -----------------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        return Relation(self._schema, (r for r in self._rows if predicate(r)))

    def project(self, names: Sequence[str]) -> "Relation":
        sub = self._schema.project(names)
        return Relation(sub, (r.project(names) for r in self._rows))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        new_schema = self._schema.rename(dict(mapping))
        return Relation(new_schema, (r.with_schema(new_schema) for r in self._rows))

    def extend(
        self, attribute: Attribute, fn: Callable[[Row], Any]
    ) -> "Relation":
        """Add a computed column."""
        new_schema = self._schema.extend(attribute)
        return Relation(
            new_schema,
            (Row(new_schema, r.values + (fn(r),)) for r in self._rows),
        )

    def union(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self._rows | other._rows)

    def difference(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self._rows - other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self._rows & other._rows)

    def product(self, other: "Relation") -> "Relation":
        """Cross product; attribute names must not collide."""
        schema = self._schema.concat(other._schema)
        return Relation(
            schema,
            (
                Row(schema, a.values + b.values)
                for a in self._rows
                for b in other._rows
            ),
        )

    def join(
        self, other: "Relation", on: Sequence[tuple[str, str]]
    ) -> "Relation":
        """Equi-join on pairs of (left attribute, right attribute).

        Right-side join attributes are dropped from the result (natural-join
        style); remaining right attributes keep their names and must not
        collide with left names.
        """
        right_join_names = {r for (_, r) in on}
        kept_right = [n for n in other._schema.names if n not in right_join_names]
        schema = self._schema.concat(other._schema.project(kept_right))

        index: dict[tuple, list[Row]] = {}
        right_keys = [r for (_, r) in on]
        for row in other._rows:
            index.setdefault(tuple(row[k] for k in right_keys), []).append(row)

        left_keys = [l for (l, _) in on]
        out = []
        for row in self._rows:
            key = tuple(row[k] for k in left_keys)
            for match in index.get(key, ()):
                extra = tuple(match[n] for n in kept_right)
                out.append(Row(schema, row.values + extra))
        return Relation(schema, out)

    def insert(self, row_values: Sequence[Any]) -> "Relation":
        return Relation(
            self._schema, self._rows | {Row(self._schema, row_values)}
        )

    def delete(self, predicate: Callable[[Row], bool]) -> "Relation":
        return Relation(self._schema, (r for r in self._rows if not predicate(r)))

    def with_row_changes(
        self,
        removed: Iterable[Sequence[Any]],
        added: Iterable[Sequence[Any]],
    ) -> "Relation":
        """The row-delta constructor: this relation without the rows
        whose values are in ``removed`` and with a row for each value
        tuple in ``added``.  Every untouched :class:`Row` is shared with
        ``self`` — only the rows that came are built and validated — so a
        chain of versions costs its changes, not its cardinality.
        Raises :class:`DataModelError` unless every removed row was
        present and every added row is new: a delta applied to a relation
        it was not computed against is refused, not silently merged."""
        removed = frozenset(map(tuple, removed))
        added = frozenset(Row(self._schema, vals) for vals in added)
        rows = (self._rows - removed) | added
        if len(rows) != len(self._rows) - len(removed) + len(added):
            raise DataModelError(
                f"row delta (-{len(removed)} +{len(added)}) does not "
                f"apply to {self!r}"
            )
        out = Relation.__new__(Relation)
        out._index_cache = None
        out._sorted_cache = None
        out._schema = self._schema
        out._rows = rows
        return out

    def update(
        self,
        predicate: Callable[[Row], bool],
        updater: Callable[[Row], Mapping[str, Any]],
    ) -> "Relation":
        """Rows matching ``predicate`` have columns replaced per ``updater``."""
        out = []
        for row in self._rows:
            if predicate(row):
                changes = updater(row)
                mapping = row.as_dict()
                mapping.update(changes)
                out.append(Row.from_mapping(self._schema, mapping))
            else:
                out.append(row)
        return Relation(self._schema, out)

    # -- helpers -----------------------------------------------------------

    def _require_compatible(self, other: "Relation") -> None:
        if self._schema.types != other._schema.types:
            raise SchemaError(
                f"incompatible schemas {self._schema!r} and {other._schema!r}"
            )


def _sort_key(value: Any):
    """Total order across mixed value types for deterministic output."""
    return (type(value).__name__, value)


def sort_rows(rows: Iterable[Row]) -> list[Row]:
    """``rows`` in the deterministic order of :meth:`Relation.sorted_rows`."""
    return sorted(rows, key=lambda r: tuple(map(_sort_key, r.values)))
