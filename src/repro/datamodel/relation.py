"""Relations: immutable sets of rows over a schema, with algebra helpers.

Relations use *set* semantics (the paper's examples are QUEL/relational).
All operations return new relations; the engine layers versioning on top
of this immutability (see ``repro.storage.snapshot``), and versions the
way Section 5's ``R_x(attrs…, T_start, T_end)`` does — by tuple: only the
newest version of a relation owns a table, every older one is a reverse
row-delta off its successor or, now and then, a tuple of its rows
(:meth:`Relation.supersede`).
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.datamodel.schema import Attribute, Schema
from repro.datamodel.tuples import Row
from repro.errors import DataModelError, NotScalarError, SchemaError


class VersionStats:
    """Process-wide tallies of the version representation (the sibling of
    :data:`repro.query.plan.STATS`; an engine with metrics enabled
    publishes them)."""

    __slots__ = ("demoted", "materialisations")

    def __init__(self) -> None:
        #: Versions superseded by a successor (:meth:`Relation.supersede`).
        self.demoted = 0
        #: Past versions folded back into a table (:meth:`Relation._fold`).
        self.materialisations = 0


STATS = VersionStats()


class Relation:
    """An immutable set of :class:`Row` sharing one :class:`Schema`.

    The row *set* never changes; its representation does, once.  The
    newest version of a relation is *flat*: ``_rows`` is its table (a
    ``frozenset``) and ``_index_cache`` memoizes hash indexes on it (see
    :mod:`repro.storage.index`).  When the engine installs a successor
    (:meth:`supersede`) the version drops its caches and its table and
    points at the successor (``_succ``).  While that is the smaller of
    the two it becomes a reverse row-delta (``_delta``: one tuple, the
    count of rows the successor removed, those rows, then the rows it
    added), RCS-style: the present is materialised, the past is "my
    successor, minus what it added, plus what it removed".  A version
    keeps its rows, as a tuple, once the deltas chained behind it
    (``_chain``: their rows and links) would outweigh them, so reading
    any past version costs O(|R|) however long the history; it then
    keeps in ``_chain`` the bytes its table held (:meth:`table_bytes`).
    No superseded version holds a hash table: a reader gets one built
    for it (:meth:`flat`).  ``_succ`` only ever points forward in time,
    so a chain is never a cycle and an evicted past is freed by
    reference count.
    """

    __slots__ = (
        "_schema", "_rows", "_index_cache", "_sorted_cache",
        "_succ", "_delta", "_chain",
    )

    def __init__(self, schema: Schema, rows: Iterable[Row] = ()):
        self._index_cache = None
        self._sorted_cache = None
        self._succ = None
        self._delta = None
        self._chain = 0
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

    @classmethod
    def _of(cls, schema: Schema, rows: frozenset) -> "Relation":
        """A flat relation over rows already validated against ``schema``."""
        out = cls.__new__(cls)
        out._index_cache = None
        out._sorted_cache = None
        out._succ = None
        out._delta = None
        out._chain = 0
        out._schema = schema
        out._rows = rows
        return out

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
        rows = self._rows
        if rows is None:
            return self._fold()
        return rows if self._succ is None else frozenset(rows)

    def __len__(self) -> int:
        # Counted along the chain, not by folding it into a table: a
        # delta of n rows, k of them removed, undoes n - 2k of them.
        count = 0
        version = self
        while version._rows is None:
            delta = version._delta
            count += 2 * delta[0] + 1 - len(delta)
            version = version._succ
        return count + len(version._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row) -> bool:
        if isinstance(row, (tuple, list)):
            return any(r.values == tuple(row) for r in self.rows)
        return row in self.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._schema.types != other._schema.types:
            return False
        delta = self.delta_onto(other) or other.delta_onto(self)
        if delta is not None:
            # Adjacent versions: equal iff the successor changed nothing.
            return not (delta[0] or delta[1])
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self._schema.types, self.rows))

    def __repr__(self) -> str:
        return f"Relation({self._schema!r}, {len(self)} rows)"

    def is_empty(self) -> bool:
        return not self.rows

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (for printing and testing).

        Memoized on the newest version of a relation (nothing is cached
        on a superseded one) — callers must not mutate the returned list.
        """
        if self._succ is not None:
            return sort_rows(self.rows)
        cached = self._sorted_cache
        if cached is None:
            cached = self._sorted_cache = sort_rows(self._rows)
        return cached

    # -- versions ------------------------------------------------------------

    @property
    def superseded(self) -> bool:
        """Whether a successor version has been installed over this one."""
        return self._succ is not None

    def supersede(self, successor: "Relation") -> None:
        """``successor`` took this version's place as the newest one: give
        up the representation only the present needs.  The caches and the
        hash table go.  While the reverse delta, together with the deltas
        already chained behind this version, is smaller than the table,
        the version becomes that delta — reading it from then on folds the
        chain (:meth:`flat`), and the fold never undoes more rows than a
        table holds.  Otherwise (and across a schema change) it keeps its
        rows as a tuple, and a reader builds the table from them.  A
        version already superseded keeps its first successor, and a
        superseded version is never a successor — both keep chains
        acyclic."""
        if (
            successor is self
            or self._succ is not None
            or successor._succ is not None
        ):
            return
        self._index_cache = None
        self._sorted_cache = None
        self._succ = successor
        STATS.demoted += 1
        table = self._rows
        if self._schema == successor._schema:
            removed = table - successor._rows
            added = successor._rows - table
            chain = self._chain + len(removed) + len(added) + 1
            if chain <= len(table):
                self._delta = (len(removed), *removed, *added)
                self._rows = None
                successor._chain = chain
                return
        self._rows = tuple(table)
        self._chain = sys.getsizeof(table)

    def table_bytes(self) -> int:
        """``sys.getsizeof`` of this version's table: the one it owns
        while it is the newest, the one it gave up when it was superseded
        keeping its rows (what a memory account charged it then), or the
        one its rows fold into."""
        if self._succ is None:
            return sys.getsizeof(self._rows)
        if self._rows is not None:
            return self._chain
        return sys.getsizeof(self._fold())

    def delta_onto(self, other: "Relation") -> Optional[tuple[tuple, tuple]]:
        """``(removed, added)`` — the rows of this version ``other`` lacks
        and the rows ``other`` has beyond it — when this version is stored
        as exactly that reverse delta off ``other``; else ``None``."""
        if self._succ is not other or self._delta is None:
            return None
        delta = self._delta
        split = delta[0] + 1
        return delta[1:split], delta[split:]

    def flat(self) -> "Relation":
        """This version with a table of its own: ``self`` while it is the
        newest, else a *transient* flat copy for one reader — a query
        builds its indexes on the copy and both die with the execution, so
        nothing is memoized on the past."""
        if self._succ is None:
            return self
        return Relation._of(self._schema, self.rows)

    def _fold(self) -> frozenset:
        """The table of a version stored as a reverse delta: the rows of
        the first successor that still keeps them (its table, or the tuple
        of a version kept whole) with every delta of the chain undone,
        newest first — one table build, O(|R|) because :meth:`supersede`
        bounds the chain.  Rows no delta touched are the successor's own
        objects."""
        chain = []
        version = self
        while version._rows is None:
            chain.append(version._delta)
            version = version._succ
        table = set(version._rows)
        for delta in reversed(chain):
            split = delta[0] + 1
            table.difference_update(delta[split:])
            table.update(delta[1:split])
        STATS.materialisations += 1
        return frozenset(table)

    # -- scalar view -------------------------------------------------------

    def scalar(self) -> Any:
        """The single value of a 1x1 relation.

        The paper allows a query to retrieve "a scalar or a relation";
        scalar query results are represented as 1x1 relations and unwrapped
        here.
        """
        rows = self.rows
        if len(rows) != 1 or len(self._schema) != 1:
            raise NotScalarError(
                f"relation is {len(rows)}x{len(self._schema)}, not 1x1"
            )
        (row,) = rows
        return row[0]

    # -- algebra -----------------------------------------------------------

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        return Relation(self._schema, (r for r in self.rows if predicate(r)))

    def project(self, names: Sequence[str]) -> "Relation":
        sub = self._schema.project(names)
        return Relation(sub, (r.project(names) for r in self.rows))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        new_schema = self._schema.rename(dict(mapping))
        return Relation(new_schema, (r.with_schema(new_schema) for r in self.rows))

    def extend(
        self, attribute: Attribute, fn: Callable[[Row], Any]
    ) -> "Relation":
        """Add a computed column."""
        new_schema = self._schema.extend(attribute)
        return Relation(
            new_schema,
            (Row(new_schema, r.values + (fn(r),)) for r in self.rows),
        )

    def union(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self.rows | other.rows)

    def difference(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self.rows - other.rows)

    def intersection(self, other: "Relation") -> "Relation":
        self._require_compatible(other)
        return Relation(self._schema, self.rows & other.rows)

    def product(self, other: "Relation") -> "Relation":
        """Cross product; attribute names must not collide."""
        schema = self._schema.concat(other._schema)
        right = other.rows
        return Relation(
            schema,
            (
                Row(schema, a.values + b.values)
                for a in self.rows
                for b in right
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
        for row in other.rows:
            index.setdefault(tuple([row[k] for k in right_keys]), []).append(row)

        left_keys = [l for (l, _) in on]
        out = []
        for row in self.rows:
            key = tuple([row[k] for k in left_keys])
            for match in index.get(key, ()):
                extra = tuple([match[n] for n in kept_right])
                out.append(Row(schema, row.values + extra))
        return Relation(schema, out)

    def insert(self, row_values: Sequence[Any]) -> "Relation":
        return Relation(
            self._schema, self.rows | {Row(self._schema, row_values)}
        )

    def delete(self, predicate: Callable[[Row], bool]) -> "Relation":
        return Relation(self._schema, (r for r in self.rows if not predicate(r)))

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
        before = self.rows
        rows = (before - removed) | added
        if len(rows) != len(before) - len(removed) + len(added):
            raise DataModelError(
                f"row delta (-{len(removed)} +{len(added)}) does not "
                f"apply to {self!r}"
            )
        return Relation._of(self._schema, rows)

    def update(
        self,
        predicate: Callable[[Row], bool],
        updater: Callable[[Row], Mapping[str, Any]],
    ) -> "Relation":
        """Rows matching ``predicate`` have columns replaced per ``updater``."""
        out = []
        for row in self.rows:
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
    return sorted(rows, key=lambda r: tuple([_sort_key(v) for v in r.values]))
