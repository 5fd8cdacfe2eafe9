"""Hash indexes over immutable relations.

Relations are immutable, so an index is built once per (attribute tuple)
on the newest version of a relation and cached on the relation object; a
superseded version caches nothing (its reader gets a transient flat copy
from :meth:`DatabaseState.relation
<repro.storage.snapshot.DatabaseState.relation>`, and an index built on
that dies with it).  The query evaluator uses indexes for equality
selections (``R.a = const``) and joins; auxiliary structures in the
temporal component get them for free.
"""

from __future__ import annotations

from typing import Sequence

from repro.datamodel.relation import Relation
from repro.datamodel.tuples import Row
from repro.errors import UnknownAttributeError


class HashIndex:
    """Equality index on one or more attributes of a single relation
    version.  The relation owns its indexes (see :func:`index_for`); an
    index keeps no pointer back, so a dropped relation version is freed by
    reference count."""

    __slots__ = ("attrs", "_buckets")

    def __init__(self, relation: Relation, attrs: Sequence[str]):
        for a in attrs:
            if a not in relation.schema:
                raise UnknownAttributeError(f"no attribute {a!r}")
        self.attrs = tuple(attrs)
        buckets: dict[tuple, list[Row]] = {}
        positions = [relation.schema.position(a) for a in self.attrs]
        for row in relation.rows:
            key = tuple([row[p] for p in positions])
            buckets.setdefault(key, []).append(row)
        self._buckets = {k: tuple(v) for k, v in buckets.items()}

    def lookup(self, *values) -> tuple[Row, ...]:
        """Rows whose indexed attributes equal ``values``."""
        if len(values) != len(self.attrs):
            raise UnknownAttributeError(
                f"index on {self.attrs} takes {len(self.attrs)} value(s)"
            )
        return self._buckets.get(tuple(values), ())

    def keys(self) -> list[tuple]:
        return sorted(self._buckets, key=repr)

    def __len__(self) -> int:
        return len(self._buckets)


def index_for(relation: Relation, attrs: Sequence[str]) -> HashIndex:
    """The hash index of ``relation`` on ``attrs``: cached on the newest
    version of a relation, built afresh for a superseded one."""
    if relation._succ is not None:
        return HashIndex(relation, tuple(attrs))
    cache = relation._index_cache
    if cache is None:
        cache = {}
        relation._index_cache = cache
    key = tuple(attrs)
    index = cache.get(key)
    if index is None:
        index = HashIndex(relation, key)
        cache[key] = index
    return index
