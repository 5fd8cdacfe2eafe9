"""Schemas: ordered lists of typed, named attributes."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro._value import Value
from repro.datamodel.types import ValueType, check_value
from repro.errors import SchemaError, UnknownAttributeError


class Attribute(Value):
    """A named, typed column."""

    name: str
    vtype: ValueType

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise SchemaError(f"invalid attribute name {self.name!r}")

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.vtype)

    def __str__(self) -> str:
        return f"{self.name}:{self.vtype.value}"


class Schema:
    """An ordered collection of attributes with unique names.

    Schemas are immutable; operations produce new schemas.
    """

    __slots__ = ("_attrs", "_index", "_hash")

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = tuple(attributes)
        index: dict[str, int] = {}
        for i, attr in enumerate(attrs):
            if not isinstance(attr, Attribute):
                raise SchemaError(f"not an Attribute: {attr!r}")
            if attr.name in index:
                raise SchemaError(f"duplicate attribute name {attr.name!r}")
            index[attr.name] = i
        self._attrs = attrs
        self._index = index
        #: Held: every planned query's cache key hashes its schemas.
        self._hash = hash(attrs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def of(cls, **columns: ValueType) -> "Schema":
        """Build a schema from keyword arguments: ``Schema.of(a=INT, b=STRING)``."""
        return cls([Attribute(name, vtype) for name, vtype in columns.items()])

    # -- basic protocol ----------------------------------------------------

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attrs

    @property
    def names(self) -> tuple[str, ...]:
        return tuple([a.name for a in self._attrs])

    @property
    def types(self) -> tuple[ValueType, ...]:
        return tuple([a.vtype for a in self._attrs])

    def __len__(self) -> int:
        return len(self._attrs)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attrs)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __getitem__(self, key) -> Attribute:
        if isinstance(key, str):
            try:
                return self._attrs[self._index[key]]
            except KeyError:
                raise UnknownAttributeError(f"no attribute {key!r}") from None
        return self._attrs[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attrs == other._attrs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Schema(" + ", ".join(str(a) for a in self._attrs) + ")"

    # -- lookups -----------------------------------------------------------

    def position(self, name: str) -> int:
        """Index of attribute ``name``; raises if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(f"no attribute {name!r}") from None

    def type_of(self, name: str) -> ValueType:
        return self[name].vtype

    # -- derivations -------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        """Sub-schema with the given attributes, in the given order."""
        return Schema([self[n] for n in names])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Rename attributes per ``mapping`` (old name -> new name)."""
        for old in mapping:
            if old not in self._index:
                raise UnknownAttributeError(f"no attribute {old!r}")
        return Schema(
            [a.renamed(mapping.get(a.name, a.name)) for a in self._attrs]
        )

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a cross product; names must not collide."""
        return Schema(self._attrs + other._attrs)

    def extend(self, *attributes: Attribute) -> "Schema":
        return Schema(self._attrs + tuple(attributes))

    def prefixed(self, prefix: str) -> "Schema":
        """All attributes renamed to ``prefix.name`` (used by joins)."""
        return Schema([a.renamed(f"{prefix}.{a.name}") for a in self._attrs])

    # -- validation --------------------------------------------------------

    def check_row_values(self, values: Sequence) -> tuple:
        """Validate a sequence of values against this schema; returns the
        coerced tuple."""
        if len(values) != len(self._attrs):
            raise SchemaError(
                f"arity mismatch: schema has {len(self._attrs)} attributes, "
                f"row has {len(values)} values"
            )
        return tuple([
            check_value(v, a.vtype) for v, a in zip(values, self._attrs)
        ])
