"""Weak intern tables: one live object per value.

A table maps a key to an :class:`_Entry`, a weak reference that knows
where it is filed, so the death of its object removes exactly that entry:
an object is canonical while something references it, and the table
holds nothing else.  :mod:`repro.ptl.constraints` files its constraint
nodes here; :class:`Canonical` files the syntax trees of conditions and
queries.

Syntax trees are hash-consed when they are built: a class whose metaclass
is :class:`Canonical` returns, for a construction whose fields match a
live node's, that node, and builds one only on a miss.  A subformula that
many rules share (``price(S5)``, a login interval) is one object, and a
rewrite that rebuilds an unchanged subtree gets the subtree back.

The match is *type-exact*, not ``==``: ``ConstT(1)``, ``ConstT(1.0)``,
``ConstT(True)`` and ``ConstT(-0.0)`` / ``ConstT(0.0)`` are equal values
but print differently, so each stays its own node.  A key therefore holds
a leaf with its type (a float by its ``repr``), and a string or a child
node as itself.  Children are canonical, so equal children are the same
object, except where equal leaves of different types below them make two
distinct children compare equal (``x > 1`` and ``x > 1.0`` under one
``Not``): a hit is taken only when the live node's children are the very
objects given (:func:`_exact`), and otherwise the new node stays private,
as does a node whose fields cannot be hashed (a list in a literal).
Nothing else changes: ``==`` and ``hash`` are the value classes' own.
"""

from __future__ import annotations

from weakref import ref as _weakref

from repro._value import Value, held_hash

__all__ = [
    "EMPTY",
    "Canonical",
    "canonical_count",
    "file",
    "same",
    "singleton",
    "small",
]

#: The one empty frozenset a long-lived structure holds (CPython builds a
#: new one, 216 bytes, for every ``frozenset()``).
EMPTY: frozenset = frozenset()


#: ``name -> frozenset({name})``, so the one-element sets of variable and
#: event names that conditions, plans and rules hold are one set per name.
#: A cache of values, not of identities: clearing it when it outgrows
#: ``_SINGLETONS_MAX`` only makes later sets new objects.
_singletons: dict = {}
_SINGLETONS_MAX = 4096


def small(items: frozenset) -> frozenset:
    """``items``, or the shared set equal to it when it has at most one
    element: :data:`EMPTY`, or the one ``frozenset({name})`` per name."""
    if len(items) > 1:
        return items
    if not items:
        return EMPTY
    (name,) = items
    return singleton(name)


def same(new, old) -> bool:
    """Whether a rebuilt sequence holds the very objects of ``old``: a
    rewrite that changed nothing returns ``old`` itself."""
    return all([a is b for a, b in zip(new, old)])


def singleton(name) -> frozenset:
    """The shared ``frozenset({name})``."""
    found = _singletons.get(name)
    if found is None:
        if len(_singletons) >= _SINGLETONS_MAX:
            _singletons.clear()
        found = _singletons[name] = frozenset((name,))
    return found


class _Entry(_weakref):
    """A weak table entry that knows where it is filed, so the death of its
    object removes exactly that entry."""

    __slots__ = ("key", "table")


def _forget(entry: _Entry) -> None:
    table = entry.table
    # A dead entry may already have been replaced by a rebuilt object's.
    if table.get(entry.key) is entry:
        del table[entry.key]


def file(table: dict, key, node) -> None:
    """File ``node`` under ``key`` until it dies."""
    entry = _Entry(node, _forget)
    entry.key = key
    entry.table = table
    table[key] = entry


#: ``(class, field keys...) -> _Entry`` for the live syntax-tree nodes.
_trees: dict = {}


def canonical_count() -> int:
    """Live canonical syntax-tree nodes (conditions and queries)."""
    return len(_trees)


def _key(value):
    """A field value as it stands in a key: a string, a node or a tuple of
    them as itself, any other leaf with its type (a float by its
    ``repr``: ``-0.0`` is not ``0.0``)."""
    cls = value.__class__
    if cls is str or cls.__class__ is Canonical:
        return value
    if cls is tuple:
        keys = [_key(v) for v in value]
        if same(keys, value):
            return value
        return tuple(keys)
    if cls is float:
        return (cls, repr(value))
    return (cls, value)


def _exact(have, arg) -> bool:
    """Whether a live node's field is ``arg``, given that their keys are
    equal: equal leaves are (their keys carry their types), but two
    distinct nodes are not — they are equal only through leaves of
    different types below them (``x > 1`` and ``x > 1.0``)."""
    if have is arg:
        return True
    cls = have.__class__
    if cls is tuple:
        return all([_exact(h, a) for h, a in zip(have, arg)])
    return cls.__class__ is not Canonical


def _reduce(node):
    """Pickle a node as its class and fields: loading builds (or finds)
    the canonical node, whose hash is then the loading process's."""
    return (node.__class__, tuple([getattr(node, name) for name in node._fields]))


class Canonical(type):
    """Metaclass of the syntax-tree value classes (see the module
    docstring).  A frozen value class's node holds its hash in a ``_hash``
    slot (:func:`~repro._value.held_hash`), so a key hashes its children
    once, and pickles as its fields; a class that is not a frozen value
    class (an abstract base) constructs as usual."""

    def __init__(cls, name, bases, namespace, **kwargs) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        cls._canonical = issubclass(cls, Value) and cls._frozen
        if cls._canonical:
            cls.__hash__ = held_hash
            cls.__reduce__ = _reduce

    def __call__(cls, *args, **kwargs):
        if not cls._canonical:
            return type.__call__(cls, *args, **kwargs)
        fields = cls._fields
        node = None
        if kwargs or len(args) != len(fields):
            # Defaults and keywords: build, then look the fields up.
            node = type.__call__(cls, *args, **kwargs)
            args = [getattr(node, name) for name in fields]
        try:
            key = (cls, *[_key(a) for a in args])
            entry = _trees.get(key)
        except TypeError:
            return type.__call__(cls, *args) if node is None else node
        if entry is not None:
            live = entry()
            if live is not None:
                for name, arg in zip(fields, args):
                    have = getattr(live, name)
                    if have is not arg and not _exact(have, arg):
                        # Equal to a live node, not the same: a private node.
                        return type.__call__(cls, *args) if node is None else node
                return live
        if node is None:
            node = type.__call__(cls, *args)
        file(_trees, key, node)
        return node
