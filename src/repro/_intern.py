"""Hash-consing: one live node per value, and one equality.

The condition and query syntax trees (:mod:`repro.ptl.ast`,
:mod:`repro.query.ast`) and the constraint algebra
(:mod:`repro.ptl.constraints`) are classes whose metaclass is
:class:`Canonical`: a construction whose fields match a live node's
returns that node, and builds one only on a miss.  A subformula that
many rules share (``price(S5)``, a login interval) is one object, a
rewrite that rebuilds an unchanged subtree gets the subtree back, and
the ``Since`` recurrences that rebuild ``F_h | (F_g & F_prev)`` every
step reuse the nodes they rebuild.

Equality is *type-exact* at the leaves.  A raw leaf — a literal's
value, a window — matches another only when both have the same type and
the same value: ``1``, ``1.0`` and ``True`` are three leaves, ``-0.0`` is
not ``0.0``, and every NaN is one leaf (:func:`leaf`).  The intern
table's key is the class and the fields, leaves through :func:`leaf`, so
two live nodes with equal keys are one node.  ``==`` on a node is
therefore "same node": a syntax-tree node compares its key (and hashes
it, so ``a == b`` implies ``hash(a) == hash(b)``), a constraint-algebra
node compares its identity, and either way a dict keyed by nodes (a
plan's compiled nodes, a memo) tells ``x > 1`` from ``x > 1.0``.  A node
whose fields cannot be hashed (a list in a literal) stays private: it is
built, not filed.

A table maps a key to an :class:`_Entry`, a weak reference that knows
where it is filed, so the death of its node removes exactly that entry:
a node is canonical while something references it, and the table holds
nothing else.  Each class files its nodes in its ``_table``:
:data:`TREES` for the syntax trees, :data:`TERMS` and :data:`FORMULAS`
for the constraint algebra, whose hits and misses
:func:`repro.ptl.constraints.intern_stats` reports.
"""

from __future__ import annotations

from weakref import ref as _weakref

from repro._value import Value

_set = object.__setattr__

__all__ = [
    "EMPTY",
    "FORMULAS",
    "TERMS",
    "TREES",
    "Canonical",
    "canonical_count",
    "eq_by_leaf",
    "hash_by_leaf",
    "leaf",
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


def leaf(value):
    """A raw leaf as it is compared, hashed and keyed: a string or
    ``None`` as itself, a tuple or list as its leaves, anything else with
    its type — a zero or NaN float by its ``repr``, so ``-0.0`` is not
    ``0.0`` and one NaN is every NaN."""
    cls = value.__class__
    if cls is str or value is None:
        return value
    if cls is float:
        if value != value or not value:
            return (cls, repr(value))
        return (cls, value)
    if cls is tuple:
        return tuple([leaf(v) for v in value])
    if cls is list:
        return [leaf(v) for v in value]
    return (cls, value)


class _Table(dict):
    """A weak intern table whose constructions are counted: how often one
    found a live node (``hits``) or built one (``misses``)."""

    __slots__ = ("hits", "misses")

    def __init__(self) -> None:
        super().__init__()
        self.hits = self.misses = 0


#: The live syntax-tree nodes (conditions and queries).
TREES: dict = {}
#: The live constraint-algebra terms and formula nodes.
TERMS = _Table()
FORMULAS = _Table()


class _Entry(_weakref):
    """A weak table entry that knows where it is filed, so the death of its
    object removes exactly that entry."""

    __slots__ = ("key", "table")


def _forget(entry: _Entry) -> None:
    table = entry.table
    filed = table.pop(entry.key, None)
    if filed is not entry and filed is not None:
        # A rebuilt node's entry replaced this dead one: put it back.
        table[entry.key] = filed


def canonical_count() -> int:
    """Live canonical syntax-tree nodes (conditions and queries)."""
    return len(TREES)


def _key(cls, fields) -> tuple:
    """The intern key of a node of ``cls`` with these fields: the class,
    then each field as itself, its leaves through :func:`leaf`."""
    key = (cls, *fields)
    if cls._leaf_at:
        key = list(key)
        for i in cls._leaf_at:
            key[i] = leaf(key[i])
        key = tuple(key)
    return key


def _fields(node) -> tuple:
    return tuple([getattr(node, name) for name in node._fields])


def _eq(self, other):
    if self is other:
        return True
    if other.__class__ is self.__class__:
        # Distinct live nodes have distinct keys, unless one is private.
        cls = self.__class__
        return _key(cls, _fields(self)) == _key(cls, _fields(other))
    return NotImplemented


def _hash(self) -> int:
    # Held in the node's ``_hash`` slot, set when the node is filed: a
    # deep tree keys many dicts and is hashed once.  Not a field, so
    # ``==`` and ``repr`` do not see it.  A private node has none, and
    # hashing one raises.
    try:
        return self._hash
    except AttributeError:
        return hash(_key(self.__class__, _fields(self))[1:])


def _reduce(node):
    """Pickle a node as its class and fields: loading builds (or finds)
    the canonical node, whose hash is then the loading process's."""
    return (node.__class__, _fields(node))


def eq_by_leaf(self, other):
    """``==`` of a value class that is compared but not filed, and whose
    one field is ``value`` (a constraint-algebra constant): that field as
    a :func:`leaf`, the nodes' rule; :func:`hash_by_leaf` is its hash."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return leaf(self.value) == leaf(other.value)


def hash_by_leaf(self) -> int:
    # Equal leaves have one type and equal values, whose hashes agree
    # except for NaN, whose hash is its identity's.
    value = self.value
    if value.__class__ is float or value.__class__ is tuple:
        return hash(leaf(value))
    return hash(value)


class Canonical(type):
    """Metaclass of the hash-consed classes (see the module docstring).
    A class names its fields in ``_fields``, those that hold raw leaves in
    ``_leaves``, and the table it files its nodes in in ``_table``
    (:data:`TREES` unless it says otherwise; a :class:`_Table` counts
    hits and misses); its nodes pickle as their fields.  A frozen value
    class (a condition or query tree) reads its fields from its
    annotations, and its ``==`` and ``hash`` are those of its key, as a
    dataclass's are of its fields; the hash is held in a ``_hash`` slot.
    Any other class (the constraint algebra's, whose nodes carry caches)
    keeps ``object``'s: identity, which for a filed node is the same
    relation, and costs no Python call.  A class without fields (an
    abstract base) constructs as usual."""

    def __init__(cls, name, bases, namespace, **kwargs) -> None:
        super().__init__(name, bases, namespace, **kwargs)
        if cls._fields:
            fields = cls._fields
            # Positions in the key, which starts with the class.
            cls._leaf_at = tuple([fields.index(n) + 1 for n in cls._leaves])
            table = cls._table
            held = issubclass(cls, Value)
            cls._filing = (
                len(fields) + 1,
                cls._leaf_at,
                table,
                table.__class__ is _Table,
                held,
            )
            if held:
                cls.__eq__ = _eq
                cls.__hash__ = _hash
            cls.__reduce__ = _reduce

    #: Field names, in order, and those holding raw leaves, compared by
    #: :func:`leaf`.
    _fields: tuple = ()
    _leaves: tuple = ()
    _table: dict = TREES
    #: (key length, leaf positions, table, counted, held hash); no key
    #: of an abstract base.
    _filing = (-1, (), None, False, False)

    def __call__(cls, *args, **kwargs):
        width, leaf_at, table, counted, held = cls._filing
        key = (cls, *args)
        node = None
        if kwargs or len(key) != width:
            # Defaults, keywords or an abstract base: build, then look
            # the fields up.
            node = type.__call__(cls, *args, **kwargs)
            if table is None:
                return node
            key = (cls, *_fields(node))
        if leaf_at:
            key = _key(cls, key[1:])
        try:
            entry = table.get(key)
        except TypeError:
            # An unhashable field: a private node.
            return type.__call__(cls, *args) if node is None else node
        if entry is not None:
            live = entry()
            if live is not None:
                if counted:
                    table.hits += 1
                return live
        if counted:
            table.misses += 1
        if node is None:
            node = type.__call__(cls, *args)
        if held:
            _set(node, "_hash", hash(key[1:]))
        entry = table[key] = _Entry(node, _forget)
        entry.key = key
        entry.table = table
        return node
