"""Value classes: records whose methods are shared, not generated.

A class derived from :class:`Value` declares its fields as annotations,
in order, with an optional default after each (``factory(dict)`` for a
default built per instance) — the declaration a ``dataclass`` reads.
``__init_subclass__`` reads them once into the class's ``_fields`` and
``_defaults``; construction, equality, hashing, ``repr`` and the frozen
guard are the functions of this module, which read those tuples.  No
method is generated: a ``dataclass`` ``exec``\\ s four to six per class
at import, and a served process loads over fifty such classes.

What each class gets is what ``@dataclass`` (``frozen=True`` unless the
class says ``frozen=False``) gave it:

* ``__init__`` by position or keyword, defaults, then ``__post_init__``
  if the class has one — unless the class writes its own ``__init__``
  (the classes built once per operation do: one call, no argument
  matching), which must take the fields in order with the same defaults;
* ``__eq__`` within one class, on the field tuple;
* ``__hash__`` — ``hash`` of the field tuple, the value a dataclass
  computes, so set and dict orders do not move — on a frozen class; a
  mutable one is unhashable;
* ``__repr__`` ``Name(f=v, ...)`` by qualified name;
* on a frozen class, :class:`FrozenInstanceError` (an ``AttributeError``)
  on assignment or deletion.

A slotted class lists its fields in ``__slots__`` (a slot cannot carry a
class-level default, so it writes its own ``__init__`` when a field has
one).
"""

from __future__ import annotations

from operator import attrgetter
from reprlib import recursive_repr

__all__ = ["FrozenInstanceError", "Value", "factory"]


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, an attribute of a frozen value."""


class factory:
    """A field default made per instance: ``data: dict = factory(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


_setattr = object.__setattr__


def _no_fields(value) -> tuple:
    return ()


class Value:
    """Base of the value classes (see the module docstring)."""

    __slots__ = ()

    #: Field names, in declaration order (a base class's first).
    _fields: tuple = ()
    #: Field name -> default (a :class:`factory` is called per instance).
    _defaults: dict = {}
    _frozen = True
    #: Whether the class defines ``__post_init__``, which ``__init__``
    #: calls last.
    _post_init = False
    #: The field values of an instance: a tuple (an ``attrgetter`` of
    #: every field), or on a one-field class that field's value, which
    #: its ``__eq__`` / ``__hash__`` wrap in a 1-tuple.
    _row = staticmethod(_no_fields)

    def __init_subclass__(cls, frozen=None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        body = cls.__dict__
        own_eq = "__eq__" in body
        # A body that defines ``__eq__`` alone gets ``__hash__ = None``
        # from Python; as for a dataclass, that is not a hash of its own.
        own_hash = "__hash__" in body and not (
            body["__hash__"] is None and own_eq
        )
        slots = body.get("__slots__", ())
        annotations = body.get("__annotations__", {})
        defaults = dict(cls._defaults)
        for name in annotations:
            if name in body and name not in slots:
                defaults[name] = body[name]
                if isinstance(body[name], factory):
                    delattr(cls, name)
        fields = cls._fields + tuple([
            n for n in annotations if n not in cls._fields
        ])
        required = [n for n in fields if n not in defaults]
        if required and fields.index(required[-1]) >= len(required):
            raise TypeError(
                f"{cls.__qualname__}: non-default field {required[-1]!r} "
                "follows a default"
            )
        cls._fields, cls._defaults = fields, defaults
        cls._post_init = hasattr(cls, "__post_init__")
        cls.__match_args__ = fields
        if fields:
            cls._row = attrgetter(*fields)
        one = len(fields) == 1
        if not own_eq:
            cls.__eq__ = _eq_one if one else _eq
        if frozen is not None:
            cls._frozen = frozen
        if cls._frozen:
            if not own_hash:
                cls.__hash__ = _hash_one if one else _hash
            cls.__setattr__ = _frozen_setattr
            cls.__delattr__ = _frozen_delattr
        elif not own_hash:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        put = _setattr if cls._frozen else setattr
        for name, arg in zip(fields, args):
            put(self, name, arg)
        if len(args) == len(fields) and not kwargs:
            if cls._post_init:
                self.__post_init__()
            return
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} positional "
                f"arguments but {len(args)} were given"
            )
        for name in fields[len(args):]:
            if name in kwargs:
                arg = kwargs.pop(name)
            elif name in cls._defaults:
                arg = cls._defaults[name]
                if isinstance(arg, factory):
                    arg = arg.make()
            else:
                raise TypeError(
                    f"{cls.__qualname__}() missing required argument: {name!r}"
                )
            put(self, name, arg)
        if kwargs:
            name = next(iter(kwargs))
            problem = (
                "got multiple values for argument"
                if name in fields
                else "got an unexpected keyword argument"
            )
            raise TypeError(f"{cls.__qualname__}() {problem} {name!r}")
        if cls._post_init:
            self.__post_init__()

    @recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({fields})"


def _eq(self, other):
    if other.__class__ is self.__class__:
        row = type(self)._row
        return row(self) == row(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(type(self)._row(self))


def _eq_one(self, other):
    if other.__class__ is self.__class__:
        get = type(self)._row
        return (get(self),) == (get(other),)
    return NotImplemented


def _hash_one(self) -> int:
    return hash((type(self)._row(self),))


def _frozen_setattr(self, name: str, value) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")
