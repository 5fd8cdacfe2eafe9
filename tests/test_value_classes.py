"""The package's value classes behave as the dataclasses they replace.

Every class derived from :class:`repro._value.Value` is found by walking
the package, and each is compared with its twin: the dataclass that
``dataclasses.make_dataclass`` builds from the same fields, defaults and
frozenness (and the class's own ``__post_init__`` / ``__repr__``, which a
dataclass keeps).  On sample instances the two must agree on ``hash``,
``repr`` and ``==``, on construction by position, by keyword and from
defaults, and on refusing (or allowing) assignment; an instance of one
is never equal to an instance of the other.
"""

import dataclasses
import importlib
import inspect
import pkgutil
import weakref

import pytest

import repro
from repro._value import Value, factory
from repro.datamodel.schema import Attribute
from repro.datamodel.types import ValueType
from repro.errors import SchemaError
from repro.events.model import Event
from repro.obs.trace import TraceEvent
from repro.ptl.context import ExecutionRecord
from repro.rules.rule import FiringRecord


def _value_classes():
    found = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, Value)
                and cls is not Value
                and cls.__module__ == info.name
            ):
                found.append(cls)
    return found


VALUE_CLASSES = _value_classes()


def _defaults(cls) -> dict:
    """The defaults a caller sees: a hand-written ``__init__``'s own (it
    must take the fields in order), else the declared ones."""
    if "__init__" not in vars(cls):
        return dict(cls._defaults)
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    assert [p.name for p in params] == list(cls._fields)
    return {p.name: p.default for p in params if p.default is not p.empty}


def _twin(cls):
    specs = []
    defaults = _defaults(cls)
    for name in cls._fields:
        default = defaults.get(name, dataclasses.MISSING)
        if isinstance(default, factory):
            field = dataclasses.field(default_factory=default.make)
            specs.append((name, object, field))
        elif default is dataclasses.MISSING:
            specs.append((name, object))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    kept = {k: vars(cls)[k] for k in ("__post_init__", "__repr__") if k in vars(cls)}
    twin = dataclasses.make_dataclass(
        cls.__name__, specs, frozen=cls._frozen, namespace=kept
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def _samples(cls, tag: str) -> tuple:
    return tuple(f"{name}-{tag}" for name in cls._fields)


def _outcome(fn):
    try:
        return ("value", fn())
    except Exception as exc:  # the exception's type is the outcome
        return ("raises", type(exc))


def test_the_walk_finds_the_value_classes():
    names = {cls.__qualname__ for cls in VALUE_CLASSES}
    assert {"Event", "FiringRecord", "Token", "TraceEvent", "Rule"} <= names
    assert len(VALUE_CLASSES) >= 70


@pytest.mark.parametrize(
    "cls", VALUE_CLASSES, ids=lambda c: f"{c.__module__}.{c.__qualname__}"
)
def test_parity_with_dataclass(cls):
    twin = _twin(cls)
    values, others = _samples(cls, "a"), _samples(cls, "b")
    ours, theirs = cls(*values), twin(*values)

    assert cls.__match_args__ == twin.__match_args__ == cls._fields
    assert repr(ours) == repr(theirs)
    assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(theirs))
    if cls._frozen:
        assert hash(ours) == hash(values)
    else:
        assert cls.__hash__ is None and twin.__hash__ is None

    # Equality: within one class, on the field tuple.
    assert ours == cls(*values)
    assert (ours != cls(*others)) == bool(cls._fields)
    assert (cls(*others) == cls(*values)) == (twin(*others) == twin(*values))
    assert ours != theirs and theirs != ours
    assert not (ours == theirs)

    # By keyword, and from defaults.
    keywords = dict(zip(cls._fields, values))
    assert repr(cls(**keywords)) == repr(twin(**keywords)) == repr(ours)
    required = [n for n in cls._fields if n not in _defaults(cls)]
    head = values[: len(required)]
    first, second = cls(*head), cls(*head)
    twin_first, twin_second = twin(*head), twin(*head)
    for name in cls._fields:
        ours_value, twin_value = getattr(first, name), getattr(twin_first, name)
        assert type(ours_value) is type(twin_value)
        if not isinstance(_defaults(cls).get(name), factory):
            assert ours_value == twin_value
        assert (ours_value is getattr(second, name)) == (
            twin_value is getattr(twin_second, name)
        )
    assert _outcome(lambda: cls(*values, "extra"))[0] == "raises"
    assert _outcome(lambda: twin(*values, "extra"))[0] == "raises"
    if required:
        assert _outcome(lambda: cls(*head[:-1]))[0] == "raises"

    # Assignment: refused on a frozen value, allowed on a mutable one.
    for instance in (ours, theirs):
        for field in cls._fields[:1]:
            if cls._frozen:
                with pytest.raises(AttributeError):
                    setattr(instance, field, "changed")
                with pytest.raises(AttributeError):
                    delattr(instance, field)
            else:
                setattr(instance, field, "changed")
        if cls._frozen:
            with pytest.raises(AttributeError):
                setattr(instance, "not_a_field", 1)
    if not cls._frozen:
        assert repr(ours) == repr(theirs)


def test_post_init_runs():
    with pytest.raises(SchemaError):
        Attribute("", ValueType.INT)
    with pytest.raises(SchemaError):
        Attribute(name="", vtype=ValueType.INT)


def test_default_factory_is_per_instance():
    first, second = TraceEvent(0, "k", None), TraceEvent(1, "k", None)
    assert first.data == {} and first.data is not second.data


@pytest.mark.parametrize(
    "value, weakrefable",
    [
        (Event("e"), True),
        (ExecutionRecord("r", (), 1), False),
        (FiringRecord("r", (), 0, 1), False),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Value) else None,
)
def test_the_slotted_classes_stay_slotted(value, weakrefable):
    assert not hasattr(value, "__dict__")
    assert type(value).__slots__
    if weakrefable:
        assert weakref.ref(value)() is value
    else:
        with pytest.raises(TypeError):
            weakref.ref(value)


def test_a_default_may_not_precede_a_required_field():
    with pytest.raises(TypeError):

        class Bad(Value):
            a: int = 0
            b: int


def test_a_one_field_class_hashes_and_compares_as_a_1_tuple():
    class One(Value):
        value: object

    nan = float("nan")
    assert hash(One(7)) == hash((7,))
    assert One(nan) == One(nan)  # the tuple compare's identity shortcut
    assert One(1) != One(2)


def test_a_mutable_class_is_unhashable_whatever_its_arity():
    class One(Value, frozen=False):
        value: object

    class Two(Value, frozen=False):
        a: object
        b: object

    for value in (One(1), Two(1, 2)):
        with pytest.raises(TypeError):
            hash(value)
        setattr(value, value._fields[0], 3)  # assignment is allowed


def test_a_subclass_extends_its_base_fields():
    class Base(Value):
        a: object

    class Sub(Base):
        b: object = 0

    assert Sub._fields == ("a", "b")
    assert hash(Sub(1)) == hash((1, 0))
    assert Sub(1) == Sub(1, 0) and Sub(1) != Base(1)
    assert repr(Sub(1)).endswith("<locals>.Sub(a=1, b=0)")
