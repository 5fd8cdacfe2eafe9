"""Registries of scalar and aggregate functions usable in queries and PTL.

The paper's logic includes "function symbols denoting database queries,
... integers and standard operations on integers etc." (Section 4.1).  This
module provides the standard operations; query symbols are resolved by the
query evaluator against the catalog.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.errors import QueryEvaluationError, UnknownFunctionError

ScalarFn = Callable[..., Any]
AggregateFn = Callable[[Sequence[Any]], Any]


def _div(a, b):
    if b == 0:
        raise QueryEvaluationError("division by zero")
    if isinstance(a, int) and isinstance(b, int) and a % b == 0:
        return a // b
    return a / b


def _mod(a, b):
    if b == 0:
        raise QueryEvaluationError("mod by zero")
    return a % b


SCALAR_FUNCTIONS: dict[str, ScalarFn] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "mod": _mod,
    "neg": lambda a: -a,
    "abs": abs,
    "min": min,
    "max": max,
    "concat": lambda a, b: str(a) + str(b),
}


def scalar_function(name: str) -> ScalarFn:
    try:
        return SCALAR_FUNCTIONS[name]
    except KeyError:
        raise UnknownFunctionError(f"unknown scalar function {name!r}") from None


def register_scalar_function(name: str, fn: ScalarFn) -> None:
    """Extend the scalar-function vocabulary (user-defined functions)."""
    SCALAR_FUNCTIONS[name] = fn


# --------------------------------------------------------------------------
# Aggregates — shared by queries (AVG over rows) and by PTL *temporal*
# aggregates (AVG over sampling points in a history, Section 6).
# --------------------------------------------------------------------------


def _agg_sum(values: Sequence[Any]) -> Any:
    return sum(values) if values else 0


def _agg_count(values: Sequence[Any]) -> int:
    return len(values)


def _agg_avg(values: Sequence[Any]) -> Any:
    if not values:
        raise QueryEvaluationError("avg of empty collection")
    return sum(values) / len(values)


def _agg_min(values: Sequence[Any]) -> Any:
    if not values:
        raise QueryEvaluationError("min of empty collection")
    return min(values)


def _agg_max(values: Sequence[Any]) -> Any:
    if not values:
        raise QueryEvaluationError("max of empty collection")
    return max(values)


AGGREGATE_FUNCTIONS: dict[str, AggregateFn] = {
    "sum": _agg_sum,
    "count": _agg_count,
    "avg": _agg_avg,
    "min": _agg_min,
    "max": _agg_max,
}


def aggregate_function(name: str) -> AggregateFn:
    try:
        return AGGREGATE_FUNCTIONS[name.lower()]
    except KeyError:
        raise UnknownFunctionError(
            f"unknown aggregate function {name!r}"
        ) from None


def is_aggregate(name: str) -> bool:
    return name.lower() in AGGREGATE_FUNCTIONS


def running_fold(name: str, count: int, total: Any, extremum: Any, value: Any):
    """One sample folded into a running aggregate's ``(count, sum,
    extremum)``; ``name`` is a lower-case aggregate name."""
    if name in ("sum", "avg"):
        total += value
    elif name == "min":
        extremum = value if extremum is None else min(extremum, value)
    elif name == "max":
        extremum = value if extremum is None else max(extremum, value)
    return count + 1, total, extremum


def running_value(name: str, count: int, total: Any, extremum: Any) -> Any:
    """The value of a running aggregate's ``(count, sum, extremum)``;
    raises on empty avg/min/max."""
    if name == "count":
        return count
    if name == "sum":
        return total
    if count == 0:
        raise QueryEvaluationError(f"{name} of empty sample set")
    if name == "avg":
        return total / count
    return extremum


class RunningAggregate:
    """Incrementally-maintained aggregate over a stream of samples.

    This is the workhorse of PTL temporal aggregates (Section 6): one
    sample per satisfied sampling point, folded into O(1) state — §6.1.1's
    ``CUM_PRICE`` / ``TOTAL_UPDATES`` items, plus a running extremum for
    ``min``/``max`` (the paper's model only ever *adds* samples between
    resets) — and the current value read in O(1).
    """

    __slots__ = ("name", "_sum", "_count", "_extremum")

    def __init__(self, name: str):
        name = name.lower()
        if not is_aggregate(name):
            raise UnknownFunctionError(f"unknown aggregate function {name!r}")
        self.name = name
        self.reset()

    def reset(self) -> None:
        self._sum = 0
        self._count = 0
        self._extremum: Any = None

    def add(self, value: Any) -> None:
        self._count, self._sum, self._extremum = running_fold(
            self.name, self._count, self._sum, self._extremum, value
        )

    def add_all(self, values: Iterable[Any]) -> None:
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        return self._count

    def value(self) -> Any:
        """Current aggregate value; raises on empty avg/min/max."""
        return running_value(self.name, self._count, self._sum, self._extremum)

    def value_or(self, default: Any) -> Any:
        try:
            return self.value()
        except QueryEvaluationError:
            return default
