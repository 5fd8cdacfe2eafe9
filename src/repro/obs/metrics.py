"""Lightweight metrics: counters, gauges, histograms with simple quantiles.

The paper's central claims are quantitative — Theorem 1 equivalence, flat
per-update cost (E3), bounded memory for bounded temporal operators (E4) —
so the engine's hot paths carry instrumentation hooks.  The design rules:

* **zero cost when disabled** — the default is the :data:`NULL_REGISTRY`,
  whose metric objects are shared no-op singletons.  A disabled hot path
  pays one attribute load and a falsy branch, and performs no allocations.
* **no third-party dependencies** — plain Python, JSON-serializable.
* **stable identity** — a metric is identified by ``(name, labels)``;
  asking the registry for the same identity returns the same object, so
  instruments can be resolved once at setup time and used from hot loops.

Metric families follow the Prometheus naming conventions loosely
(``*_total`` counters, ``*_seconds`` histograms); the full catalog lives
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import json
from array import array
from typing import Any, Iterable, Mapping, Optional, Union

#: Cap on retained histogram samples; on overflow every other sample is
#: dropped (count/sum/min/max stay exact, quantiles become approximate).
DEFAULT_MAX_SAMPLES = 2048

_QUANTILES = (0.5, 0.9, 0.99)


def _labels_key(labels: Mapping[str, Any]) -> tuple:
    return tuple(sorted(labels.items()))


def _render_key(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def payload(self) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({_render_key(self.name, self.labels)}={self.value})"


class Gauge:
    """A value that can go up and down (sizes, depths, row counts)."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = ()):
        self.name = name
        self.labels = labels
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount

    def payload(self) -> Any:
        return self.value

    def __repr__(self) -> str:
        return f"Gauge({_render_key(self.name, self.labels)}={self.value})"


class Histogram:
    """A distribution with exact count/sum/min/max and simple quantiles.

    Samples are retained (up to ``max_samples``, then decimated 2:1) as
    doubles in an ``array`` (8 B each) and quantiles computed by sorting
    on demand — adequate for the per-step latencies and size
    distributions this repo measures, with no external dependency.
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_samples", "_max_samples")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (),
                 max_samples: int = DEFAULT_MAX_SAMPLES):
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples = array("d")
        self._max_samples = max_samples

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        samples = self._samples
        samples.append(value)
        if len(samples) > self._max_samples:
            del samples[::2]

    def quantile(self, q: float) -> Optional[float]:
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[idx]

    @property
    def mean(self) -> Optional[float]:
        if not self.count:
            return None
        return self.total / self.count

    def payload(self) -> dict:
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in _QUANTILES:
            out[f"p{int(q * 100)}"] = self.quantile(q)
        out["samples"] = list(self._samples)
        return out

    def _restore(self, payload: Mapping) -> None:
        self.count = payload["count"]
        self.total = payload["sum"]
        self.min = payload["min"]
        self.max = payload["max"]
        self._samples = array("d", payload.get("samples", ()))

    def __repr__(self) -> str:
        return (
            f"Histogram({_render_key(self.name, self.labels)}, "
            f"count={self.count}, mean={self.mean})"
        )


# ---------------------------------------------------------------------------
# No-op instruments (the disabled path)
# ---------------------------------------------------------------------------


class _NullCounter:
    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"

    def set(self, value) -> None:
        pass

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"

    def observe(self, value) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class NullRegistry:
    """Shared no-op registry: every lookup returns the same singleton
    instrument, so holding and calling instruments allocates nothing."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str, **labels) -> _NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES,
                  **labels) -> _NullHistogram:
        return NULL_HISTOGRAM

    def to_dict(self) -> dict:
        return {"enabled": False, "metrics": []}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


NULL_REGISTRY = NullRegistry()


# ---------------------------------------------------------------------------
# The live registry
# ---------------------------------------------------------------------------


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Get-or-create store of metric instruments.

    ``registry.counter("rule_firings_total", rule="dow_crash")`` returns a
    stable :class:`Counter` for that (name, labels) identity; repeated
    calls return the same object.
    """

    enabled = True

    def __init__(self) -> None:
        self._metrics: dict[tuple, Metric] = {}

    # -- instrument lookup --------------------------------------------------

    def _get(self, cls, name: str, labels: Mapping[str, Any], **kwargs):
        key = (cls.kind, name, _labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[2], **kwargs)
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES,
                  **labels) -> Histogram:
        return self._get(Histogram, name, labels, max_samples=max_samples)

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> list[Metric]:
        return [self._metrics[k] for k in sorted(self._metrics)]

    def find(self, name: str, **labels) -> list[Metric]:
        """All metrics with ``name`` whose labels include ``labels``."""
        want = set(labels.items())
        return [
            m
            for m in self.metrics()
            if m.name == name and want <= set(m.labels)
        ]

    def value(self, name: str, **labels) -> Any:
        """The single matching counter/gauge value (None if absent)."""
        matches = self.find(name, **labels)
        if not matches:
            return None
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} metrics match {name!r} {labels!r}"
            )
        metric = matches[0]
        return metric.payload() if isinstance(metric, Histogram) else metric.value

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "enabled": True,
            "metrics": [
                {
                    "kind": m.kind,
                    "name": m.name,
                    "labels": {k: v for k, v in m.labels},
                    "key": _render_key(m.name, m.labels),
                    "value": m.payload(),
                }
                for m in self.metrics()
            ],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "MetricsRegistry":
        registry = cls()
        for record in payload.get("metrics", ()):
            labels = record.get("labels", {})
            kind = record["kind"]
            if kind == "counter":
                registry.counter(record["name"], **labels).inc(record["value"])
            elif kind == "gauge":
                registry.gauge(record["name"], **labels).set(record["value"])
            elif kind == "histogram":
                registry.histogram(record["name"], **labels)._restore(
                    record["value"]
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
        return registry

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        return cls.from_dict(json.loads(text))


Registry = Union[MetricsRegistry, NullRegistry]


def as_registry(spec) -> Registry:
    """Normalize a user-facing metrics argument.

    ``None``/``False`` -> the shared no-op registry; ``True`` -> a fresh
    :class:`MetricsRegistry`; a registry passes through unchanged.
    """
    if spec is None or spec is False:
        return NULL_REGISTRY
    if spec is True:
        return MetricsRegistry()
    if isinstance(spec, (MetricsRegistry, NullRegistry)):
        return spec
    raise TypeError(f"cannot interpret {spec!r} as a metrics registry")
