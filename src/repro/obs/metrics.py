"""Process-local metrics registry: counters, gauges, histograms.

The registry is deliberately small and dependency-free — a `Prometheus
client`-shaped surface reduced to what the serving path needs:

* **Families and series** — :meth:`MetricsRegistry.counter` /
  :meth:`~MetricsRegistry.gauge` / :meth:`~MetricsRegistry.histogram` return
  a *family*; ``family.labels(status="ok")`` binds one labeled *series*.
  Families are idempotent per name, series are idempotent per label values,
  and every increment is a plain attribute add under the GIL — the fast path
  takes no lock (locks only guard series/family creation).
* **Snapshot + merge** — :meth:`MetricsRegistry.snapshot` renders the whole
  registry as one JSON-able dict, and :meth:`MetricsRegistry.merge` folds
  such a snapshot back in (counters and histograms add, gauges take the
  incoming value).  That pair is the cross-process protocol: pool workers
  collect into their own registry, ship the snapshot back on the
  :class:`~repro.api.lifecycle.PlanResult`, and the parent folds it into the
  process-wide registry — see :mod:`repro.runtime.pool`.
* **Pre-bound instruments** — modules declare their metrics once at import
  time (:func:`declare_counter` / :func:`declare_gauge` /
  :func:`declare_histogram`) and call ``.inc()`` / ``.set()`` /
  ``.observe()`` unconditionally.  When no registry is installed the call is
  one global load and a branch — instrumented hot paths cost nothing in
  normal runs, and none of them ever touches a planner's RNG, so an
  instrumented run stays bit-identical to an uninstrumented one.

Install a process-wide registry with :func:`install` (or the
:func:`collecting` context manager, which restores the previous one):

>>> from repro.obs import metrics
>>> with metrics.collecting() as registry:
...     metrics.declare_counter("demo_total").inc()
...     registry.snapshot()["metrics"]["demo_total"]["series"][0]["value"]
1.0
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Mapping, Sequence

__all__ = [
    "SNAPSHOT_VERSION",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "install",
    "uninstall",
    "installed",
    "collecting",
    "declare_counter",
    "declare_gauge",
    "declare_histogram",
]

#: Version stamp of the snapshot schema (see :meth:`MetricsRegistry.snapshot`).
SNAPSHOT_VERSION = 1

#: Default histogram buckets — upper bounds in seconds, tuned for planner
#: stages (sub-ms LP solves up to minute-long ILP runs).  A ``+Inf`` bucket
#: is implicit: observations beyond the last bound only count toward
#: ``sum`` / ``count``.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _Series:
    """One labeled time series of a counter or gauge."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = float(value)


class _HistogramSeries:
    """One labeled histogram series: per-bucket counts plus sum/count."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # trailing slot = +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class _Family:
    """A named metric with zero or more labeled series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._series: dict[tuple, object] = {}
        self._lock = threading.Lock()

    def _new_series(self):
        return _Series()

    def labels(self, **labels):
        """The series bound to ``labels`` (created on first use)."""
        if tuple(sorted(labels)) != tuple(sorted(self.labelnames)):
            raise ValueError(
                f"metric {self.name!r} takes labels {list(self.labelnames)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, self._new_series())
        return series

    def samples(self) -> Iterator[tuple[dict, object]]:
        """Yield ``(labels_dict, series)`` pairs in insertion order."""
        for key, series in list(self._series.items()):
            yield dict(zip(self.labelnames, key)), series


class Counter(_Family):
    """A monotonically increasing sum."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)


class Gauge(_Family):
    """A value that can go up and down (last write wins on merge)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)


class Histogram(_Family):
    """A distribution: per-bucket counts plus running sum and count."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"histogram {name!r} buckets must be sorted and unique")

    def _new_series(self):
        return _HistogramSeries(self.buckets)

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """A set of metric families with snapshot/merge semantics."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Family accessors (idempotent per name)
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs) -> _Family:
        family = self._families.get(name)
        if family is None:
            with self._lock:
                family = self._families.get(name)
                if family is None:
                    family = cls(name, help, labelnames, **kwargs)
                    self._families[name] = family
        if not isinstance(family, cls):
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, not {cls.kind}"
            )
        if tuple(labelnames) != family.labelnames:
            raise ValueError(
                f"metric {name!r} already registered with labels "
                f"{list(family.labelnames)}, not {list(labelnames)}"
            )
        return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def families(self) -> list[_Family]:
        return list(self._families.values())

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> _Family | None:
        return self._families.get(name)

    # ------------------------------------------------------------------ #
    # Snapshot / merge — the cross-process protocol
    # ------------------------------------------------------------------ #
    def snapshot(self) -> dict:
        """The whole registry as one JSON-able dict (schema version 1)."""
        metrics: dict[str, dict] = {}
        for family in self.families():
            entry: dict = {
                "type": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "series": [],
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
            for labels, series in family.samples():
                if isinstance(series, _HistogramSeries):
                    entry["series"].append(
                        {
                            "labels": labels,
                            "counts": list(series.counts),
                            "sum": series.sum,
                            "count": series.count,
                        }
                    )
                else:
                    entry["series"].append({"labels": labels, "value": series.value})
            metrics[family.name] = entry
        return {"v": SNAPSHOT_VERSION, "metrics": metrics}

    def merge(self, snapshot: Mapping) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters and histograms *add* (worker deltas accumulate into the
        parent's totals); gauges take the incoming value (the most recent
        report wins).  Families absent here are created from the snapshot's
        metadata, so a parent can merge worker snapshots for metrics it
        never declared itself.
        """
        for name, entry in dict(snapshot.get("metrics", {})).items():
            kind = entry.get("type", "counter")
            labelnames = tuple(entry.get("labelnames", ()))
            if kind == "histogram":
                incoming = tuple(float(b) for b in entry.get("buckets", DEFAULT_BUCKETS))
                family = self.histogram(
                    name, entry.get("help", ""), labelnames, buckets=incoming
                )
                if family.buckets != incoming:
                    raise ValueError(
                        f"histogram {name!r} bucket layout mismatch on merge"
                    )
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""), labelnames)
            else:
                family = self.counter(name, entry.get("help", ""), labelnames)
            for sample in entry.get("series", []):
                labels = dict(sample.get("labels", {}))
                series = family.labels(**labels)
                if isinstance(series, _HistogramSeries):
                    counts = list(sample.get("counts", []))
                    if len(counts) != len(series.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket layout mismatch on merge"
                        )
                    for i, c in enumerate(counts):
                        series.counts[i] += c
                    series.sum += float(sample.get("sum", 0.0))
                    series.count += int(sample.get("count", 0))
                elif family.kind == "gauge":
                    series.set(float(sample.get("value", 0.0)))
                else:
                    series.inc(float(sample.get("value", 0.0)))

    @classmethod
    def from_snapshot(cls, snapshot: Mapping) -> "MetricsRegistry":
        registry = cls()
        registry.merge(snapshot)
        return registry

    def clear(self) -> None:
        self._families.clear()


# --------------------------------------------------------------------------- #
# The process-wide default registry
# --------------------------------------------------------------------------- #

_DEFAULT: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install ``registry`` (a fresh one by default) as the process default."""
    global _DEFAULT
    if registry is None:
        registry = MetricsRegistry()
    _DEFAULT = registry
    return registry


def uninstall() -> None:
    """Remove the process-default registry (instruments become no-ops)."""
    global _DEFAULT
    _DEFAULT = None


def installed() -> MetricsRegistry | None:
    """The currently installed registry, or None."""
    return _DEFAULT


@contextmanager
def collecting(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Install a registry for the duration of the block (restores the old one)."""
    global _DEFAULT
    previous = _DEFAULT
    registry = install(registry)
    try:
        yield registry
    finally:
        _DEFAULT = previous


# --------------------------------------------------------------------------- #
# Pre-bound instruments
# --------------------------------------------------------------------------- #


class _Instrument:
    """A module-level metric handle resolved lazily against the registry.

    Declared once at import time; every call checks the installed registry
    (one global load + branch when none is) and caches the resolved family
    per registry, so repeated calls under one registry pay a single identity
    check.
    """

    __slots__ = ("name", "help", "labelnames", "_registry", "_family")

    def __init__(self, name: str, help: str, labelnames: Sequence[str]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._registry: MetricsRegistry | None = None
        self._family: _Family | None = None

    def _resolve(self) -> _Family | None:
        registry = _DEFAULT
        if registry is None:
            return None
        if registry is not self._registry:
            self._family = self._create(registry)
            self._registry = registry
        return self._family

    def _create(self, registry: MetricsRegistry) -> _Family:  # pragma: no cover
        raise NotImplementedError


class CounterInstrument(_Instrument):
    def _create(self, registry: MetricsRegistry) -> Counter:
        return registry.counter(self.name, self.help, self.labelnames)

    def inc(self, amount: float = 1.0, **labels) -> None:
        family = self._resolve()
        if family is not None:
            family.labels(**labels).inc(amount)


class GaugeInstrument(_Instrument):
    def _create(self, registry: MetricsRegistry) -> Gauge:
        return registry.gauge(self.name, self.help, self.labelnames)

    def set(self, value: float, **labels) -> None:
        family = self._resolve()
        if family is not None:
            family.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        family = self._resolve()
        if family is not None:
            family.labels(**labels).inc(amount)


class HistogramInstrument(_Instrument):
    __slots__ = ("buckets",)

    def __init__(self, name, help, labelnames, buckets) -> None:
        super().__init__(name, help, labelnames)
        self.buckets = tuple(buckets)

    def _create(self, registry: MetricsRegistry) -> Histogram:
        return registry.histogram(self.name, self.help, self.labelnames, self.buckets)

    def observe(self, value: float, **labels) -> None:
        family = self._resolve()
        if family is not None:
            family.labels(**labels).observe(value)


def declare_counter(
    name: str, help: str = "", labelnames: Sequence[str] = ()
) -> CounterInstrument:
    """A pre-bound counter handle (no-op until a registry is installed)."""
    return CounterInstrument(name, help, labelnames)


def declare_gauge(
    name: str, help: str = "", labelnames: Sequence[str] = ()
) -> GaugeInstrument:
    """A pre-bound gauge handle (no-op until a registry is installed)."""
    return GaugeInstrument(name, help, labelnames)


def declare_histogram(
    name: str,
    help: str = "",
    labelnames: Sequence[str] = (),
    buckets: Sequence[float] = DEFAULT_BUCKETS,
) -> HistogramInstrument:
    """A pre-bound histogram handle (no-op until a registry is installed)."""
    return HistogramInstrument(name, help, labelnames, buckets)
