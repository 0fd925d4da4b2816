"""A lightweight, dependency-free metrics registry.

The observability layer's core data structure: a :class:`MetricsRegistry`
holds named metric *families* — counters, gauges and histograms — each of
which fans out into labeled children (``dcat_stage_seconds{loop="controller",
stage="collect"}``).  The model deliberately mirrors the Prometheus client
data model so :mod:`repro.obs.export` can emit standard exposition text, but
carries none of its machinery: no background threads, no process metrics, no
wall clock anywhere in the registry itself.

Determinism contract: every *recorded value* is a pure function of what the
caller passed in.  Counters and gauges fed from event-bus facts (way grants,
state counts, violations) are therefore byte-reproducible run to run; only
the stage profiler's *timing samples* carry wall-clock nondeterminism, and
those live in clearly named ``*_seconds`` histograms.

Histograms use fixed, finite bucket boundaries chosen at registration —
never adaptive ones — so two runs of the same scenario bucket identical
values identically.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "MetricError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
]


_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Log-ish spaced wall-time buckets, 1 µs .. 1 s: wide enough for a whole
#: controller interval, fine enough to separate the five stages.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    1e-6, 2.5e-6, 5e-6,
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0,
)


class MetricError(ValueError):
    """A metric was declared or used inconsistently."""


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counters only go up; inc({amount}) is negative")
        self.value += amount


class Gauge:
    """A value that can move both ways (one labeled child of a family)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary histogram: bucket counts plus sum and count.

    ``boundaries`` are the *upper* bounds of the finite buckets; one
    implicit ``+Inf`` bucket catches everything above the last boundary
    (Prometheus semantics).
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise MetricError("a histogram needs at least one bucket boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricError(f"bucket boundaries must strictly increase: {bounds}")
        if bounds[-1] == float("inf"):
            raise MetricError("+Inf bucket is implicit; do not declare it")
        self.boundaries = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative bucket counts, one per boundary plus ``+Inf``."""
        out: List[int] = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


_KIND_CHILD = {"counter": Counter, "gauge": Gauge}


class MetricFamily:
    """One named metric and all its labeled children.

    Children are created on demand by :meth:`labels`; a label-less family
    has exactly one child, reachable with ``labels()`` or via the
    delegating ``inc``/``set``/``observe`` conveniences.
    """

    def __init__(
        self,
        name: str,
        help_text: str,
        kind: str,
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if not _METRIC_NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_NAME_RE.match(label):
                raise MetricError(f"{name}: invalid label name {label!r}")
        if len(set(label_names)) != len(tuple(label_names)):
            raise MetricError(f"{name}: duplicate label names {tuple(label_names)}")
        if kind not in ("counter", "gauge", "histogram"):
            raise MetricError(f"{name}: unknown metric kind {kind!r}")
        if kind == "histogram":
            self.buckets: Tuple[float, ...] = tuple(
                float(b) for b in (buckets if buckets is not None else DEFAULT_TIME_BUCKETS)
            )
            Histogram(self.buckets)  # validate boundaries eagerly
        elif buckets is not None:
            raise MetricError(f"{name}: only histograms take buckets")
        else:
            self.buckets = ()
        self.name = name
        self.help = help_text
        self.kind = kind
        self.label_names: Tuple[str, ...] = tuple(label_names)
        self._children: Dict[Tuple[str, ...], object] = {}

    def labels(self, **labels: str):
        """The child for one label-value combination (created on demand)."""
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        child = self._children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _KIND_CHILD[self.kind]()
            self._children[key] = child
        return child

    def child(self, **labels: str):
        """The existing child for one label combination, or ``None``.

        Unlike :meth:`labels` this never creates the child, so read-side
        code (snapshots, reports) can probe without materializing empty
        children into the export.
        """
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        return self._children.get(key)

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        """Children sorted by label values (deterministic export order)."""
        return sorted(self._children.items())

    # -- label-less conveniences -------------------------------------------

    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """An ordered collection of metric families.

    Registration is get-or-create: asking twice for the same name with the
    same shape returns the same family (so independent collectors can share
    ``dcat_events_total``), while re-declaring a name with a different kind,
    label set or buckets raises :class:`MetricError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _declare(
        self,
        name: str,
        help_text: str,
        kind: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            want_buckets = (
                tuple(float(b) for b in buckets)
                if buckets is not None
                else (DEFAULT_TIME_BUCKETS if kind == "histogram" else ())
            )
            if (
                existing.kind != kind
                or existing.label_names != tuple(labels)
                or (kind == "histogram" and existing.buckets != want_buckets)
            ):
                raise MetricError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind} with labels {existing.label_names}"
                )
            return existing
        family = MetricFamily(name, help_text, kind, labels, buckets)
        self._families[name] = family
        return family

    def counter(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, help_text, "counter", labels)

    def gauge(
        self, name: str, help_text: str, labels: Sequence[str] = ()
    ) -> MetricFamily:
        return self._declare(name, help_text, "gauge", labels)

    def histogram(
        self,
        name: str,
        help_text: str,
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        return self._declare(name, help_text, "histogram", labels, buckets)

    def families(self) -> List[MetricFamily]:
        """Every registered family, in registration order."""
        return list(self._families.values())

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    # -- snapshot helpers (tests, reports) ---------------------------------

    def value(self, name: str, **labels: str) -> float:
        """The current value of one counter/gauge child (0.0 if unset)."""
        family = self._families[name]
        if family.kind == "histogram":
            raise MetricError(f"{name} is a histogram; read its samples instead")
        key = tuple(str(labels[n]) for n in family.label_names)
        child = family._children.get(key)
        return child.value if child is not None else 0.0  # type: ignore[union-attr]

    def sum_value(self, name: str, **labels: str) -> float:
        """The ``sum`` of one histogram child (0.0 if it never observed)."""
        family = self._families[name]
        if family.kind != "histogram":
            raise MetricError(f"{name} is a {family.kind}; use value() instead")
        child = family.child(**labels)
        return child.sum if child is not None else 0.0
