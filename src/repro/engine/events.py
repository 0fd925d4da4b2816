"""Typed events and the cross-layer event bus.

Both interval loops — :class:`~repro.platform.sim.CloudSimulation` and
:class:`~repro.core.controller.DCatController` — are staged pipelines whose
stages publish what they observed and decided as frozen event dataclasses on
an :class:`EventBus`.  Subscribers (trace writers, metrics, tests, future
fault injectors) attach without the loops knowing about them.

The bus is engineered for the hot path: loops guard every emission with
``if bus.active`` so that with no subscribers (the :data:`NULL_BUS` default)
no event object is ever constructed.  The benchmark in
``benchmarks/test_overhead.py`` pins the subscribed-bus overhead below 10%
of a full simulation step.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Tuple,
    Type,
    Union,
)

__all__ = [
    "Event",
    "IntervalStarted",
    "SampleCollected",
    "PhaseChanged",
    "StateTransition",
    "WorkloadRegistered",
    "WorkloadDeregistered",
    "TenantAdmitted",
    "TenantPlaced",
    "TenantRejected",
    "TenantDeparted",
    "AllocationPlanned",
    "MasksProgrammed",
    "FaultInjected",
    "FaultRecovered",
    "FidelityDivergence",
    "InvariantViolated",
    "SloViolated",
    "IntervalFinished",
    "EventBus",
    "NullBus",
    "NULL_BUS",
    "RingBufferRecorder",
    "JsonlTraceWriter",
    "MetricsSink",
    "event_payload",
    "get_default_bus",
    "set_default_bus",
    "use_bus",
]


# -- events -----------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """Base class: every event is stamped with the interval's start time.

    Each event type also has ``fast(**fields)``, the hot-path constructor
    (see :func:`_compile_fast`): every field is a required keyword, no
    default applies, and the instance equals and ``repr``s like a normally
    constructed one (the equivalence test in ``tests/test_engine.py``).
    """

    time_s: float

    fast: ClassVar[Callable[..., "Event"]]


@dataclass(frozen=True)
class IntervalStarted(Event):
    """A loop began an interval.  ``source`` is ``"sim"`` or ``"controller"``."""

    source: str


@dataclass(frozen=True)
class SampleCollected(Event):
    """One workload's counters were read and aggregated this interval."""

    source: str
    workload_id: str
    ipc: float
    llc_miss_rate: float
    mem_refs_per_instr: float
    instructions: int
    cycles: int
    idle: bool = False


@dataclass(frozen=True)
class PhaseChanged(Event):
    """The phase detector flagged a new phase for a workload."""

    workload_id: str
    mem_refs_per_instr: float
    idle: bool


@dataclass(frozen=True)
class StateTransition(Event):
    """A workload moved between Fig. 6 states (values of ``WorkloadState``)."""

    workload_id: str
    old_state: str
    new_state: str


@dataclass(frozen=True)
class WorkloadRegistered(Event):
    """A controller started managing a workload (it received a COS)."""

    workload_id: str
    cos_id: int
    baseline_ways: int


@dataclass(frozen=True)
class WorkloadDeregistered(Event):
    """A controller stopped managing a workload; its COS returned to the pool."""

    workload_id: str
    cos_id: int


@dataclass(frozen=True)
class TenantAdmitted(Event):
    """The cloud layer accepted a tenant onto a machine."""

    tenant_id: str
    machine: str
    baseline_ways: int


@dataclass(frozen=True)
class TenantPlaced(Event):
    """A placement policy chose a machine for a tenant."""

    tenant_id: str
    machine: str
    policy: str


@dataclass(frozen=True)
class TenantRejected(Event):
    """Admission control turned a tenant away; ``reason`` says why."""

    tenant_id: str
    reason: str


@dataclass(frozen=True)
class TenantDeparted(Event):
    """A tenant left its machine (lease expiry or workload completion)."""

    tenant_id: str
    machine: str
    reason: str


@dataclass(frozen=True)
class AllocationPlanned(Event):
    """The arbiter produced a way plan; ``free_ways`` is what remains pooled."""

    plan: Mapping[str, int]
    free_ways: int


@dataclass(frozen=True)
class MasksProgrammed(Event):
    """Contiguous masks were packed and written to the allocation hardware."""

    masks: Mapping[str, int]
    moved: Tuple[str, ...]


@dataclass(frozen=True)
class FaultInjected(Event):
    """A fault-injection proxy perturbed the substrate (``repro.faults``).

    ``kind`` is a :class:`~repro.faults.plan.FaultKind` value; ``target`` is
    the workload it hit, or ``""`` for backend-wide faults (pqos writes).
    """

    kind: str
    target: str
    detail: str


@dataclass(frozen=True)
class FaultRecovered(Event):
    """The hardened controller absorbed a fault.

    ``action`` says how: ``retry`` (a retried call succeeded),
    ``stale_sample`` (last interval's counters substituted), ``reprogram``
    (verify-after-write rewrote a mask), ``assoc_rewrite`` (a dropped core
    association was re-issued), ``deferred_reset`` (a deregistration mask
    reset was skipped after exhausting retries), ``quarantine`` /
    ``quarantine_release`` (an erratic workload parked at / released from
    its baseline).  ``attempts`` counts the calls or intervals consumed.
    """

    kind: str
    target: str
    action: str
    attempts: int


@dataclass(frozen=True)
class FidelityDivergence(Event):
    """The mixed-fidelity oracle caught the analytical model drifting.

    Emitted by :class:`~repro.platform.substrate.MixedSubstrate` when a
    sampled interval's exact tag-array replay disagrees with the analytical
    hit rate by more than ``tolerance``.  Like :class:`InvariantViolated`,
    a healthy configuration emits none: the fidelity smoke job treats any
    occurrence as a failed model guarantee.
    """

    workload_id: str
    analytical: float
    exact: float
    tolerance: float


@dataclass(frozen=True)
class InvariantViolated(Event):
    """The online checker caught a broken allocation invariant.

    Never emitted in a healthy run: the chaos harness treats any occurrence
    as a failed guarantee (see ``repro.faults.invariants``).
    """

    invariant: str
    detail: str


@dataclass(frozen=True)
class SloViolated(Event):
    """A tenant's measured IPC fell below its SLO threshold this interval.

    Emitted by :class:`~repro.cloud.slo.SloAccountant` when an active
    interval lands under ``(1 - tolerance)`` of the entitled IPC.
    """

    tenant_id: str
    machine: str
    ipc: float
    entitled_ipc: float


@dataclass(frozen=True)
class IntervalFinished(Event):
    """The interval's last stage completed (same ``time_s`` as its start)."""

    source: str


def _compile_fast(cls: Type[Event]) -> Callable[..., Event]:
    """Compile ``cls.fast``, the loops' constructor for one event type.

    A frozen dataclass's ``__init__`` pays one ``object.__setattr__`` call
    per field.  ``fast`` takes the fields as keyword-only parameters (no
    ``**kwargs`` packing) and stores them straight into the new instance's
    ``__dict__``, in field order, as ``__init__`` would: every instance's
    dict then shares its type's key table.  Compiled per type, as
    ``dataclasses`` compiles ``__init__``.
    """
    names = [f.name for f in fields(cls)]
    stores = "".join(f"    values[{name!r}] = {name}\n" for name in names)
    source = (
        f"def fast(*, {', '.join(names)}):\n"
        f"    self = new(cls)\n"
        f"    values = self.__dict__\n"
        f"{stores}"
        f"    return self\n"
    )
    namespace = {"cls": cls, "new": object.__new__}
    exec(source, namespace)
    return staticmethod(namespace["fast"])


for _event_type in Event.__subclasses__():
    _event_type.fast = _compile_fast(_event_type)


# -- bus --------------------------------------------------------------------

Handler = Callable[[Event], None]


class EventBus:
    """Synchronous publish/subscribe fan-out for :class:`Event` objects.

    ``active`` is True iff at least one handler is subscribed; emitters guard
    event *construction* behind it, so an unobserved loop pays one attribute
    read per potential emission and nothing else.  Each event type's
    handlers (catch-all first) are resolved into a tuple on its first
    emission; subscribing or unsubscribing drops those tuples.
    """

    __slots__ = ("_by_type", "_any", "_routes", "active")

    def __init__(self) -> None:
        self._by_type: Dict[Type[Event], List[Handler]] = {}
        self._any: List[Handler] = []
        self._routes: Dict[Type[Event], Tuple[Handler, ...]] = {}
        self.active: bool = False

    def subscribe(
        self, handler: Handler, event_type: Optional[Type[Event]] = None
    ) -> Callable[[], None]:
        """Attach a handler (to one event type, or to everything).

        Returns a zero-argument unsubscribe callable.
        """
        if event_type is None:
            self._any.append(handler)
        else:
            self._by_type.setdefault(event_type, []).append(handler)
        self._routes.clear()
        self.active = True

        def unsubscribe() -> None:
            bucket = self._any if event_type is None else self._by_type.get(event_type, [])
            if handler in bucket:
                bucket.remove(handler)
            self._routes.clear()
            self.active = bool(self._any or any(self._by_type.values()))

        return unsubscribe

    def emit(self, event: Event) -> None:
        """Deliver an event to every matching subscriber, in subscribe order."""
        try:
            handlers = self._routes[type(event)]
        except KeyError:
            handlers = self._route(type(event))
        for handler in handlers:
            handler(event)

    def _route(self, kind: Type[Event]) -> Tuple[Handler, ...]:
        """Resolve and cache one event type's handlers, catch-all first.

        A recorder is routed to its ring's bound ``append``, which runs no
        Python frame per event.
        """
        handlers = self._routes[kind] = tuple(
            handler._events.append
            if isinstance(handler, RingBufferRecorder)
            else handler
            for handler in (*self._any, *self._by_type.get(kind, ()))
        )
        return handlers


class NullBus(EventBus):
    """The no-op bus: never active, rejects subscribers, drops emissions.

    A single shared instance (:data:`NULL_BUS`) is the default everywhere,
    so "no observability configured" costs one boolean check per emission
    site and can never accumulate subscribers by accident.
    """

    __slots__ = ()

    def subscribe(
        self, handler: Handler, event_type: Optional[Type[Event]] = None
    ) -> Callable[[], None]:
        raise TypeError(
            "cannot subscribe to NULL_BUS; pass an EventBus() to the loop instead"
        )

    def emit(self, event: Event) -> None:  # pragma: no cover - guarded by .active
        pass


NULL_BUS = NullBus()


# -- default-bus plumbing -----------------------------------------------------

_default_bus: EventBus = NULL_BUS


def get_default_bus() -> EventBus:
    """The bus components fall back to when none is passed explicitly."""
    return _default_bus


def set_default_bus(bus: Optional[EventBus]) -> None:
    """Install a process-wide default bus (``None`` restores the null bus)."""
    global _default_bus
    _default_bus = bus if bus is not None else NULL_BUS


@contextmanager
def use_bus(bus: EventBus) -> Iterator[EventBus]:
    """Temporarily install ``bus`` as the process default."""
    previous = _default_bus
    set_default_bus(bus)
    try:
        yield bus
    finally:
        set_default_bus(previous)


# -- built-in sinks ----------------------------------------------------------


class RingBufferRecorder:
    """Keeps the last ``capacity`` events in memory (tests, debugging)."""

    def __init__(self, capacity: int = 4096) -> None:
        self._events: deque = deque(maxlen=capacity)

    def __call__(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Event]:
        """The recorded events, oldest first (a copy; slice freely)."""
        return list(self._events)

    def of_type(self, event_type: Type[Event]) -> List[Event]:
        return [e for e in self._events if isinstance(e, event_type)]

    def clear(self) -> None:
        self._events.clear()


def _jsonable(value: Any) -> Any:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def event_payload(event: Event) -> Dict[str, Any]:
    """A JSON-ready dict of an event (type name under ``"event"``)."""
    payload: Dict[str, Any] = {"event": type(event).__name__}
    for f in fields(event):
        payload[f.name] = _jsonable(getattr(event, f.name))
    return payload


class JsonlTraceWriter:
    """Streams every event as one JSON object per line.

    The sink contract: callers either use the writer as a context manager
    or call :meth:`close` on every exit path (the daemon calls it from
    its SIGTERM/SIGINT handler).  ``close`` flushes, is idempotent, and
    drops any event delivered afterwards — a late emitter racing a
    shutdown must not raise on a closed file.

    Args:
        target: A path to create/truncate, or an open text file object.
    """

    def __init__(self, target: Union[str, TextIO]) -> None:
        if isinstance(target, str):
            self._file: TextIO = open(target, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = target
            self._owns_file = False
        self._closed = False

    def __call__(self, event: Event) -> None:
        if self._closed:
            return
        self._file.write(json.dumps(event_payload(event), sort_keys=True) + "\n")

    def mark(self, **extra: Any) -> None:
        """Write an out-of-band marker line (e.g. an experiment boundary)."""
        if self._closed:
            return
        self._file.write(json.dumps({"event": "Marker", **extra}, sort_keys=True) + "\n")

    def flush(self) -> None:
        """Push buffered lines to the OS without closing the sink."""
        if not self._closed:
            self._file.flush()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class HistogramSummary:
    """Streaming min/mean/max summary of one numeric event field."""

    count: int = 0
    total: float = 0.0
    minimum: float = field(default=float("inf"))
    maximum: float = field(default=float("-inf"))

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsSink:
    """Counts events per type and summarizes their numeric fields.

    Histogram keys are ``"EventType.field"`` (e.g. ``SampleCollected.ipc``).
    """

    def __init__(self) -> None:
        self.counters: Counter = Counter()
        self.histograms: Dict[str, HistogramSummary] = {}

    def __call__(self, event: Event) -> None:
        name = type(event).__name__
        self.counters[name] += 1
        for f in fields(event):
            value = getattr(event, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            key = f"{name}.{f.name}"
            hist = self.histograms.get(key)
            if hist is None:
                hist = self.histograms[key] = HistogramSummary()
            hist.observe(float(value))
