"""The staged interval engine: events, pipelines, and the parallel runner.

This package is the seam between the reproduction's layers:

* :mod:`repro.engine.events` — frozen event types, the :class:`EventBus`
  (with a null-bus fast path), and built-in sinks (ring buffer, JSONL
  trace, counters/histograms);
* :mod:`repro.engine.pipeline` — the :class:`Stage` protocol and
  :class:`StagedLoop` that both interval loops are composed from;
* :mod:`repro.engine.runner` — the deterministic process-pool experiment
  runner behind ``dcat-experiment run all --jobs N``;
* :mod:`repro.engine.context` — the :class:`RunContext` (fidelity,
  policy, fleet jobs) parsed once at a run's edge.
"""

from repro.engine.context import RunContext, current_context, use_context
from repro.engine.events import (
    AllocationPlanned,
    Event,
    EventBus,
    IntervalFinished,
    IntervalStarted,
    JsonlTraceWriter,
    MasksProgrammed,
    MetricsSink,
    NULL_BUS,
    NullBus,
    PhaseChanged,
    RingBufferRecorder,
    SampleCollected,
    StateTransition,
    get_default_bus,
    set_default_bus,
    use_bus,
)
from repro.engine.pipeline import FunctionStage, Stage, StagedLoop
from repro.engine.runner import derive_seed, run_experiments

__all__ = [
    "RunContext",
    "current_context",
    "use_context",
    "AllocationPlanned",
    "Event",
    "EventBus",
    "IntervalFinished",
    "IntervalStarted",
    "JsonlTraceWriter",
    "MasksProgrammed",
    "MetricsSink",
    "NULL_BUS",
    "NullBus",
    "PhaseChanged",
    "RingBufferRecorder",
    "SampleCollected",
    "StateTransition",
    "get_default_bus",
    "set_default_bus",
    "use_bus",
    "FunctionStage",
    "Stage",
    "StagedLoop",
    "derive_seed",
    "run_experiments",
]
