"""Per-stage wall-time profiler for :class:`~repro.engine.pipeline.StagedLoop`.

:class:`StageProfiler` implements the engine's
:class:`~repro.engine.pipeline.StageObserver` hook: install one with
:func:`~repro.engine.pipeline.use_profiler` and every loop constructed inside
the block — the simulation's seven stages, the controller's
collect/detect_phase/get_baseline/categorize/allocate/commit, and any spliced
``inject_faults`` stage — reports one timing sample per stage per interval.

Samples land in two families:

* ``dcat_stage_seconds{loop,stage}`` — wall-time histogram (the only
  nondeterministic metrics in the registry, by design),
* ``dcat_stage_invocations_total{loop,stage}`` — deterministic run counts.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.obs.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry

__all__ = ["StageProfiler"]


class StageProfiler:
    """Records ``StagedLoop`` stage timings into a :class:`MetricsRegistry`.

    Args:
        registry: Destination registry; a private one is created if omitted.
        buckets: Histogram boundaries for the timing samples.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._seconds = self.registry.histogram(
            "dcat_stage_seconds",
            "Wall time of one StagedLoop stage execution.",
            labels=("loop", "stage"),
            buckets=buckets,
        )
        self._invocations = self.registry.counter(
            "dcat_stage_invocations_total",
            "Number of times a StagedLoop stage ran.",
            labels=("loop", "stage"),
        )

    def observe(self, loop: str, stage: str, elapsed_s: float) -> None:
        self._seconds.labels(loop=loop, stage=stage).observe(elapsed_s)
        self._invocations.labels(loop=loop, stage=stage).inc()

