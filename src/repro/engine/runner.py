"""Parallel experiment runner.

``dcat-experiment run all`` registers ~25 independent experiments; each
builds its own :class:`~repro.platform.machine.Machine` from an explicit
seed, so they parallelize perfectly across a process pool.  The one rule is
determinism: a parallel run must produce *identical* results to the serial
run, interval for interval.  Both paths therefore derive each experiment's
seed the same way — a stable CRC32 mix of the base seed and the experiment
id — and results come back in request order regardless of completion order.
"""

from __future__ import annotations

import zlib
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.engine.context import RunContext, use_context

if TYPE_CHECKING:  # imported lazily at runtime: harness pulls in the world
    from repro.harness.results import ExperimentResult

__all__ = ["derive_seed", "run_experiments"]


def derive_seed(seed: int, experiment_id: str) -> int:
    """A per-experiment seed, stable across processes and Python versions.

    ``hash()`` is salted per interpreter, so the mix uses CRC32 of the id.
    """
    return (seed ^ zlib.crc32(experiment_id.encode("utf-8"))) & 0x7FFFFFFF


def _run_one(
    experiment_id: str, seed: int, ctx: RunContext
) -> "ExperimentResult":
    """Worker entry point: run one experiment under its derived seed.

    Installs ``ctx`` around the experiment — here, not in the parent, so
    it also takes effect inside process-pool workers — because registry
    experiments build their own simulations and configs.
    """
    from repro.harness.registry import run_experiment

    with use_context(ctx):
        return run_experiment(experiment_id, seed=derive_seed(seed, experiment_id))


def run_experiments(
    ids: Sequence[str],
    jobs: int = 1,
    seed: int = 1234,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
) -> "List[ExperimentResult]":
    """Run experiments serially (``jobs <= 1``) or across a process pool.

    Args:
        ids: Experiment ids, validated against the registry up front.
        jobs: Worker processes; capped at ``len(ids)``.
        seed: Base seed; each experiment runs under ``derive_seed(seed, id)``.
        trace_path: When given (serial only), a JSONL event trace of every
            experiment is written there, with marker lines at experiment
            boundaries, and bus metrics are appended to each result's notes.
        metrics_path: When given (serial only), a per-stage profiler and a
            bus collector observe the whole run and the registry is written
            there as Prometheus text plus a ``.json`` sibling.  Reports are
            unchanged: telemetry goes to the files, not into the results.
        fidelity: Optional cache-substrate fidelity (``analytical`` /
            ``exact`` / ``mixed``) for simulations built without a
            substrate.
        policy: Optional allocation strategy (any registered name) for
            configs built without a policy.  Both reach the experiments
            as one :class:`~repro.engine.context.RunContext`, in workers
            too.

    Returns:
        Results in the order of ``ids``, identical for any ``jobs`` value.

    Raises:
        KeyError: For unknown experiment ids.
        ValueError: If ``jobs`` is not positive, ``fidelity`` or
            ``policy`` is unknown, or ``trace_path`` / ``metrics_path`` is
            combined with ``jobs > 1`` (the subscribers would live in the
            wrong process).
    """
    from repro.harness.registry import EXPERIMENTS

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")

    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment(s) {', '.join(map(repr, unknown))}; known ids: {known}"
        )
    if trace_path is not None and jobs > 1:
        raise ValueError("--trace requires a serial run (jobs=1)")
    if metrics_path is not None and jobs > 1:
        raise ValueError("--metrics requires a serial run (jobs=1)")

    ctx = RunContext.parse(fidelity=fidelity, policy=policy)

    if jobs <= 1 or len(ids) <= 1:
        if trace_path is not None or metrics_path is not None:
            return _run_observed(ids, seed, trace_path, metrics_path, ctx)
        return [_run_one(experiment_id, seed, ctx) for experiment_id in ids]

    with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
        futures = [
            pool.submit(_run_one, experiment_id, seed, ctx)
            for experiment_id in ids
        ]
        return [f.result() for f in futures]


def _run_observed(
    ids: Sequence[str],
    seed: int,
    trace_path: Optional[str],
    metrics_path: Optional[str],
    ctx: RunContext,
) -> "List[ExperimentResult]":
    """Serial run under observation: JSONL trace and/or metrics snapshot.

    Tracing appends bus-metrics notes to each result (as it always has);
    metrics collection deliberately leaves the results untouched so that
    ``run X --metrics out.prom`` prints byte-identical reports to ``run X``.
    """
    from contextlib import ExitStack

    from repro.engine.events import EventBus, JsonlTraceWriter, MetricsSink, use_bus
    from repro.engine.pipeline import use_profiler
    from repro.harness.report import render_metrics
    from repro.obs.collectors import BusMetricsCollector
    from repro.obs.export import write_metrics
    from repro.obs.profiler import StageProfiler

    results: "List[ExperimentResult]" = []
    with ExitStack() as stack:
        writer = (
            stack.enter_context(JsonlTraceWriter(trace_path))
            if trace_path is not None
            else None
        )
        profiler: Optional[StageProfiler] = None
        collector: Optional[BusMetricsCollector] = None
        if metrics_path is not None:
            profiler = StageProfiler()
            collector = BusMetricsCollector(registry=profiler.registry)
            stack.enter_context(use_profiler(profiler))
        for experiment_id in ids:
            bus = EventBus()
            metrics: Optional[MetricsSink] = None
            if writer is not None:
                bus.subscribe(writer)
                metrics = MetricsSink()
                bus.subscribe(metrics)
                writer.mark(
                    experiment_id=experiment_id, seed=derive_seed(seed, experiment_id)
                )
            if collector is not None:
                bus.subscribe(collector.on_event)
            with use_bus(bus):
                result = _run_one(experiment_id, seed, ctx)
            if metrics is not None and metrics.counters:
                for line in render_metrics(metrics).splitlines():
                    result.note(line)
            results.append(result)
        if profiler is not None and metrics_path is not None:
            write_metrics(profiler.registry, metrics_path)
    return results
