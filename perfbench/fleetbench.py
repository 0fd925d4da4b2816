"""The two fleet workloads: ``fleet_dense`` and ``fleet_churn``.

One *repetition* builds the fleet from the scenario dict, fills it
(``setup``), then times ``horizon`` fleet intervals one ``step()`` at a
time.  Between intervals the benchmark issues the reads the daemon serves
(``FleetHandle.tenant_stats`` and ``fleet_state``); they are timed apart
from the intervals.  The simulated horizon is fixed, so every repetition
of one seed must produce the same ``canonical_bytes()`` digest.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional

from metrics import SERVICE_ONLY, percentile
from spans import (
    EXECUTOR_SPANS,
    FLEET_SPANS,
    RECONCILE_TOLERANCE,
    ReconcileError,
    SpanRecorder,
    layer_metrics,
    require_spans,
    traced,
)
from workloads import churn_scenario, dense_scenario

#: Worker processes of the traced executor run (2 = nproc of the machine
#: the benchmark was tuned on).  Untraced runs are serial: with two
#: workers on two cores, process wake-up latency made run-to-run spread
#: exceed every bound.
EXECUTOR_JOBS = {"fleet_churn": 2}
SCENARIOS = {"fleet_dense": dense_scenario, "fleet_churn": churn_scenario}

MIN_REPS = 3


@dataclass
class Rep:
    """One build -> fill -> measured window; op lists are in issue order."""

    setup_s: float
    step_times: List[float]
    interval_s: float
    digest: str
    summary: Dict[str, float]
    admits: List[float] = field(default_factory=list)
    departs: List[float] = field(default_factory=list)
    reads: List[float] = field(default_factory=list)
    placed: int = 0
    window_admits: int = 0
    window_placed: int = 0
    bad_reasons: List[str] = field(default_factory=list)
    bad_reads: int = 0
    extras: Dict[str, float] = field(default_factory=dict)

    @property
    def step_s(self) -> float:
        return sum(self.step_times)

    @property
    def intervals(self) -> int:
        return len(self.step_times)


def _timed(fn, sink: List[float]):
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)

    return timed


def run_rep(
    scenario: Dict[str, Any],
    size: Dict[str, Any],
    jobs: int,
    seed: int,
    recorder: Optional[SpanRecorder] = None,
) -> Rep:
    """Build, fill and drive one fleet; ``recorder`` traces the window."""
    from repro.cloud.admission import RejectReason
    from repro.cloud.handle import FleetHandle
    from repro.cloud.scenario import load_churn_scenario

    if recorder is not None:
        recorder.enabled = False
    started = perf_counter()
    fleet, _ = load_churn_scenario(scenario, fleet_jobs=jobs)
    try:
        admits: List[float] = []
        departs: List[float] = []
        fleet.admit_tenant = _timed(fleet.admit_tenant, admits)
        fleet.depart_tenant = _timed(fleet.depart_tenant, departs)
        for _ in range(size["warmup"]):
            fleet.step()
        setup_s = perf_counter() - started
        first_window_placement = len(fleet.placements)

        handle = FleetHandle(fleet)
        rng = random.Random(seed)
        reads: List[float] = []
        bad_reads = 0
        step_times: List[float] = []
        for _ in range(size["horizon"]):
            if recorder is not None:
                recorder.enabled = True
            start = perf_counter()
            fleet.step()
            step_times.append(perf_counter() - start)
            if recorder is not None:
                recorder.enabled = False
            placements = fleet.placements
            for i in range(size["reads"]):
                start = perf_counter()
                if i == 0:
                    state = handle.fleet_state()
                    ok = len(state["machines"]) == len(fleet.machines)
                else:
                    record = placements[rng.randrange(len(placements))]
                    if record.machine is None:
                        reads.append(perf_counter() - start)
                        continue
                    ok = handle.tenant_stats(record.tenant_id)["tenant_id"] == record.tenant_id
                reads.append(perf_counter() - start)
                bad_reads += not ok

        extras = {}
        if recorder is not None and jobs == 1:
            extras = controller_extras(fleet, size["warmup"] * fleet.interval_s)
        result = fleet.result()
    finally:
        fleet.close()
    valid = {"placed"} | {r.value for r in RejectReason}
    window = result.placements[first_window_placement:]
    return Rep(
        setup_s=setup_s,
        step_times=step_times,
        interval_s=result.interval_s,
        digest=hashlib.sha256(result.canonical_bytes()).hexdigest(),
        summary=dict(result.summary),
        admits=admits,
        departs=departs,
        reads=reads,
        placed=len(result.admitted),
        window_admits=len(window),
        window_placed=sum(p.machine is not None for p in window),
        bad_reasons=[p.reason for p in result.placements if p.reason not in valid],
        bad_reads=bad_reads,
        extras=extras,
    )


def controller_extras(fleet, t0: float = 0.0) -> Dict[str, float]:
    """Counts from ``t0`` on, read from a serial fleet's own objects."""
    statuses = moved = changes = 0
    hits: List[float] = []
    for machine in fleet.machines:
        controller = getattr(machine.sim.manager, "controller", None)
        if controller is not None:
            for step in controller.history:
                if step.time_s >= t0:
                    statuses += len(step.statuses)
                    moved += len(step.moved_workloads)
                    changes += sum(s.phase_changed for s in step.statuses.values())
        for timeline in machine.sim.result.records.values():
            hits.extend(r.llc_hit_rate for r in timeline if r.time_s >= t0)
    return {
        "cache.llc_hit_rate": statistics.fmean(hits) if hits else 0.0,
        "ctl.phase_changes": changes,
        "ctl.moved_ratio": moved / statuses if statuses else 0.0,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checks(reps: List[Rep]) -> List[str]:
    problems = []
    if len({r.digest for r in reps}) != 1:
        problems.append("canonical_bytes digest differs between repetitions")
    if any(r.summary != reps[0].summary for r in reps):
        problems.append("fleet_summary differs between repetitions")
    for r in reps:
        if r.bad_reasons:
            problems.append(f"unknown placement reasons {sorted(set(r.bad_reasons))}")
        if r.bad_reads:
            problems.append(f"{r.bad_reads} reads returned the wrong tenant or fleet")
    return problems


def _fastest(reps: List[Rep], attr: str) -> List[float]:
    """Per operation, its fastest repetition (same seed: same op sequence).

    Interference from the rest of the machine only ever adds time, so the
    minimum over repetitions is the steadiest estimate of each op's cost.
    """
    columns = [getattr(r, attr) for r in reps]
    if len({len(c) for c in columns}) != 1:
        raise RuntimeError(f"repetitions ran different {attr} sequences")
    return [min(times) for times in zip(*columns)]


def client_metrics(admits: List[float], departs: List[float],
                   reads: List[float]) -> Dict[str, float]:
    """Control-plane latencies as a caller sees them, and the rate of
    calls per second spent in them."""
    return {
        "client.admit_p50_ms": percentile(admits, 50) * 1e3,
        "client.admit_p99_ms": percentile(admits, 99) * 1e3,
        "client.read_p50_ms": percentile(reads, 50) * 1e3,
        "client.read_p99_ms": percentile(reads, 99) * 1e3,
        "client.max_rps": (len(admits) + len(departs) + len(reads))
        / (sum(admits) + sum(departs) + sum(reads)),
    }


def e2e(workload: str, seed: int, seconds: float, size: Dict[str, Any]):
    """Untraced repetitions for ``seconds``; returns (values, report)."""
    scenario = SCENARIOS[workload](seed, size)
    reps: List[Rep] = []
    deadline = perf_counter() + seconds
    while len(reps) < MIN_REPS or perf_counter() < deadline:
        gc.collect()
        reps.append(run_rep(scenario, size, 1, seed))
    steps = _fastest(reps, "step_times")
    admits = _fastest(reps, "admits")
    departs = _fastest(reps, "departs")
    reads = _fastest(reps, "reads")
    summary = reps[0].summary
    ops = len(admits) + len(departs) + len(reads)
    values = {
        "setup_s": statistics.median(r.setup_s for r in reps),
        "sim_speed": len(steps) * reps[0].interval_s / sum(steps),
        "peak_rss_mb": _peak_rss_mb(),
        "mean_norm_ipc": summary["mean_normalized_ipc"],
        "slo_met_frac": 1.0 - summary["violation_fraction"],
        "admit_frac": reps[0].placed / len(admits),
    }
    report = {
        "reps": len(reps),
        "digest": reps[0].digest,
        "admits": len(admits),
        "reads": len(reads),
        **client_metrics(admits, departs, reads),
        "problems": _checks(reps),
        "attempted": len(reps) * (ops + len(steps)),
    }
    return values, report


def traced_run(workload: str, seed: int, size: Dict[str, Any]):
    """Per-layer metrics from traced repetitions beside untraced ones."""
    scenario = SCENARIOS[workload](seed, size)
    jobs = EXECUTOR_JOBS.get(workload, 1)
    plain = run_rep(scenario, size, jobs, seed)
    reps = [plain]
    with traced(SpanRecorder()) as rec:
        # Serial: the stage observer sees every sim/ctl stage only here.
        serial = run_rep(scenario, size, 1, seed, recorder=rec)
    rec.write(f"{workload}.serial.spans.jsonl")
    stats = rec.stats()
    require_spans(stats, FLEET_SPANS)
    coverage = _reconcile(stats, serial.step_s)
    values: Dict[str, float] = layer_metrics(stats, serial.step_s)
    values.update(serial.extras)
    values.update(dict.fromkeys(SERVICE_ONLY, 0.0))
    traced_rep = serial
    overhead_s = 0.0
    if jobs > 1:
        plain_serial = run_rep(scenario, size, 1, seed)
        with traced(SpanRecorder()) as prec:
            parallel = run_rep(scenario, size, jobs, seed, recorder=prec)
        prec.write(f"{workload}.parallel.spans.jsonl")
        pstats = prec.stats()
        require_spans(pstats, EXECUTOR_SPANS + ("fleet.step", "fleet.admit_tenant"))
        coverage = _reconcile(pstats, parallel.step_s)
        names = EXECUTOR_SPANS + tuple(
            n for n in FLEET_SPANS if n.startswith(("fleet.", "slo."))
        )
        values.update(layer_metrics(pstats, parallel.step_s, names))
        overhead_s = plain.step_s - plain_serial.step_s
        reps += [plain_serial, parallel]
        traced_rep = parallel
    reps.append(serial)
    values.update({
        "sim.host_intervals": stats.get("sim.update_dram", (0,))[0],
        "slo.violation_frac": serial.summary["violation_fraction"],
        "fleet.admit_ratio": serial.window_placed / serial.window_admits
        if serial.window_admits else 0.0,
        "executor.overhead_s": overhead_s,
        "trace.wall_s": traced_rep.step_s,
        "trace.coverage": coverage,
        "trace.e2e_untraced_ms": plain.step_s / plain.intervals * 1e3,
        "trace.e2e_traced_ms": traced_rep.step_s / traced_rep.intervals * 1e3,
        "trace.overhead": traced_rep.step_s / plain.step_s - 1.0,
        **client_metrics(plain.admits, plain.departs, plain.reads),
    })
    report = {
        "digest": plain.digest,
        "problems": _checks(reps),
        "attempted": sum(len(r.admits) + len(r.departs) + len(r.reads) + r.intervals
                         for r in reps),
    }
    return values, report


def _reconcile(stats, wall_s: float) -> float:
    """Sum of self times over the traced wall; raises outside tolerance."""
    coverage = sum(self_s for _, self_s, _ in stats.values()) / wall_s
    if abs(coverage - 1.0) > RECONCILE_TOLERANCE:
        raise ReconcileError(
            f"layer self times cover {coverage:.3f} of the traced wall "
            f"(tolerance {RECONCILE_TOLERANCE})"
        )
    return coverage
