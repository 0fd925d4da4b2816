"""Open-loop load generation against a live daemon + the service bench.

The generator drives Poisson tenant churn over real HTTP: admission
requests arrive at a configured rate regardless of how fast the daemon
answers (open-loop, so a slow server cannot hide behind back-pressure),
each admitted tenant holds its reservation for an exponential wall-clock
time and is then detached.  Every request parameter — arrival offsets,
workload picks, reservations, hold times — is pre-drawn from one seeded
RNG, so the *request plan* is a pure function of ``(rps, duration_s,
seed)``; what the network adds is only the interleaving, which the
daemon journals.

``run_loadtest`` is the whole acceptance harness behind
``dcat-experiment loadtest``: boot a daemon on an ephemeral port, drive
the plan, shut down gracefully, then **replay the recorded journal
through the offline churn path** and demand a byte-identical snapshot
(compared by its sha256, :meth:`~repro.cloud.handle.FleetHandle.snapshot_digest`),
zero invariant violations, and the admission-latency SLO.  The verdict
is committed as ``BENCH_service.json`` (schema ``dcat-service-bench/v1``).
"""

from __future__ import annotations

import asyncio
import json
import math
import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cloud.handle import CommandRecord, replay_journal
from repro.service.config import ServiceConfig, load_service_config
from repro.service.daemon import ControllerDaemon
from repro.service.http import request_once

__all__ = [
    "SERVICE_BENCH_FORMAT",
    "AdmitPlan",
    "LoadReport",
    "plan_requests",
    "drive_load",
    "run_loadtest",
    "validate_service_bench",
    "write_service_bench",
]

SERVICE_BENCH_FORMAT = "dcat-service-bench/v1"

#: Workload mix the generator draws from (same churn-file vocabulary).
DEFAULT_MIX: Tuple[Dict[str, Any], ...] = (
    {"type": "mlr", "wss_mb": 2},
    {"type": "mlr", "wss_mb": 8},
    {"type": "mload", "wss_mb": 60},
)

#: Full-mode acceptance floor: admits + detaches driven per loadtest.
MIN_REQUESTS = 500


@dataclass(frozen=True)
class AdmitPlan:
    """One planned tenant: when to admit, what to run, how long to hold."""

    offset_s: float
    name: str
    baseline_ways: int
    workload: Dict[str, Any]
    hold_s: float


@dataclass
class LoadReport:
    """What one load run measured (wall-clock side only)."""

    admit_latencies: List[float] = field(default_factory=list)
    detach_latencies: List[float] = field(default_factory=list)
    admitted: int = 0
    rejected: Dict[str, int] = field(default_factory=dict)
    detached: int = 0
    already_gone: int = 0
    errors: List[str] = field(default_factory=list)

    @property
    def total_requests(self) -> int:
        return len(self.admit_latencies) + len(self.detach_latencies)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 < q <= 100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def plan_requests(
    rps: float,
    duration_s: float,
    seed: int = 7,
    mix: Sequence[Dict[str, Any]] = DEFAULT_MIX,
    hold_mean_s: float = 0.25,
    ways_choices: Sequence[int] = (2, 3),
) -> List[AdmitPlan]:
    """Pre-draw the whole request plan from one seeded RNG."""
    if rps <= 0:
        raise ValueError("rps must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    rng = random.Random(seed)
    plan: List[AdmitPlan] = []
    t = 0.0
    while True:
        t += rng.expovariate(rps)
        if t >= duration_s:
            break
        plan.append(
            AdmitPlan(
                offset_s=t,
                name=f"lt-{len(plan)}",
                baseline_ways=rng.choice(list(ways_choices)),
                workload=dict(rng.choice(list(mix))),
                hold_s=rng.expovariate(1.0 / hold_mean_s),
            )
        )
    return plan


async def drive_load(host: str, port: int, plan: Sequence[AdmitPlan]) -> LoadReport:
    """Fire the plan open-loop; returns latencies and outcome counts."""
    report = LoadReport()
    loop = asyncio.get_running_loop()
    epoch = loop.time()

    async def one(entry: AdmitPlan) -> None:
        delay = entry.offset_s - (loop.time() - epoch)
        if delay > 0:
            await asyncio.sleep(delay)
        started = perf_counter()
        try:
            status, body = await request_once(
                host,
                port,
                "POST",
                "/v1/tenants",
                {
                    "name": entry.name,
                    "baseline_ways": entry.baseline_ways,
                    "workload": entry.workload,
                },
            )
        except OSError as exc:
            report.errors.append(f"{entry.name}: admit failed: {exc}")
            return
        report.admit_latencies.append(perf_counter() - started)
        if status == 201:
            report.admitted += 1
        elif status == 409:
            reason = (body or {}).get("reason", "unknown")
            report.rejected[reason] = report.rejected.get(reason, 0) + 1
            return
        else:
            report.errors.append(f"{entry.name}: admit got HTTP {status}: {body}")
            return
        await asyncio.sleep(entry.hold_s)
        started = perf_counter()
        try:
            status, body = await request_once(
                host, port, "DELETE", f"/v1/tenants/{entry.name}"
            )
        except OSError as exc:
            report.errors.append(f"{entry.name}: detach failed: {exc}")
            return
        report.detach_latencies.append(perf_counter() - started)
        if status == 200:
            report.detached += 1
        elif status == 404:
            # The fleet already departed it (workload finished between
            # ticks) — a legitimate race, not an error.
            report.already_gone += 1
        else:
            report.errors.append(f"{entry.name}: detach got HTTP {status}: {body}")

    await asyncio.gather(*(one(entry) for entry in plan))
    return report


def _latency_block(latencies: Sequence[float]) -> Dict[str, Any]:
    return {
        "count": len(latencies),
        "p50_s": percentile(latencies, 50),
        "p90_s": percentile(latencies, 90),
        "p99_s": percentile(latencies, 99),
        "max_s": max(latencies) if latencies else 0.0,
    }


async def _orchestrate(
    config: ServiceConfig, plan: Sequence[AdmitPlan]
) -> Tuple[LoadReport, List[CommandRecord], str, int, int]:
    daemon = ControllerDaemon(config, port=0)
    await daemon.start()
    try:
        report = await drive_load("127.0.0.1", daemon.port, plan)
        status, health = await request_once(
            "127.0.0.1", daemon.port, "GET", "/healthz"
        )
        if status != 200 or (health or {}).get("status") != "ok":
            report.errors.append(f"/healthz degraded: HTTP {status} {health}")
    finally:
        await daemon.stop()
    return (
        report,
        daemon.handle.journal,
        daemon.handle.snapshot_digest(),
        daemon.setup.violation_count(),
        daemon.setup.intervals_checked(),
    )


def run_loadtest(
    source: Any,
    out: Optional[str] = "BENCH_service.json",
    quick: bool = False,
    rps: Optional[float] = None,
    duration_s: Optional[float] = None,
    seed: int = 7,
    fidelity: Optional[str] = None,
    policy: Optional[str] = None,
    p99_budget_s: float = 0.25,
) -> Tuple[Dict[str, Any], List[str]]:
    """Boot a daemon, load it, verify determinism + SLOs, write the bench.

    Returns ``(payload, failures)``: an empty ``failures`` list means
    every acceptance assertion held.  Quick mode (5 s, lower RPS) keeps
    the schema and assertions but drops the request-count floor, so CI
    smoke stays fast.

    Raises:
        ServiceConfigError: On a malformed service config.
        OSError: If the payload cannot be written.
    """
    config = load_service_config(source, fidelity=fidelity, policy=policy)
    if rps is None:
        rps = 30.0 if quick else 60.0
    if duration_s is None:
        duration_s = 5.0 if quick else 8.0
    plan = plan_requests(rps, duration_s, seed=seed)
    report, journal, digest, violations, intervals = asyncio.run(
        _orchestrate(config, plan)
    )

    replayed = replay_journal(lambda: config.build().fleet, journal)
    try:
        replay_identical = replayed.snapshot_digest() == digest
    finally:
        replayed.fleet.close()

    failures: List[str] = []
    if report.errors:
        failures.append(
            f"{len(report.errors)} request error(s); first: {report.errors[0]}"
        )
    if not quick and report.total_requests < MIN_REQUESTS:
        failures.append(
            f"only {report.total_requests} requests driven; need >= {MIN_REQUESTS} "
            f"(raise --rps or --duration)"
        )
    admit_p99 = percentile(report.admit_latencies, 99)
    if admit_p99 > p99_budget_s:
        failures.append(
            f"admit p99 {admit_p99:.4f}s exceeds the {p99_budget_s:.3f}s budget"
        )
    if violations:
        failures.append(f"{violations} invariant violation(s) during serving")
    if not replay_identical:
        failures.append("journal replay diverged from the live run")

    payload: Dict[str, Any] = {
        "format": SERVICE_BENCH_FORMAT,
        "quick": quick,
        "config": {
            "rps": rps,
            "duration_s": duration_s,
            "seed": seed,
            "tick_interval_s": config.tick_interval_s,
            "planned_tenants": len(plan),
        },
        "requests": {
            "total": report.total_requests,
            "admitted": report.admitted,
            "rejected": dict(sorted(report.rejected.items())),
            "detached": report.detached,
            "already_gone": report.already_gone,
            "errors": len(report.errors),
        },
        "latency_s": {
            "admit": _latency_block(report.admit_latencies),
            "detach": _latency_block(report.detach_latencies),
        },
        "invariants": {
            "violations": violations,
            "intervals_checked": intervals,
        },
        "determinism": {
            "journal_commands": len(journal),
            "replay_identical": replay_identical,
            "snapshot_sha256": digest,
        },
        "slo": {
            "p99_budget_s": p99_budget_s,
            "passed": not failures,
        },
    }
    if out is not None:
        write_service_bench(payload, out)
    return payload, failures


def validate_service_bench(payload: Any) -> Dict[str, Any]:
    """Check a payload against ``dcat-service-bench/v1``.

    Returns the payload unchanged; raises ``ValueError`` naming the
    first problem.  Mirrors the eager-validation contract of
    :func:`repro.obs.bench.validate_bench_payload`.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {type(payload).__name__}")
    if payload.get("format") != SERVICE_BENCH_FORMAT:
        raise ValueError(
            f"format must be {SERVICE_BENCH_FORMAT!r}, got {payload.get('format')!r}"
        )
    if not isinstance(payload.get("quick"), bool):
        raise ValueError("'quick' must be a boolean")
    for section in ("config", "requests", "latency_s", "invariants", "determinism", "slo"):
        if not isinstance(payload.get(section), dict):
            raise ValueError(f"'{section}' must be an object")
    requests = payload["requests"]
    for key in ("total", "admitted", "detached", "errors"):
        value = requests.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"requests.{key} must be a non-negative integer")
    if not isinstance(requests.get("rejected"), dict):
        raise ValueError("requests.rejected must be an object")
    for op in ("admit", "detach"):
        block = payload["latency_s"].get(op)
        if not isinstance(block, dict):
            raise ValueError(f"latency_s.{op} must be an object")
        for key in ("count", "p50_s", "p90_s", "p99_s", "max_s"):
            value = block.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
                raise ValueError(f"latency_s.{op}.{key} must be a non-negative number")
        if block["p50_s"] > block["p99_s"] * (1 + 1e-9):
            raise ValueError(f"latency_s.{op}: p50_s exceeds p99_s")
    invariants = payload["invariants"]
    for key in ("violations", "intervals_checked"):
        value = invariants.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ValueError(f"invariants.{key} must be a non-negative integer")
    determinism = payload["determinism"]
    if not isinstance(determinism.get("replay_identical"), bool):
        raise ValueError("determinism.replay_identical must be a boolean")
    digest = determinism.get("snapshot_sha256")
    if not isinstance(digest, str) or len(digest) != 64:
        raise ValueError("determinism.snapshot_sha256 must be a sha256 hex digest")
    value = determinism.get("journal_commands")
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError("determinism.journal_commands must be a non-negative integer")
    slo = payload["slo"]
    if not isinstance(slo.get("passed"), bool):
        raise ValueError("slo.passed must be a boolean")
    budget = slo.get("p99_budget_s")
    if isinstance(budget, bool) or not isinstance(budget, (int, float)) or budget <= 0:
        raise ValueError("slo.p99_budget_s must be a positive number")
    return payload


def write_service_bench(payload: Dict[str, Any], path: str) -> None:
    """Validate and write a service bench payload as indented JSON."""
    validate_service_bench(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
