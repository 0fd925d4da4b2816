"""Hot-path micro-benchmarks behind ``dcat-experiment bench``.

Seeds the repo's perf trajectory: each run times the paths every interval
exercises — the exact cache model's access loop, counter aggregation, a full
warm controller step, a simulation step under the null vs a recording bus,
raw event emission, mask packing/validation, and one fleet interval with
10 of 1000 hosts busy and with all 48 hosts busy, one tenant admit and
depart on a 1000-host fleet, one uncached conflict-scatter evaluation and
one host build — and writes the results to
``BENCH_controller.json`` at the repo root (schema ``dcat-bench/v1``).

Timing discipline: every benchmark runs ``repeats`` batches of
``iterations`` calls, reporting best/median/mean per-call seconds; *best*
is the headline number (least noise on shared machines).  GC is disabled
inside timed batches.  ``--quick`` shrinks only the batch counts for CI
smoke runs: the schema, the benchmark set and every fixture are identical
in both modes, so a quick row's per-call time is comparable with the
committed full-mode row.
"""

from __future__ import annotations

import gc
import json
import statistics
from time import perf_counter
from typing import Any, Callable, Dict, List

__all__ = ["BENCH_FORMAT", "run_bench", "validate_bench_payload", "write_bench"]

BENCH_FORMAT = "dcat-bench/v1"

#: Every payload must carry at least this many hot-path timings.
MIN_BENCHMARKS = 5

_REQUIRED_KEYS = ("name", "iterations", "repeats", "best_s", "median_s", "mean_s")


def _time(fn: Callable[[], None], iterations: int, repeats: int) -> Dict[str, Any]:
    """Per-call seconds over ``repeats`` timed batches of ``iterations``."""
    fn()  # warm caches/JIT-free but import- and allocation-warm
    per_call: List[float] = []
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            start = perf_counter()
            for _ in range(iterations):
                fn()
            elapsed = perf_counter() - start
            gc.enable()
            per_call.append(elapsed / iterations)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "iterations": iterations,
        "repeats": repeats,
        "best_s": min(per_call),
        "median_s": statistics.median(per_call),
        "mean_s": statistics.fmean(per_call),
    }


# -- the benchmarks ----------------------------------------------------------


def _setassoc_fixture():
    import numpy as np

    from repro.cache.setassoc import SetAssociativeCache
    from repro.mem.address import CacheGeometry

    geometry = CacheGeometry(line_size=64, num_sets=256, num_ways=16)
    cache = SetAssociativeCache(geometry)
    rng = np.random.default_rng(1234)
    # Touch 2x the cache's sets so the batch mixes hits, fills and evictions.
    paddrs = rng.integers(0, 2 * geometry.capacity_bytes, size=2048, dtype=np.int64)
    mask = (1 << 8) - 1  # an 8-way COS, the common partitioned case
    return cache, paddrs, mask


def _bench_setassoc() -> Callable[[], None]:
    cache, paddrs, mask = _setassoc_fixture()

    def run() -> None:
        cache.access_many(paddrs, mask=mask, cos=1)

    return run


def _bench_setassoc_scalar() -> Callable[[], None]:
    """Scalar reference leg of the scalar-vs-batch pair (same workload)."""
    cache, paddrs, mask = _setassoc_fixture()

    def run() -> None:
        cache.access_many_ref(paddrs, mask=mask, cos=1)

    return run


def _bench_aggregate() -> Callable[[], None]:
    from repro.hwcounters.perfmon import CounterSample

    # One sample per vCPU of the paper's largest per-workload core set.
    samples = [
        CounterSample(
            l1_ref=1_000_000 + i,
            llc_ref=50_000 + i,
            llc_miss=9_000 + i,
            ret_ins=2_000_000 + i,
            cycles=2_400_000 + i,
        )
        for i in range(8)
    ]

    def run() -> None:
        CounterSample.aggregate(samples)

    return run


def _warm_stage(seed: int, warmup_s: float):
    from repro.harness.scenarios import build_stage, paper_machine
    from repro.mem.address import MB
    from repro.platform.managers import DCatManager
    from repro.platform.sim import CloudSimulation
    from repro.workloads.mlr import MlrWorkload

    machine = paper_machine(seed=seed)
    vms = build_stage(
        machine,
        [MlrWorkload(8 * MB, start_delay_s=1.0, name="target")],
        baseline_ways=3,
        n_lookbusy=5,
    )
    manager = DCatManager()
    sim = CloudSimulation(machine, vms, manager)
    sim.run(warmup_s)
    return sim, manager


def _bench_controller_step() -> Callable[[], None]:
    sim, manager = _warm_stage(seed=1, warmup_s=5.0)
    controller = manager.controller

    def run() -> None:
        sim.step()  # keep counters moving so the controller sees live data
        controller.step()

    return run


def _bench_sim_step_null_bus() -> Callable[[], None]:
    sim, _ = _warm_stage(seed=5, warmup_s=5.0)
    return sim.step


def _bench_sim_step_ring_bus() -> Callable[[], None]:
    from repro.engine.events import EventBus, RingBufferRecorder
    from repro.harness.scenarios import build_stage, paper_machine
    from repro.mem.address import MB
    from repro.platform.managers import DCatManager
    from repro.platform.sim import CloudSimulation
    from repro.workloads.mlr import MlrWorkload

    bus = EventBus()
    bus.subscribe(RingBufferRecorder(capacity=100_000))
    machine = paper_machine(seed=5)
    vms = build_stage(
        machine,
        [MlrWorkload(8 * MB, start_delay_s=1.0, name="target")],
        baseline_ways=3,
        n_lookbusy=5,
    )
    sim = CloudSimulation(machine, vms, DCatManager(), bus=bus)
    sim.run(5.0)
    return sim.step


def _warm_fidelity_stage(fidelity: str, seed: int, warmup_s: float):
    """A warm stage running on the named cache substrate (see substrate.py).

    The exact/mixed legs use a modest trace budget (20k accesses/interval)
    so the full-mode bench stays tractable while still timing the real
    generate → interleave → measure pipeline.  Their tag arrays take about
    30 intervals to fill (an interval costs ~6x more at 5 s than at
    steady state), so they warm for 40 s: quick and full mode then time
    the same steady interval.
    """
    from repro.harness.scenarios import build_stage, paper_machine
    from repro.mem.address import MB
    from repro.platform.managers import DCatManager
    from repro.platform.sim import CloudSimulation
    from repro.platform.substrate import build_substrate
    from repro.workloads.mlr import MlrWorkload

    options = {}
    if fidelity in ("exact", "mixed"):
        options = {"accesses_per_interval": 20_000, "seed": seed}
    if fidelity == "mixed":
        options["sample_rate"] = 1.0  # every interval spot-checks: worst case
    machine = paper_machine(seed=seed)
    vms = build_stage(
        machine,
        [MlrWorkload(8 * MB, start_delay_s=1.0, name="target")],
        baseline_ways=3,
        n_lookbusy=5,
    )
    sim = CloudSimulation(
        machine, vms, DCatManager(), substrate=build_substrate(fidelity, **options)
    )
    sim.run(warmup_s)
    return sim


def _bench_sim_step_analytical() -> Callable[[], None]:
    return _warm_fidelity_stage("analytical", seed=7, warmup_s=5.0).step


def _bench_sim_step_exact() -> Callable[[], None]:
    return _warm_fidelity_stage("exact", seed=7, warmup_s=40.0).step


def _bench_sim_step_mixed() -> Callable[[], None]:
    return _warm_fidelity_stage("mixed", seed=7, warmup_s=40.0).step


def _bench_event_emit() -> Callable[[], None]:
    from repro.engine.events import EventBus, SampleCollected

    bus = EventBus()
    sink: List[object] = []
    bus.subscribe(sink.append)

    def run() -> None:
        bus.emit(
            SampleCollected.fast(
                time_s=1.0,
                source="controller",
                workload_id="target",
                ipc=1.5,
                llc_miss_rate=0.2,
                mem_refs_per_instr=0.4,
                instructions=1_000_000,
                cycles=700_000,
                idle=False,
            )
        )
        sink.clear()

    return run


def _bench_fleet_step_1k() -> Callable[[], None]:
    """One fleet interval at IaaS scale: 1000 hosts, 10 of them busy.

    Times the discrete-event fleet clock's per-tick cost — active-host
    iteration, entitlement snapshots and SLO accounting — which must
    scale with the *busy* host count, not the fleet size.  Full mode's
    2000 iterations x 5 repeats is the 10k-interval fleet run the
    ROADMAP's scale target calls for.
    """
    from repro.cloud.scenario import load_churn_scenario

    tenants = [
        {
            "name": f"steady-{i:02d}",
            "arrival_s": 0,
            "baseline_ways": 3,
            "workload": {"type": "lookbusy"},
        }
        for i in range(10)
    ]
    fleet, _ = load_churn_scenario(
        {
            "fleet": {
                "machines": 1000,
                "socket": "xeon_d",
                "seed": 42,
                "interval_s": 1.0,
            },
            "manager": {"type": "dcat"},
            "placement": "least_loaded",
            "duration_s": 10,
            "tenants": tenants,
        }
    )
    fleet.step()  # admit the steady tenants: every timed step manages 10 hosts
    return fleet.step


def _bench_fleet_step_dense() -> Callable[[], None]:
    """One fleet interval with every host busy: 48 full xeon_d hosts.

    The busy counterpart of ``fleet_step_1k``: ``first_fit`` packs five
    long-lived tenants (3+3+2+2+2 ways, the whole 12-way LLC) onto each
    host, so every timed step pays one ``CloudSimulation.step`` and one
    dCat control step per host.
    """
    from repro.cloud.scenario import load_churn_scenario

    mix = (
        {"type": "mlr", "wss_mb": 4},
        {"type": "mlr", "wss_mb": 16},
        {"type": "mload", "wss_mb": 60},
        {"type": "redis"},
        {"type": "postgres"},
    )
    hosts = 48
    tenants = [
        {
            "name": f"dense-{host:02d}-{slot}",
            "arrival_s": 0,
            "baseline_ways": ways,
            "workload": dict(mix[(host + slot) % len(mix)]),
        }
        for host in range(hosts)
        for slot, ways in enumerate((3, 3, 2, 2, 2))
    ]
    fleet, _ = load_churn_scenario(
        {
            "fleet": {"machines": hosts, "socket": "xeon_d", "seed": 42},
            "manager": {"type": "dcat"},
            "placement": "first_fit",
            "duration_s": 10,
            "tenants": tenants,
        }
    )
    fleet.step()  # admit every tenant: each timed step manages 48 busy hosts
    if not all(len(m.residents) == 5 for m in fleet.machines):
        raise RuntimeError("fleet_step_dense: a host is not fully loaded")
    return fleet.step


def _bench_fleet_admit_1k() -> Callable[[], None]:
    """One tenant admit and depart on a 1000-host fleet with 100 residents.

    Times the lifecycle path an arrival takes — placement (``least_loaded``
    over the fleet's capacity index), attach with dCat registration, SLO
    ledger, then detach — which must not grow with the fleet size.  Tenant
    ids are single-use, so every call admits a fresh name.
    """
    from itertools import count

    from repro.cloud.lifecycle import TenantSpec
    from repro.cloud.scenario import load_churn_scenario

    fleet, _ = load_churn_scenario(
        {
            "fleet": {
                "machines": 1000,
                "socket": "xeon_d",
                "seed": 42,
                "interval_s": 1.0,
            },
            "manager": {"type": "dcat"},
            "placement": "least_loaded",
            "duration_s": 10,
            "tenants": [
                {
                    "name": f"resident-{i:03d}",
                    "arrival_s": 0,
                    "baseline_ways": 3,
                    "workload": {"type": "lookbusy"},
                }
                for i in range(100)
            ],
        }
    )
    fleet.step()  # admit the residents
    serial = count()

    def run() -> None:
        name = f"arrival-{next(serial)}"
        fleet.admit_tenant(
            TenantSpec(name, fleet.now, 3, {"type": "mlr", "wss_mb": 8})
        )
        fleet.depart_tenant(name)

    return run


def _bench_scatter_kernel() -> Callable[[], None]:
    """One uncached conflict-scatter evaluation: 8 MB on 4K pages, xeon_d.

    Calls the memoized kernel's undecorated function, so every call pays
    the binomial pmf and the moment sums a cold way curve pays.
    """
    from repro.cache.analytical import _scatter_min_expectation
    from repro.mem.address import MB, CacheGeometry
    from repro.mem.paging import PAGE_4K

    geometry = CacheGeometry.xeon_d()
    # A 4K page (64 lines) covers 64 of the 16384 sets once: no base share.
    n_full = 8 * MB // PAGE_4K
    p_full = round(PAGE_4K // geometry.line_size / geometry.num_sets, 9)
    kernel = _scatter_min_expectation.__wrapped__

    def run() -> None:
        kernel(n_full, p_full, 0.0, 0, geometry.num_ways)

    return run


def _bench_host_build() -> Callable[[], None]:
    """One fleet host from scratch: a xeon_d ``Machine``, its
    ``CloudSimulation`` and a fresh dCat manager (16 seeded cores)."""
    from repro.cpu.socket import SocketSpec
    from repro.platform.machine import Machine
    from repro.platform.managers import DCatManager
    from repro.platform.sim import CloudSimulation

    spec = SocketSpec.xeon_d()

    def run() -> None:
        CloudSimulation(Machine(spec, seed=42), [], DCatManager())

    return run


def _bench_mask_pack() -> Callable[[], None]:
    from repro.cat.cos import contiguous_mask, validate_cbm

    # The commit stage packs one contiguous mask per live workload; 6 VMs on
    # the paper's 20-way part is the canonical layout.
    layout = [(0, 3), (3, 3), (6, 3), (9, 3), (12, 3), (15, 5)]

    def run() -> None:
        for first, ways in layout:
            validate_cbm(contiguous_mask(first, ways), 20)

    return run


_BENCHMARKS: List[Dict[str, Any]] = [
    {"name": "setassoc_access_many", "build": _bench_setassoc,
     "iterations": (2, 10), "repeats": (3, 5),
     "note": "exact-model batch access (2048 addrs, 8-way mask)"},
    {"name": "setassoc_access_scalar", "build": _bench_setassoc_scalar,
     "iterations": (2, 10), "repeats": (3, 5),
     "note": "scalar reference for the same workload (batch speedup baseline)"},
    {"name": "counter_sample_aggregate", "build": _bench_aggregate,
     "iterations": (2_000, 20_000), "repeats": (3, 5),
     "note": "per-interval counter aggregation over 8 vCPU samples"},
    {"name": "controller_step", "build": _bench_controller_step,
     "iterations": (5, 20), "repeats": (3, 5),
     "note": "full control step (collect..commit) on the warm 6-VM stage"},
    {"name": "sim_step_null_bus", "build": _bench_sim_step_null_bus,
     "iterations": (5, 20), "repeats": (3, 5),
     "note": "one simulation interval, no bus subscribers"},
    {"name": "sim_step_ring_bus", "build": _bench_sim_step_ring_bus,
     "iterations": (5, 20), "repeats": (3, 5),
     "note": "one simulation interval with a ring-buffer recorder subscribed"},
    {"name": "sim_step_analytical", "build": _bench_sim_step_analytical,
     "iterations": (5, 20), "repeats": (3, 5),
     "note": "one interval on the analytical substrate (closed-form hit rates)"},
    {"name": "sim_step_exact", "build": _bench_sim_step_exact,
     "iterations": (3, 10), "repeats": (3, 5),
     "note": "one interval on the exact substrate (20k-access tag-array replay)"},
    {"name": "sim_step_mixed", "build": _bench_sim_step_mixed,
     "iterations": (3, 10), "repeats": (3, 5),
     "note": "one interval on the mixed substrate, oracle sampling every interval"},
    {"name": "event_emit", "build": _bench_event_emit,
     "iterations": (5_000, 50_000), "repeats": (3, 5),
     "note": "Event.fast construction + single-subscriber emit"},
    {"name": "mask_pack", "build": _bench_mask_pack,
     "iterations": (2_000, 20_000), "repeats": (3, 5),
     "note": "contiguous-mask packing + CBM validation for 6 workloads"},
    {"name": "fleet_step_1k", "build": _bench_fleet_step_1k,
     "iterations": (20, 2_000), "repeats": (3, 5),
     "note": "one fleet interval over 1000 machines (10 busy) on the "
             "event-driven clock; full mode totals 10k intervals"},
    {"name": "fleet_step_dense", "build": _bench_fleet_step_dense,
     "iterations": (2, 10), "repeats": (3, 5),
     "note": "one fleet interval over 48 fully loaded xeon_d hosts "
             "(first_fit, 5 tenants each)"},
    {"name": "fleet_admit_1k", "build": _bench_fleet_admit_1k,
     "iterations": (20, 200), "repeats": (3, 5),
     "note": "one tenant admit + depart on 1000 xeon_d hosts with 100 "
             "residents (least_loaded)"},
    {"name": "scatter_kernel", "build": _bench_scatter_kernel,
     "iterations": (200, 2_000), "repeats": (3, 5),
     "note": "one uncached conflict-scatter evaluation (8 MB, 4K pages, "
             "xeon_d geometry, 12 ways)"},
    {"name": "host_build", "build": _bench_host_build,
     "iterations": (20, 200), "repeats": (3, 5),
     "note": "one xeon_d Machine + CloudSimulation + dCat manager"},
]


def run_bench(quick: bool = False) -> Dict[str, Any]:
    """Run every hot-path benchmark; returns the ``dcat-bench/v1`` payload."""
    idx = 0 if quick else 1
    results: List[Dict[str, Any]] = []
    for spec in _BENCHMARKS:
        fn = spec["build"]()
        timing = _time(fn, spec["iterations"][idx], spec["repeats"][idx])
        results.append({"name": spec["name"], "note": spec["note"], **timing})
    return {"format": BENCH_FORMAT, "quick": quick, "benchmarks": results}


def validate_bench_payload(payload: Any) -> Dict[str, Any]:
    """Check a bench payload against the ``dcat-bench/v1`` schema.

    Returns the payload unchanged; raises ``ValueError`` naming the first
    problem found.  Used by :func:`write_bench` and the tests.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"payload must be an object, got {type(payload).__name__}")
    if payload.get("format") != BENCH_FORMAT:
        raise ValueError(f"format must be {BENCH_FORMAT!r}, got {payload.get('format')!r}")
    if not isinstance(payload.get("quick"), bool):
        raise ValueError("'quick' must be a boolean")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list):
        raise ValueError("'benchmarks' must be a list")
    if len(benchmarks) < MIN_BENCHMARKS:
        raise ValueError(
            f"need >= {MIN_BENCHMARKS} hot-path timings, got {len(benchmarks)}"
        )
    seen = set()
    for i, entry in enumerate(benchmarks):
        if not isinstance(entry, dict):
            raise ValueError(f"benchmarks[{i}] must be an object")
        for key in _REQUIRED_KEYS:
            if key not in entry:
                raise ValueError(f"benchmarks[{i}] is missing {key!r}")
        name = entry["name"]
        if not isinstance(name, str) or not name:
            raise ValueError(f"benchmarks[{i}].name must be a non-empty string")
        if name in seen:
            raise ValueError(f"duplicate benchmark name {name!r}")
        seen.add(name)
        for key in ("best_s", "median_s", "mean_s"):
            value = entry[key]
            if not isinstance(value, (int, float)) or value <= 0:
                raise ValueError(f"benchmarks[{i}].{key} must be a positive number")
        for key in ("iterations", "repeats"):
            value = entry[key]
            if not isinstance(value, int) or value < 1:
                raise ValueError(f"benchmarks[{i}].{key} must be a positive integer")
        if entry["best_s"] > entry["mean_s"] * (1 + 1e-9):
            raise ValueError(f"benchmarks[{i}]: best_s exceeds mean_s")
    return payload


def write_bench(payload: Dict[str, Any], path: str) -> None:
    """Validate and write a bench payload as indented JSON."""
    validate_bench_payload(payload)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
