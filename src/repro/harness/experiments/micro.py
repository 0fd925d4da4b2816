"""Micro experiments: paper Figures 1, 2, 3 and 5.

These establish the problem dCat solves:

* **Fig. 1** — cache interference: an MLR victim with and without MLOAD
  noisy neighbors, with and without a static CAT partition.  CAT isolates
  only while the reserved partition holds the working set.
* **Fig. 2** — a CAT allocation sized to the working set still underperforms
  the full cache with 4 KB pages (conflict misses from page scatter); huge
  pages fix the Xeon-D case but not a >2 MB working set on Xeon-E5.
* **Fig. 3** — the underlying lines-per-set histograms.
* **Fig. 5** — memory accesses per instruction are invariant to the cache
  allocation (while IPC is not), validating the phase-change signal.
"""

from __future__ import annotations

from typing import List

from repro.cpu.coremodel import CoreTimingModel
from repro.harness.results import BarGroup, ExperimentResult, Series, TableResult
from repro.harness.scenarios import build_stage, run_scenario
from repro.mem.address import MB, CacheGeometry
from repro.mem.paging import PAGE_2M, PAGE_4K
from repro.cache.conflict import analyze_buffer_scatter
from repro.platform.managers import SharedCacheManager, StaticCatManager
from repro.workloads.base import l1_miss_ratio_for
from repro.cache.analytical import AccessPattern
from repro.workloads.mlr import MlrWorkload

__all__ = ["run_fig1", "run_fig2", "run_fig3", "run_fig5"]

_SETTLE_S = 6.0
_DURATION_S = 16.0


def _mlr_latency(wss_bytes: int, with_noisy: bool, static_ways: int | None, seed: int) -> float:
    """Steady-state MLR access latency under one Fig. 1 scenario."""

    def factory(machine):
        return build_stage(
            machine,
            [MlrWorkload(wss_bytes, name="mlr")],
            baseline_ways=static_ways if static_ways is not None else 6,
            n_mload=2 if with_noisy else 0,
        )

    if static_ways is not None:
        # Static CAT: the target keeps `static_ways`; neighbors split the rest.
        def factory(machine):  # noqa: F811 - deliberate shadowing per mode
            vms = build_stage(
                machine,
                [MlrWorkload(wss_bytes, name="mlr")],
                baseline_ways=static_ways,
                n_mload=2 if with_noisy else 0,
            )
            rest = machine.num_ways - static_ways
            for vm in vms[1:]:
                vm.baseline_ways = rest // max(1, len(vms) - 1)
            return vms

        manager = StaticCatManager()
    else:
        manager = SharedCacheManager()
    result = run_scenario(factory, manager, duration_s=_DURATION_S, seed=seed)
    return result.mean("mlr", "avg_mem_latency_cycles", t0=_SETTLE_S)


def run_fig1(seed: int = 1234) -> ExperimentResult:
    """Impact of cache interference for MLR (paper Fig. 1).

    Scenarios per working set: shared cache without noisy neighbors, shared
    cache with 2x MLOAD-60MB, and CAT with 6 dedicated ways (13.5 MB) with
    the same neighbors.
    """
    result = ExperimentResult(
        "fig1", "MLR latency under interference, 6 MB and 16 MB working sets"
    )
    for wss_mb in (6, 16):
        wss = wss_mb * MB
        group = BarGroup(name=f"mlr-{wss_mb}mb latency (cycles, lower is better)")
        group.bars["shared w/o noisy"] = _mlr_latency(wss, False, None, seed)
        group.bars["shared w/ noisy"] = _mlr_latency(wss, True, None, seed)
        group.bars["cat-6way w/ noisy"] = _mlr_latency(wss, True, 6, seed)
        result.add(f"mlr_{wss_mb}mb", group)
    result.note(
        "CAT isolates the 6 MB working set (cat ~ shared-without-noisy) but "
        "fails the 16 MB one: 13.5 MB of dedicated cache cannot hold it."
    )
    return result


_FIG2_CONFIGS = (
    ("xeon_d", CacheGeometry.xeon_d(), 2 * MB),
    ("xeon_e5", CacheGeometry.xeon_e5(), int(4.5 * MB)),
)


def _latency_from_hit(hit_rate: float, wss_bytes: int) -> float:
    """Average access latency implied by an LLC hit rate, MLR behaviour."""
    timing = CoreTimingModel(noise_sigma=0.0)
    l1_miss = l1_miss_ratio_for(AccessPattern.RANDOM, wss_bytes)
    return timing.avg_mem_latency(l1_miss, hit_rate)


def run_fig2(seed: int = 1) -> ExperimentResult:
    """Impact of CAT-limited cache size (paper Fig. 2).

    Working sets sized to exactly 2 ways; still slower than the full cache
    with 4 KB pages because of conflict misses.
    """
    result = ExperimentResult(
        "fig2", "Latency at a 2-way CAT allocation vs full cache, by page size"
    )
    for name, geo, wss in _FIG2_CONFIGS:
        group = BarGroup(name=f"{name} wss={wss / MB:.1f}MB latency (cycles)")
        for label, page in (("4k", PAGE_4K), ("2m-hugepage", PAGE_2M)):
            scatter = analyze_buffer_scatter(
                wss, geo, allocated_ways=2, page_size=page, seed=seed
            )
            group.bars[f"cat-2way {label}"] = _latency_from_hit(
                scatter.irm_hit_rate, wss
            )
        full = analyze_buffer_scatter(
            wss, geo, allocated_ways=geo.num_ways, page_size=PAGE_4K, seed=seed
        )
        group.bars["full cache 4k"] = _latency_from_hit(full.irm_hit_rate, wss)
        result.add(name, group)
    result.note(
        "Huge pages recover full-cache latency on Xeon-D (one 2 MB page "
        "covers every set exactly) but not for the 4.5 MB set on Xeon-E5."
    )
    return result


def run_fig3(seed: int = 1) -> ExperimentResult:
    """Cache-set conflict histograms (paper Fig. 3)."""
    result = ExperimentResult(
        "fig3", "Lines mapped per cache set for 2-way-sized working sets"
    )
    table = TableResult(
        headers=["machine", "page", "frac sets >=3 lines", "irm hit rate @2 ways"]
    )
    for name, geo, wss in _FIG2_CONFIGS:
        for label, page in (("4k", PAGE_4K), ("2m", PAGE_2M)):
            scatter = analyze_buffer_scatter(
                wss, geo, allocated_ways=2, page_size=page, seed=seed
            )
            frac3 = sum(v for k, v in scatter.histogram.items() if k >= 3)
            table.add_row(name, label, frac3, scatter.irm_hit_rate)
            hist = TableResult(headers=["lines per set", "fraction of sets"])
            for k in sorted(scatter.histogram):
                hist.add_row(k, scatter.histogram[k])
            result.add(f"hist_{name}_{label}", hist)
    result.add("summary", table)
    result.note(
        "Paper reports ~32.5% (Xeon-D 4K), ~29% (Xeon-E5 4K), 0% (Xeon-D "
        "hugepage) and ~11.2% (Xeon-E5 hugepage) of sets with 3+ lines."
    )
    return result


def run_fig5(seed: int = 1234) -> ExperimentResult:
    """Phase-signal invariance (paper Fig. 5).

    Measured memory accesses per instruction must not move with the cache
    allocation, while IPC does.
    """
    from repro.workloads.mload import MloadWorkload

    result = ExperimentResult(
        "fig5", "Memory accesses per instruction vs allocated ways"
    )
    ways_axis = list(range(1, 9))
    cases = [
        ("mlr-4mb", lambda: MlrWorkload(4 * MB, name="target")),
        ("mlr-8mb", lambda: MlrWorkload(8 * MB, name="target")),
        ("mload-60mb", lambda: MloadWorkload(60 * MB, name="target")),
    ]
    for label, make in cases:
        refs: List[float] = []
        ipcs: List[float] = []
        for ways in ways_axis:

            def factory(machine, make=make, ways=ways):
                vms = build_stage(machine, [make()], baseline_ways=ways)
                return vms

            res = run_scenario(
                factory, StaticCatManager(), duration_s=8.0, seed=seed
            )
            refs.append(res.mean("target", "mem_refs_per_instr", t0=2.0))
            ipcs.append(res.mean("target", "ipc", t0=2.0))
        result.add(
            f"{label}_refs_per_instr", Series(label, [float(w) for w in ways_axis], refs)
        )
        result.add(f"{label}_ipc", Series(f"{label}-ipc", [float(w) for w in ways_axis], ipcs))
    result.note("refs/instr flat across ways; IPC rises for MLR, flat for MLOAD.")
    return result
