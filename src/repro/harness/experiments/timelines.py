"""Controller-dynamics experiments: paper Figures 10 through 16.

All of these watch dCat's per-interval decisions on the canonical stage
(target VMs plus lookbusy donors, 3-way baselines) and reproduce the
timeline figures: growth to the preferred allocation (Fig. 10), the latency
it buys (Fig. 11), performance-table reuse (Fig. 12), streaming demotion
(Fig. 13), the two allocation policies (Fig. 14), and the mixed MLR+MLOAD
run (Figs. 15/16).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.config import DCatConfig
from repro.harness.results import BarGroup, ExperimentResult, Series, TableResult
from repro.harness.scenarios import build_stage, run_scenario
from repro.mem.address import MB
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.platform.sim import SimulationResult
from repro.workloads.base import PhasedWorkload, idle_phase
from repro.workloads.mload import MloadWorkload
from repro.workloads.mlr import MlrWorkload, mlr_phase

__all__ = [
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "baseline_normalized_ipc",
]


def baseline_normalized_ipc(
    result: SimulationResult, vm_name: str, baseline_ways: int
) -> Series:
    """IPC over time normalized to the first active baseline-allocation IPC.

    This is how the paper's timeline figures plot "normalized IPC (to
    baseline)": the anchor is the IPC measured while the workload ran at its
    reserved allocation.
    """
    timeline = result.timeline(vm_name)
    anchor: Optional[float] = None
    for rec in timeline:
        if (
            rec.phase_name
            and "idle" not in rec.phase_name
            and int(round(rec.ways)) == baseline_ways
            and rec.ipc > 0
        ):
            anchor = rec.ipc
            break
    xs: List[float] = []
    ys: List[float] = []
    for rec in timeline:
        xs.append(rec.time_s)
        active = rec.phase_name is not None and "idle" not in rec.phase_name
        ys.append(rec.ipc / anchor if (anchor and active) else 0.0)
    return Series(f"{vm_name} normalized ipc", xs, ys)


def _ways_series(result: SimulationResult, vm_name: str) -> Series:
    return Series(
        f"{vm_name} ways",
        [r.time_s for r in result.timeline(vm_name)],
        [r.ways for r in result.timeline(vm_name)],
    )


def run_fig10(seed: int = 1234) -> ExperimentResult:
    """Way allocation and normalized IPC for MLR, WSS 4-16 MB (Fig. 10)."""
    result = ExperimentResult(
        "fig10", "dCat allocation timelines for MLR, 6 VMs, 3-way baselines"
    )
    finals = TableResult(headers=["wss_mb", "final ways", "steady norm ipc"])
    for wss_mb in (4, 8, 12, 16):

        def factory(machine, wss_mb=wss_mb):
            return build_stage(
                machine,
                [MlrWorkload(wss_mb * MB, start_delay_s=2.0, name="target")],
                baseline_ways=3,
                n_lookbusy=5,
            )

        res = run_scenario(
            factory, DCatManager(), duration_s=30.0, seed=seed
        )
        result.add(f"ways_{wss_mb}mb", _ways_series(res, "target"))
        norm = baseline_normalized_ipc(res, "target", baseline_ways=3)
        result.add(f"normipc_{wss_mb}mb", norm)
        finals.add_row(
            wss_mb,
            res.steady_mean("target", "ways", 5),
            sum(norm.y[-5:]) / 5,
        )
    result.add("finals", finals)
    result.note(
        "Larger working sets converge at more ways; lookbusy VMs hold 1 way "
        "each as Donors throughout."
    )
    return result


def run_fig11(seed: int = 1234) -> ExperimentResult:
    """Normalized (to full cache) MLR latency: dCat vs static CAT (Fig. 11)."""
    result = ExperimentResult(
        "fig11", "MLR data-access latency normalized to the full-cache run"
    )
    wss_axis = [4, 8, 12, 16]
    rows: Dict[str, List[float]] = {"static": [], "dcat": []}
    for wss_mb in wss_axis:

        def factory(machine, wss_mb=wss_mb):
            return build_stage(
                machine,
                [MlrWorkload(wss_mb * MB, start_delay_s=2.0, name="target")],
                baseline_ways=3,
                n_lookbusy=5,
            )

        def alone_factory(machine, wss_mb=wss_mb):
            return build_stage(
                machine,
                [MlrWorkload(wss_mb * MB, name="target")],
                baseline_ways=3,
            )

        full = run_scenario(
            alone_factory, SharedCacheManager(), duration_s=12.0, seed=seed
        ).mean("target", "avg_mem_latency_cycles", t0=4.0)
        for label, manager in (
            ("static", StaticCatManager()),
            ("dcat", DCatManager()),
        ):
            res = run_scenario(factory, manager, duration_s=30.0, seed=seed)
            latency = res.steady_mean("target", "avg_mem_latency_cycles", 8)
            rows[label].append(latency / full)
    for label, values in rows.items():
        result.add(
            label, Series(f"{label} normalized latency", [float(w) for w in wss_axis], values)
        )
    result.note(
        "dCat stays close to 1.0 (full cache); static CAT degrades steeply "
        "once the working set outgrows 3 ways (6.75 MB)."
    )
    return result


def run_fig12(seed: int = 1234) -> ExperimentResult:
    """Performance-table reuse across a stop/restart (paper Fig. 12)."""
    result = ExperimentResult(
        "fig12", "MLR-8MB run, stop, run again: second run jumps to preferred"
    )

    def make_workload():
        return PhasedWorkload(
            name="target",
            phases=[
                idle_phase(duration_s=2.0, name="idle-before"),
                mlr_phase(8 * MB, duration_s=12.0),
                idle_phase(duration_s=5.0, name="idle-between"),
                mlr_phase(8 * MB, duration_s=12.0),
                idle_phase(name="idle-after"),
            ],
        )

    def factory(machine):
        return build_stage(machine, [make_workload()], baseline_ways=3, n_lookbusy=5)

    for label, config in (
        ("with_table", DCatConfig(use_performance_table=True)),
        ("without_table", DCatConfig(use_performance_table=False)),
    ):
        res = run_scenario(
            factory, DCatManager(config=config), duration_s=34.0, seed=seed
        )
        result.add(f"ways_{label}", _ways_series(res, "target"))
    result.note(
        "With the table, the restart at ~19 s goes straight to the preferred "
        "ways; without it, growth restarts from the baseline one way per round."
    )
    return result


def run_fig13(seed: int = 1234) -> ExperimentResult:
    """Streaming detection for MLOAD-60MB (paper Fig. 13)."""
    result = ExperimentResult(
        "fig13", "MLOAD-60MB grows to the streaming threshold, then donates"
    )

    def factory(machine):
        return build_stage(
            machine,
            [MloadWorkload(60 * MB, start_delay_s=2.0, name="target")],
            baseline_ways=3,
            n_lookbusy=5,
        )

    res = run_scenario(factory, DCatManager(), duration_s=25.0, seed=seed)
    result.add("ways", _ways_series(res, "target"))
    result.add("normipc", baseline_normalized_ipc(res, "target", baseline_ways=3))
    states = [
        str(r.state.value) if r.state else "-" for r in res.timeline("target")
    ]
    table = TableResult(headers=["t", "ways", "state"])
    for rec, state in zip(res.timeline("target"), states):
        table.add_row(rec.time_s, rec.ways, state)
    result.add("states", table)
    result.note(
        "IPC never improves with added ways; at 3x the baseline (9 ways) the "
        "workload is classified Streaming and drops to 1 way."
    )
    return result


def run_fig14(seed: int = 1234) -> ExperimentResult:
    """Two receivers under both allocation policies (paper Fig. 14)."""
    result = ExperimentResult(
        "fig14", "MLR-8MB and MLR-12MB: max-fairness vs max-performance"
    )

    def factory(machine):
        return build_stage(
            machine,
            [
                MlrWorkload(8 * MB, start_delay_s=2.0, name="mlr-8mb"),
                MlrWorkload(12 * MB, start_delay_s=2.0, name="mlr-12mb"),
            ],
            baseline_ways=3,
            n_lookbusy=6,
        )

    finals = TableResult(headers=["policy", "mlr-8mb ways", "mlr-12mb ways"])
    for policy in ("max_fairness", "max_performance"):
        config = DCatConfig(policy=policy)
        res = run_scenario(
            factory, DCatManager(config=config), duration_s=40.0, seed=seed
        )
        for vm in ("mlr-8mb", "mlr-12mb"):
            result.add(f"ways_{vm}_{policy}", _ways_series(res, vm))
        finals.add_row(
            policy,
            res.steady_mean("mlr-8mb", "ways", 5),
            res.steady_mean("mlr-12mb", "ways", 5),
        )
    result.add("finals", finals)
    result.note(
        "Fairness splits the pool evenly; max-performance shifts ways toward "
        "the working set that still converts them into IPC."
    )
    return result


def _fig15_scenario(seed: int):
    def factory(machine):
        return build_stage(
            machine,
            [
                MlrWorkload(8 * MB, start_delay_s=2.0, name="mlr-8mb"),
                MloadWorkload(60 * MB, start_delay_s=2.0, name="mload-60mb"),
            ],
            baseline_ways=3,
            n_lookbusy=5,
        )

    return run_scenario(factory, DCatManager(), duration_s=30.0, seed=seed)


def run_fig15(seed: int = 1234) -> ExperimentResult:
    """MLR + MLOAD allocation timeline (paper Fig. 15)."""
    result = ExperimentResult(
        "fig15", "MLR-8MB and MLOAD-60MB compete; Unknown outranks Receiver"
    )
    res = _fig15_scenario(seed)
    for vm in ("mlr-8mb", "mload-60mb"):
        result.add(f"ways_{vm}", _ways_series(res, vm))
        result.add(
            f"normipc_{vm}", baseline_normalized_ipc(res, vm, baseline_ways=3)
        )
    result.note(
        "MLOAD (Unknown) takes grant priority until it exhausts its chances "
        "and is demoted to Streaming; MLR then collects the freed ways."
    )
    return result


def run_fig16(seed: int = 1234) -> ExperimentResult:
    """Normalized latency for the Fig. 15 pair under dCat (paper Fig. 16)."""
    result = ExperimentResult(
        "fig16", "dCat latency vs full-cache runs for MLR-8MB and MLOAD-60MB"
    )
    res = _fig15_scenario(seed)
    group = BarGroup(name="latency normalized to solo full-cache run")
    for vm, wss_mb, make in (
        ("mlr-8mb", 8, lambda: MlrWorkload(8 * MB, name="solo")),
        ("mload-60mb", 60, lambda: MloadWorkload(60 * MB, name="solo")),
    ):

        def alone_factory(machine, make=make):
            return build_stage(machine, [make()], baseline_ways=3)

        full = run_scenario(
            alone_factory, SharedCacheManager(), duration_s=12.0, seed=seed
        ).mean("solo", "avg_mem_latency_cycles", t0=4.0)
        dcat_latency = res.steady_mean(vm, "avg_mem_latency_cycles", 8)
        group.bars[vm] = dcat_latency / full
    result.add("normalized_latency", group)
    result.note(
        "MLR lands near 1.0 (its preferred allocation); MLOAD is insensitive, "
        "so holding 1 way costs it almost nothing."
    )
    return result
