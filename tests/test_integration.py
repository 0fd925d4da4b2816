"""End-to-end integration tests: the paper's claims on the full stack.

Each test runs the real pipeline (machine + VMs + manager + controller) and
asserts the *shape* the paper reports — who wins, in which direction, and
the qualitative dynamics — rather than absolute numbers.
"""

import pytest

from repro.core.config import DCatConfig
from repro.core.states import WorkloadState
from repro.harness.scenarios import build_stage, run_scenario
from repro.mem.address import MB
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.workloads.base import PhasedWorkload, idle_phase
from repro.workloads.mload import MloadWorkload
from repro.workloads.mlr import MlrWorkload, mlr_phase

SEED = 1234


def mlr_stage(wss_mb, n_lookbusy=5, baseline=3, delay=2.0):
    def factory(machine):
        return build_stage(
            machine,
            [MlrWorkload(wss_mb * MB, start_delay_s=delay, name="target")],
            baseline_ways=baseline,
            n_lookbusy=n_lookbusy,
        )

    return factory


class TestGrowthDynamics:
    """Paper Fig. 10: dCat grows a starved workload to its preferred size."""

    def test_mlr_grows_beyond_baseline(self):
        res = run_scenario(mlr_stage(8), DCatManager(), duration_s=25.0, seed=SEED)
        assert res.steady_mean("target", "ways", 5) > 5

    def test_larger_wss_gets_more_ways(self):
        finals = {}
        for wss in (4, 16):
            res = run_scenario(
                mlr_stage(wss), DCatManager(), duration_s=30.0, seed=SEED
            )
            finals[wss] = res.steady_mean("target", "ways", 5)
        assert finals[16] > finals[4]

    def test_growth_is_one_way_per_round(self):
        res = run_scenario(mlr_stage(8), DCatManager(), duration_s=25.0, seed=SEED)
        ways = res.series("target", "ways")
        diffs = [b - a for a, b in zip(ways, ways[1:])]
        # Apart from the initial reclaim jump (1 -> baseline), growth steps
        # are single ways.
        grow_steps = [d for d in diffs if d > 0]
        assert grow_steps.count(1.0) >= len(grow_steps) - 1

    def test_lookbusy_neighbors_become_donors(self):
        res = run_scenario(mlr_stage(8), DCatManager(), duration_s=20.0, seed=SEED)
        for i in range(5):
            assert res.final(f"lookbusy-{i}", "ways") == 1.0
            assert res.timeline(f"lookbusy-{i}")[-1].state is WorkloadState.DONOR


class TestStreamingDetection:
    """Paper Fig. 13: MLOAD is unmasked and demoted to one way."""

    def test_mload_demoted(self):
        def factory(machine):
            return build_stage(
                machine,
                [MloadWorkload(60 * MB, start_delay_s=2.0, name="target")],
                baseline_ways=3,
                n_lookbusy=5,
            )

        res = run_scenario(factory, DCatManager(), duration_s=25.0, seed=SEED)
        tl = res.timeline("target")
        assert tl[-1].state is WorkloadState.STREAMING
        assert tl[-1].ways == 1.0
        # It first explored up to the streaming threshold (3x baseline).
        assert max(r.ways for r in tl) == pytest.approx(9.0)

    def test_mload_ipc_unharmed_by_demotion(self):
        def factory(machine):
            return build_stage(
                machine,
                [MloadWorkload(60 * MB, start_delay_s=2.0, name="target")],
                baseline_ways=3,
                n_lookbusy=5,
            )

        res = run_scenario(factory, DCatManager(), duration_s=25.0, seed=SEED)
        tl = res.timeline("target")
        ipc_at_baseline = next(
            r.ipc
            for r in tl
            if r.ways == 3.0 and r.ipc > 0 and "idle" not in (r.phase_name or "")
        )
        ipc_demoted = tl[-1].ipc
        assert ipc_demoted == pytest.approx(ipc_at_baseline, rel=0.05)


class TestBaselineGuarantee:
    """dCat's core promise: never worse than the static reservation."""

    def test_dcat_ipc_at_least_static(self):
        for wss in (4, 8, 16):
            static = run_scenario(
                mlr_stage(wss), StaticCatManager(), duration_s=25.0, seed=SEED
            ).steady_mean("target", "ipc", 5)
            dcat = run_scenario(
                mlr_stage(wss), DCatManager(), duration_s=25.0, seed=SEED
            ).steady_mean("target", "ipc", 5)
            assert dcat >= static * 0.98

    def test_reclaim_restores_baseline_on_phase_change(self):
        from dataclasses import replace

        def factory(machine):
            second = mlr_phase(16 * MB, duration_s=10.0, name="mlr-16mb-hot")
            # Different refs/instr so the detector sees a true phase change.
            second = replace(
                second, behavior=replace(second.behavior, refs_per_instr=0.35)
            )
            workload = PhasedWorkload(
                name="target",
                phases=[
                    idle_phase(duration_s=2.0, name="idle-a"),
                    mlr_phase(8 * MB, duration_s=10.0),
                    second,
                ],
            )
            return build_stage(machine, [workload], baseline_ways=3, n_lookbusy=5)

        res = run_scenario(factory, DCatManager(), duration_s=24.0, seed=SEED)
        tl = res.timeline("target")
        # Find the second phase's onset; the allocation must pass through
        # the baseline (reclaim) before growing again.
        onset = next(i for i, r in enumerate(tl) if r.phase_name == "mlr-16mb-hot")
        window = [r.ways for r in tl[onset : onset + 3]]
        assert 3.0 in window

    def test_wss_growth_without_phase_change_reopens_growth(self):
        """A working set that grows silently (same refs/instr) must still
        attract more ways once its miss rate climbs back up."""

        def factory(machine):
            workload = PhasedWorkload(
                name="target",
                phases=[
                    idle_phase(duration_s=2.0, name="idle-a"),
                    mlr_phase(8 * MB, duration_s=10.0),
                    mlr_phase(16 * MB, duration_s=14.0),
                ],
            )
            return build_stage(machine, [workload], baseline_ways=3, n_lookbusy=5)

        res = run_scenario(factory, DCatManager(), duration_s=28.0, seed=SEED)
        # Converged for 8 MB (~7 ways), then kept growing for 16 MB.
        assert res.steady_mean("target", "ways", 4) > 8


class TestIsolationOrdering:
    """Paper Figs. 1/11/16: dCat ~ full cache; static degrades; shared worst."""

    def test_three_regime_latency_ordering_with_noise(self):
        def factory(machine):
            return build_stage(
                machine,
                [MlrWorkload(12 * MB, start_delay_s=2.0, name="target")],
                baseline_ways=3,
                n_mload=2,
                n_lookbusy=3,
            )

        latencies = {}
        for label, manager in (
            ("shared", SharedCacheManager()),
            ("static", StaticCatManager()),
            ("dcat", DCatManager()),
        ):
            res = run_scenario(factory, manager, duration_s=30.0, seed=SEED)
            latencies[label] = res.steady_mean("target", "avg_mem_latency_cycles", 8)
        assert latencies["dcat"] < latencies["static"] < latencies["shared"]

    def test_victim_protected_while_neighbor_streams(self):
        """Paper Fig. 16: harvesting never hurts the donor."""

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

        res = run_scenario(factory, DCatManager(), duration_s=30.0, seed=SEED)
        # MLR converges to its preferred allocation...
        assert res.steady_mean("mlr-8mb", "ways", 5) >= 7
        # ...while MLOAD ends at 1 way with its IPC intact.
        tl = res.timeline("mload-60mb")
        assert tl[-1].ways == 1.0
        first_active = next(
            r.ipc
            for r in tl
            if r.ways == 3.0 and r.ipc > 0 and "idle" not in (r.phase_name or "")
        )
        assert tl[-1].ipc == pytest.approx(first_active, rel=0.05)


class TestPolicies:
    def test_max_performance_beats_fairness_under_scarcity(self):
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

        totals = {}
        for policy in ("max_fairness", "max_performance"):
            res = run_scenario(
                factory,
                DCatManager(config=DCatConfig(policy=policy)),
                duration_s=40.0,
                seed=SEED,
            )
            totals[policy] = sum(
                res.steady_mean(vm, "ipc", 5) for vm in ("mlr-8mb", "mlr-12mb")
            )
        assert totals["max_performance"] >= totals["max_fairness"] * 0.999


class TestPerformanceTableReuse:
    """Paper Fig. 12: the second run skips the one-way-per-round climb."""

    def test_restart_converges_faster_with_table(self):
        def factory(machine):
            workload = PhasedWorkload(
                name="target",
                phases=[
                    idle_phase(duration_s=2.0, name="idle-a"),
                    mlr_phase(8 * MB, duration_s=12.0),
                    idle_phase(duration_s=5.0, name="idle-b"),
                    mlr_phase(8 * MB, duration_s=12.0),
                    idle_phase(name="idle-c"),
                ],
            )
            return build_stage(machine, [workload], baseline_ways=3, n_lookbusy=5)

        def restart_time_to(res, target_ways):
            for rec in res.timeline("target"):
                if rec.time_s >= 19.0 and rec.ways >= target_ways:
                    return rec.time_s
            return float("inf")

        with_table = run_scenario(
            factory,
            DCatManager(config=DCatConfig(use_performance_table=True)),
            duration_s=32.0,
            seed=SEED,
        )
        without = run_scenario(
            factory,
            DCatManager(config=DCatConfig(use_performance_table=False)),
            duration_s=32.0,
            seed=SEED,
        )
        converged = max(r.ways for r in with_table.timeline("target") if r.time_s < 16)
        assert restart_time_to(with_table, converged) < restart_time_to(
            without, converged
        )
