"""Tests for repro.platform: machine wiring, VM pinning, managers, and sim."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cat.cos import mask_way_count
from repro.core.states import WorkloadState
from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.platform.sim import CloudSimulation, whole_intervals
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mlr import MlrWorkload
from repro.workloads.spec import spec_workload


def small_machine(seed=7):
    return Machine(seed=seed, cycles_per_interval=500_000)


def make_vms(machine, *workloads, baseline=3):
    vms = [
        VirtualMachine(name=w.name, workload=w, baseline_ways=baseline)
        for w in workloads
    ]
    return pin_vms(vms, machine.spec)


class TestMachine:
    def test_defaults_to_paper_socket(self):
        m = Machine()
        assert m.spec.name == "Xeon E5-2697 v4"
        assert m.num_ways == 20

    def test_one_pmu_per_thread(self):
        m = small_machine()
        assert len(m.pmus) == m.spec.num_threads

    def test_effective_ways_follows_cat(self):
        m = small_machine()
        m.cat.set_cos_mask(1, 0b111)
        m.cat.associate_core(0, 1)
        assert m.effective_ways(0) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Machine(cycles_per_interval=0)
        with pytest.raises(ValueError):
            Machine(interval_s=0.0)


class TestPinning:
    def test_dedicated_threads(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB), LookbusyWorkload())
        used = [t for vm in vms for t in vm.vcpus]
        assert len(used) == len(set(used)) == 4

    def test_too_many_vms_rejected(self):
        machine = small_machine()
        workloads = [LookbusyWorkload(name=f"lb{i}") for i in range(19)]
        with pytest.raises(ValueError, match="threads"):
            make_vms(machine, *workloads)

    def test_busy_vcpus_respects_parallelism(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB), LookbusyWorkload())
        assert len(vms[0].busy_vcpus) == 1  # single-threaded MLR
        assert len(vms[1].busy_vcpus) == 2  # lookbusy spins everything

    def test_baseline_validation(self):
        with pytest.raises(ValueError):
            VirtualMachine(name="x", workload=LookbusyWorkload(), baseline_ways=0)


class TestManagers:
    def test_static_manager_programs_baselines(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB), LookbusyWorkload())
        StaticCatManager().setup(machine, vms)
        assert mask_way_count(machine.cat.effective_mask(vms[0].vcpus[0])) == 3
        assert not machine.cat.masks_overlap(1, 2)

    def test_static_overflow_rejected(self):
        machine = small_machine()
        vms = make_vms(
            machine, MlrWorkload(4 * MB), LookbusyWorkload(), baseline=11
        )
        with pytest.raises(ValueError, match="exceeds"):
            StaticCatManager().setup(machine, vms)

    def test_shared_manager_resets_cat(self):
        machine = small_machine()
        machine.cat.set_cos_mask(1, 0b1)
        vms = make_vms(machine, MlrWorkload(4 * MB))
        SharedCacheManager().setup(machine, vms)
        assert machine.cat.cos_mask(1) == (1 << 20) - 1

    def test_dcat_manager_tracks_states(self):
        machine = small_machine()
        vms = make_vms(machine, LookbusyWorkload())
        manager = DCatManager()
        sim = CloudSimulation(machine, vms, manager)
        sim.run(3.0)
        assert manager.state_of("lookbusy") is WorkloadState.DONOR
        assert manager.state_of("nonexistent") is None


class TestSimulation:
    def test_records_one_per_interval(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB))
        sim = CloudSimulation(machine, vms, StaticCatManager())
        result = sim.run(5.0)
        assert len(result.timeline("mlr-4mb")) == 5

    def test_counter_identities_in_records(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB))
        result = CloudSimulation(machine, vms, StaticCatManager()).run(4.0)
        rec = result.timeline("mlr-4mb")[-1]
        assert rec.l1_refs == pytest.approx(rec.instructions * 0.25, rel=0.02)
        assert rec.llc_misses <= rec.llc_refs <= rec.l1_refs
        assert rec.ipc == pytest.approx(rec.instructions / rec.cycles)

    def test_static_hit_rate_matches_analytic(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB), baseline=4)
        result = CloudSimulation(machine, vms, StaticCatManager()).run(3.0)
        rec = result.timeline("mlr-4mb")[-1]
        from repro.cache.analytical import AccessPattern, Footprint

        expected = machine.analytic.hit_rate_fp(
            Footprint(AccessPattern.RANDOM, 4 * MB), 4
        )
        assert rec.llc_hit_rate == pytest.approx(expected)

    def test_shared_mode_reports_fractional_ways(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(16 * MB), MlrWorkload(8 * MB))
        result = CloudSimulation(machine, vms, SharedCacheManager()).run(4.0)
        ways = result.final("mlr-16mb", "ways")
        assert 0 < ways < 20
        assert ways != int(ways) or True  # fractional shares allowed

    def test_run_to_completion_interpolates(self):
        machine = small_machine()
        vms = make_vms(machine, spec_workload("namd", instructions=200_000))
        sim = CloudSimulation(machine, vms, StaticCatManager())
        result = sim.run_until_finished(["namd"], max_duration_s=60.0)
        finish = result.completion_time("namd", "namd")
        assert finish is not None
        assert finish != round(finish)  # sub-interval resolution

    def test_same_seed_reproducible(self):
        def run():
            machine = small_machine(seed=99)
            vms = make_vms(machine, MlrWorkload(8 * MB))
            return CloudSimulation(machine, vms, DCatManager()).run(6.0)

        a, b = run(), run()
        assert a.series("mlr-8mb", "ipc") == b.series("mlr-8mb", "ipc")
        assert a.series("mlr-8mb", "ways") == b.series("mlr-8mb", "ways")

    def test_duplicate_vm_names_rejected(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB))
        clone = VirtualMachine(
            name="mlr-4mb", workload=MlrWorkload(4 * MB), vcpus=(4, 5)
        )
        with pytest.raises(ValueError, match="unique"):
            CloudSimulation(machine, vms + [clone], StaticCatManager())

    def test_unpinned_vm_rejected(self):
        machine = small_machine()
        vm = VirtualMachine(name="x", workload=LookbusyWorkload())
        with pytest.raises(ValueError, match="vCPUs"):
            CloudSimulation(machine, [vm], StaticCatManager())

    def test_watch_unknown_vm_rejected(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB))
        sim = CloudSimulation(machine, vms, StaticCatManager())
        with pytest.raises(ValueError, match="unknown"):
            sim.run_until_finished(["ghost"])

    def test_result_helpers(self):
        machine = small_machine()
        vms = make_vms(machine, MlrWorkload(4 * MB))
        result = CloudSimulation(machine, vms, StaticCatManager()).run(6.0)
        assert result.mean("mlr-4mb", "ipc") > 0
        assert result.steady_mean("mlr-4mb", "ways", 3) == 3.0
        with pytest.raises(ValueError):
            result.mean("ghost", "ipc")


class TestRunDuration:
    """run() must neither create nor destroy virtual time (no round() drift)."""

    def make_sim(self, interval_s=0.5):
        machine = Machine(
            seed=7, cycles_per_interval=500_000, interval_s=interval_s
        )
        vms = make_vms(machine, LookbusyWorkload(name="busy"))
        return CloudSimulation(machine, vms, StaticCatManager())

    def steps(self, sim):
        return len(sim.result.timeline("busy"))

    def test_whole_multiples_unchanged(self):
        sim = self.make_sim(interval_s=0.5)
        sim.run(4.0)
        assert self.steps(sim) == 8

    def test_partial_interval_accumulates_instead_of_rounding(self):
        # The old int(round()) ran 1.25 s as 2 steps and dropped the
        # remainder; a following 0.25 s then rounded to 0 forever.
        sim = self.make_sim(interval_s=0.5)
        sim.run(1.25)
        assert self.steps(sim) == 2
        sim.run(0.25)  # banked 0.25 + 0.25 = one whole interval
        assert self.steps(sim) == 3

    def test_many_fractional_runs_conserve_time(self):
        sim = self.make_sim(interval_s=0.5)
        for _ in range(10):
            sim.run(0.3)  # 3.0 s total = 6 intervals
        assert self.steps(sim) == 6

    def test_negative_duration_rejected(self):
        sim = self.make_sim()
        with pytest.raises(ValueError, match=">= 0"):
            sim.run(-1.0)


INTERVALS = (0.001, 0.01, 0.1, 0.5, 1.0)


class TestWholeIntervals:
    """The one float-duration -> whole-intervals rule (sim, fleet, scenario)."""

    @settings(max_examples=500, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=200_000_000),
        interval_s=st.sampled_from(INTERVALS),
    )
    def test_whole_multiples_count_exactly(self, k, interval_s):
        assert whole_intervals(k * interval_s, interval_s) == (k, 0.0)

    @pytest.mark.parametrize(
        "duration_s,interval_s,k",
        [
            # An absolute 1e-9 on the step count ran one interval short here.
            (20_971_524 * 0.1, 0.1, 20_971_524),
            # The first such short count at 1 ms intervals.
            (32_768_005 * 0.001, 0.001, 32_768_005),
            # ... and an absolute 1e-9 refused this as a non-multiple.
            (1048576.2, 0.1, 10_485_762),
        ],
    )
    def test_long_horizon_counterexamples(self, duration_s, interval_s, k):
        assert whole_intervals(duration_s, interval_s) == (k, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=100_000_000),
        fraction=st.sampled_from((0.25, 0.5, 0.75)),
        interval_s=st.sampled_from(INTERVALS),
    )
    def test_partial_interval_rounds_down(self, k, fraction, interval_s):
        steps, remainder = whole_intervals((k + fraction) * interval_s, interval_s)
        assert steps == k
        assert remainder == pytest.approx(fraction * interval_s, rel=1e-3)
