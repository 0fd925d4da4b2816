"""Tests for repro.platform: machine wiring, VM pinning, managers, and sim."""

import gc
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cat.cos import mask_way_count
from repro.core.states import WorkloadState
from repro.cpu.coremodel import NOISE_BLOCK, CoreTimingModel
from repro.cpu.socket import SocketSpec
from repro.hwcounters.events import L1_CACHE_HITS, L1_CACHE_MISSES, LLC_MISSES, LLC_REFERENCES
from repro.hwcounters.msr import IA32_PERFEVTSEL0, CorePmu, MsrFile
from repro.hwcounters.perfmon import CounterSample
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


def eager_core_noise(spec, seed, sigma, draws):
    """Each core's noise factors as hosts once drew them: one scalar seed
    draw per core from the master stream, every generator built at once,
    one scalar normal per factor."""
    master = np.random.default_rng(seed)
    rngs = [
        np.random.default_rng(master.integers(0, 2**63))
        for _ in range(spec.num_threads)
    ]
    return [
        [float(np.exp(rng.normal(0.0, sigma))) for _ in range(draws)]
        for rng in rngs
    ]


def live_generators():
    gc.collect()
    return sum(isinstance(o, np.random.Generator) for o in gc.get_objects())


class TestLazyCores:
    """A host seeds every core at construction and builds each core's
    generator on its first draw; neither changes a noise factor."""

    @pytest.mark.parametrize(
        "spec", [SocketSpec.xeon_e5_2697v4(), SocketSpec.xeon_d()],
        ids=["e5_2697v4", "xeon_d"],
    )
    @pytest.mark.parametrize("seed", [0, 7, 1234, 2**40 + 3])
    def test_core_streams_equal_eager_per_core_seeding(self, spec, seed):
        draws = NOISE_BLOCK + 3  # crosses a block refill
        machine = Machine(spec, seed=seed, noise_sigma=0.005)
        # Draw the last core first: a stream must not depend on build order.
        got = {
            t: [machine.core_models[t].next_noise() for _ in range(draws)]
            for t in reversed(range(spec.num_threads))
        }
        want = eager_core_noise(spec, seed, 0.005, draws)
        assert [got[t] for t in range(spec.num_threads)] == want

    def test_building_a_host_builds_no_generator(self):
        before = live_generators()
        machine = Machine(SocketSpec.xeon_d(), seed=3)
        assert live_generators() == before
        machine.core_models[5].next_noise()
        assert live_generators() == before + 1
        for _ in range(2 * NOISE_BLOCK):
            machine.core_models[5].next_noise()
        assert live_generators() == before + 1  # refills reuse it

    def test_noise_free_core_never_builds_one(self):
        machine = Machine(SocketSpec.xeon_d(), seed=3, noise_sigma=0.0)
        before = live_generators()
        assert [machine.core_models[0].next_noise() for _ in range(40)] == [1.0] * 40
        assert live_generators() == before


def live_core_state():
    """``(MsrFile, CorePmu, CoreTimingModel)`` objects alive right now."""
    gc.collect()
    kinds = (MsrFile, CorePmu, CoreTimingModel)
    counts = [0, 0, 0]
    for obj in gc.get_objects():
        for i, kind in enumerate(kinds):
            if type(obj) is kind:
                counts[i] += 1
    return tuple(counts)


def eager_machine(spec, seed):
    """A host with every core built up front, as hosts once were."""
    machine = Machine(spec, seed=seed, cycles_per_interval=500_000)
    machine.build_cores(range(spec.num_threads))
    return machine


SOCKETS = pytest.mark.parametrize(
    "spec", [SocketSpec.xeon_e5_2697v4(), SocketSpec.xeon_d()],
    ids=["e5_2697v4", "xeon_d"],
)


class TestPinTimeCores:
    """A core's PMU, register file and timing model are built when a vCPU
    is first pinned to it, and a late core behaves like an eager one."""

    def test_idle_host_builds_no_core_until_a_vm_attaches(self):
        before = live_core_state()
        machine = Machine(SocketSpec.xeon_d(), seed=3)
        sim = CloudSimulation(machine, [], DCatManager())
        assert live_core_state() == before
        vm = VirtualMachine(name="a", workload=LookbusyWorkload(), vcpus=(4, 9))
        sim.attach_vm(vm)
        assert live_core_state() == tuple(n + 2 for n in before)
        assert sorted(machine.pmus.built) == sorted(machine.core_models.built) == [4, 9]

    def test_maps_cover_every_core_in_order(self):
        machine = Machine(SocketSpec.xeon_d(), seed=3)
        n = machine.spec.num_threads
        for cores in (machine.pmus, machine.core_models):
            assert len(cores) == n and list(cores) == list(range(n))
            assert 0 in cores and n - 1 in cores
            assert n not in cores and -1 not in cores
        with pytest.raises(KeyError):
            machine.pmus[n]
        with pytest.raises(KeyError):
            machine.build_cores([-1])
        assert not machine.pmus.built
        assert machine.core_models[5] is machine.core_models.built[5]  # lookup builds
        assert list(machine.pmus.built) == [5]

    def test_monitor_programs_a_core_built_after_it(self):
        spec = SocketSpec.xeon_d()
        lazy, eager = Machine(spec, seed=3), eager_machine(spec, 3)
        monitor, reference = lazy.new_perfmon(), eager.new_perfmon()
        assert monitor.cores == reference.cores == list(range(spec.num_threads))
        lazy.build_cores([7])
        selectors = {lazy.pmus[7].msrs.rdmsr(IA32_PERFEVTSEL0 + i) for i in range(4)}
        assert selectors == {e.evtsel_value for e in (
            LLC_MISSES, LLC_REFERENCES, L1_CACHE_MISSES, L1_CACHE_HITS)}
        assert dict(lazy.pmus[7].msrs.registers) == dict(eager.pmus[7].msrs.registers)
        assert monitor.sample_core(7) == reference.sample_core(7) == CounterSample()

    @SOCKETS
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_churn_matches_an_eager_host(self, spec, seed):
        rnd = random.Random(seed)
        hosts = []
        for machine in (Machine(spec, seed=seed, cycles_per_interval=500_000),
                        eager_machine(spec, seed)):
            sim = CloudSimulation(machine, [], DCatManager())
            hosts.append((machine, sim, machine.new_perfmon()))
        resident = {}
        for i in range(60):
            op = rnd.choice(("attach", "attach", "step", "step", "sample", "detach"))
            free = sorted(set(range(spec.num_threads)) - {
                c for cores in resident.values() for c in cores})
            if op == "attach" and len(free) >= 2 and len(resident) < 6:
                cores = tuple(rnd.sample(free, rnd.choice((1, 2))))
                name = f"vm{i}"
                resident[name] = cores
                wss_mb = rnd.choice((0, 2, 8, 24))
                for _, sim, _ in hosts:
                    workload = (MlrWorkload(wss_mb * MB, name=name) if wss_mb
                                else LookbusyWorkload(name=name))
                    sim.attach_vm(VirtualMachine(name=name, workload=workload,
                                                 baseline_ways=2, vcpus=cores))
            elif op == "step":
                for _, sim, _ in hosts:
                    sim.step()
            elif op == "sample" and resident:
                cores = resident[rnd.choice(sorted(resident))]
                lazy_sample, eager_sample = (mon.sample_cores(cores) for _, _, mon in hosts)
                assert lazy_sample == eager_sample
            elif op == "detach" and resident:
                name = rnd.choice(sorted(resident))
                del resident[name]
                for _, sim, _ in hosts:
                    sim.detach_vm(name)
        (lazy, lazy_sim, lazy_mon), (eager, eager_sim, eager_mon) = hosts
        assert lazy_sim.result.records == eager_sim.result.records
        for core in range(spec.num_threads):
            assert lazy_mon.sample_core(core) == eager_mon.sample_core(core)
            assert dict(lazy.pmus[core].msrs.registers) == dict(
                eager.pmus[core].msrs.registers)
            assert [lazy.core_models[core].next_noise() for _ in range(NOISE_BLOCK + 1)] == [
                eager.core_models[core].next_noise() for _ in range(NOISE_BLOCK + 1)]

    @pytest.mark.parametrize("intervals", [0, 1, 5])
    def test_core_first_pinned_late_samples_like_an_eager_one(self, intervals):
        spec = SocketSpec.xeon_d()
        samples, records = [], []
        for machine in (Machine(spec, seed=5, cycles_per_interval=500_000),
                        eager_machine(spec, 5)):
            monitor = machine.new_perfmon()
            first = VirtualMachine(name="first", workload=LookbusyWorkload(),
                                   vcpus=(0, 1))
            sim = CloudSimulation(machine, [first], SharedCacheManager())
            sim.run(float(intervals))
            late = VirtualMachine(name="late", workload=MlrWorkload(8 * MB),
                                  vcpus=(6, 11))
            sim.attach_vm(late)
            sim.step()
            samples.append(monitor.sample_cores(late.vcpus))
            records.append(sim.result.timeline("late")[0])
        assert samples[0] == samples[1]
        assert records[0] == records[1]
        assert (samples[0].ret_ins, samples[0].cycles) == (
            records[0].instructions, records[0].cycles)


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
