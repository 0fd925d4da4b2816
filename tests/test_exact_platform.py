"""End-to-end validation: the exact tag-array platform vs the fast model.

The reproduction's credibility rests on the fast analytical mode agreeing
with a real cache.  These tests run the *entire* stack — controller
included — in both modes and require matching trajectories.
"""

import pytest

from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, SharedCacheManager, StaticCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.substrate import ExactSubstrate
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mload import MloadWorkload
from repro.workloads.mlr import MlrWorkload


def stage(machine, target):
    vms = [VirtualMachine("target", target, baseline_ways=1)]
    vms += [
        VirtualMachine(f"lb{i}", LookbusyWorkload(name=f"lb{i}"), baseline_ways=1)
        for i in range(3)
    ]
    return pin_vms(vms, machine.spec)


def run_mode(exact, manager_factory, target_factory, duration=18.0, seed=5):
    machine = Machine(seed=seed)
    vms = stage(machine, target_factory())
    substrate = ExactSubstrate(accesses_per_interval=120_000) if exact else None
    sim = CloudSimulation(machine, vms, manager_factory(), substrate=substrate)
    return sim.run(duration)


class TestDcatTrajectoriesAgree:
    def test_mlr_growth_identical(self):
        def target():
            return MlrWorkload(2 * MB, start_delay_s=2.0, name="target")

        exact = run_mode(True, DCatManager, target)
        fast = run_mode(False, DCatManager, target)
        assert exact.series("target", "ways") == fast.series("target", "ways")

    def test_hit_rates_close(self):
        def target():
            return MlrWorkload(2 * MB, start_delay_s=2.0, name="target")

        exact = run_mode(True, DCatManager, target)
        fast = run_mode(False, DCatManager, target)
        e = exact.steady_mean("target", "llc_hit_rate", 5)
        f = fast.steady_mean("target", "llc_hit_rate", 5)
        assert e == pytest.approx(f, abs=0.03)


class TestStaticModeAgrees:
    def test_static_partition_hit_rate(self):
        def target():
            return MlrWorkload(2 * MB, name="target")

        exact = run_mode(True, StaticCatManager, target, duration=10.0)
        fast = run_mode(False, StaticCatManager, target, duration=10.0)
        # 2 MB in a single 2.25 MB way: conflict misses keep both below 1.
        e = exact.steady_mean("target", "llc_hit_rate", 4)
        f = fast.steady_mean("target", "llc_hit_rate", 4)
        assert e == pytest.approx(f, abs=0.05)
        assert e < 0.97


class TestSharedModeContention:
    def test_streaming_crowds_victim_on_real_cache(self):
        """The insertion-pressure phenomenon, reproduced on the tag array."""

        def build(with_noise):
            machine = Machine(seed=5)
            vms = [
                VirtualMachine(
                    "victim", MlrWorkload(8 * MB, name="victim"), baseline_ways=1
                )
            ]
            if with_noise:
                vms.append(
                    VirtualMachine(
                        "noise",
                        MloadWorkload(60 * MB, name="noise"),
                        baseline_ways=1,
                    )
                )
            pin_vms(vms, machine.spec)
            sim = CloudSimulation(
                machine,
                vms,
                SharedCacheManager(),
                substrate=ExactSubstrate(accesses_per_interval=150_000),
            )
            return sim.run(12.0)

        solo = build(False).steady_mean("victim", "llc_hit_rate", 4)
        crowded = build(True).steady_mean("victim", "llc_hit_rate", 4)
        assert crowded < solo - 0.1

    def test_occupancy_reported_in_shared_mode(self):
        machine = Machine(seed=5)
        vms = pin_vms(
            [VirtualMachine("v", MlrWorkload(4 * MB, name="v"), baseline_ways=1)],
            machine.spec,
        )
        sim = CloudSimulation(
            machine,
            vms,
            SharedCacheManager(),
            substrate=ExactSubstrate(accesses_per_interval=100_000),
        )
        res = sim.run(8.0)
        # Reported "ways" are occupancy-equivalents and grow as it warms.
        ways = res.series("v", "ways")
        assert ways[-1] > ways[1]
        assert 0 < ways[-1] <= 20.0


class TestExactValidation:
    def test_access_budget_validation(self):
        machine = Machine(seed=1)
        vms = pin_vms(
            [VirtualMachine("v", LookbusyWorkload(name="v"), baseline_ways=1)],
            machine.spec,
        )
        with pytest.raises(ValueError):
            CloudSimulation(
                machine,
                vms,
                StaticCatManager(),
                substrate=ExactSubstrate(accesses_per_interval=0),
            )

    def test_idle_vms_drive_no_accesses(self):
        machine = Machine(seed=1)
        vms = pin_vms(
            [VirtualMachine("v", LookbusyWorkload(name="v"), baseline_ways=1)],
            machine.spec,
        )
        sim = CloudSimulation(
            machine, vms, StaticCatManager(), substrate=ExactSubstrate()
        )
        res = sim.run(3.0)
        assert sim.substrate.llc.stats.accesses == 0
        assert all(r.llc_hit_rate == 0.0 for r in res.timeline("v"))
