"""Tests for CMT/MBM monitoring, including the paper's footnote claim."""

import pytest

from repro.cat.cmt import CacheMonitoringTechnology
from repro.mem.address import MB
from repro.platform.machine import Machine
from repro.platform.managers import DCatManager, StaticCatManager
from repro.platform.sim import CloudSimulation
from repro.platform.vm import VirtualMachine, pin_vms
from repro.workloads.lookbusy import LookbusyWorkload
from repro.workloads.mload import MloadWorkload
from repro.workloads.mlr import MlrWorkload


class TestCmtDevice:
    def make(self):
        return CacheMonitoringTechnology(num_rmids=8, num_cores=4, upscale_bytes=1024)

    def test_default_rmid_zero(self):
        assert self.make().rmid_of(3) == 0

    def test_association(self):
        cmt = self.make()
        cmt.assoc_rmid(1, 5)
        assert cmt.rmid_of(1) == 5

    def test_bounds(self):
        cmt = self.make()
        with pytest.raises(ValueError):
            cmt.assoc_rmid(0, 8)
        with pytest.raises(ValueError):
            cmt.assoc_rmid(9, 0)
        with pytest.raises(ValueError):
            cmt.read(8)

    def test_occupancy_quantized_by_upscale(self):
        cmt = self.make()
        cmt.report_occupancy(2, 2500)
        assert cmt.read(2).occupancy_bytes == 2048  # 2 upscale units

    def test_traffic_accumulates(self):
        cmt = self.make()
        cmt.report_traffic(1, 1000)
        cmt.report_traffic(1, 500, local_bytes=400)
        reading = cmt.read(1)
        assert reading.total_bandwidth_bytes == 1500
        assert reading.local_bandwidth_bytes == 1400

    def test_read_core_follows_association(self):
        cmt = self.make()
        cmt.assoc_rmid(2, 3)
        cmt.report_occupancy(3, 4096)
        assert cmt.read(cmt.rmid_of(2)).occupancy_bytes == 4096

    def test_validation(self):
        cmt = self.make()
        with pytest.raises(ValueError):
            cmt.report_occupancy(1, -1)
        with pytest.raises(ValueError):
            cmt.report_traffic(1, -1)
        with pytest.raises(ValueError):
            CacheMonitoringTechnology(num_rmids=0)


class TestPlatformIntegration:
    def run_pair(self):
        machine = Machine(seed=11, cycles_per_interval=500_000)
        vms = pin_vms(
            [
                VirtualMachine(
                    "mlr", MlrWorkload(8 * MB, name="mlr"), baseline_ways=4
                ),
                VirtualMachine(
                    "mload", MloadWorkload(60 * MB, name="mload"), baseline_ways=4
                ),
                VirtualMachine(
                    "idle", LookbusyWorkload(name="idle"), baseline_ways=4
                ),
            ],
            machine.spec,
        )
        sim = CloudSimulation(machine, vms, StaticCatManager())
        sim.run(6.0)
        return machine

    def test_occupancy_tracks_allocation(self):
        machine = self.run_pair()
        # MLR (8 MB WSS, 9 MB partition): occupancy ~ its working set.
        mlr = machine.cmt.read(1)
        assert mlr.occupancy_bytes == pytest.approx(8 * MB, rel=0.1)
        # lookbusy: no cache footprint at all.
        idle = machine.cmt.read(3)
        assert idle.occupancy_bytes == 0

    def test_mbm_separates_streaming_from_quiet(self):
        machine = self.run_pair()
        assert (
            machine.cmt.read(2).total_bandwidth_bytes
            > 10 * machine.cmt.read(1).total_bandwidth_bytes
        )

    def test_footnote_cmt_cannot_substitute_dcat(self):
        """Paper footnote: occupancy cannot reveal cache *benefit*.

        MLOAD (streaming, gains nothing from cache) and MLR (cache-loving)
        both fill whatever partition they are given — their CMT occupancy
        readings are indistinguishable, while their IPC response to cache
        differs completely.  That asymmetry is exactly why dCat reads IPC
        and miss rates instead of occupancy.
        """
        machine = Machine(seed=11, cycles_per_interval=500_000)
        vms = pin_vms(
            [
                VirtualMachine(
                    "mlr", MlrWorkload(20 * MB, name="mlr"), baseline_ways=4
                ),
                VirtualMachine(
                    "mload", MloadWorkload(60 * MB, name="mload"), baseline_ways=4
                ),
            ],
            machine.spec,
        )
        sim = CloudSimulation(machine, vms, StaticCatManager())
        result = sim.run(6.0)

        occ_mlr = machine.cmt.read(1).occupancy_bytes
        occ_mload = machine.cmt.read(2).occupancy_bytes
        # Occupancy: both pinned at their 9 MB partitions — identical.
        assert occ_mlr == pytest.approx(occ_mload, rel=0.05)
        # Benefit: completely different (established by the dCat run below).
        # The lead-in lets the platform (DRAM load feedback) settle before
        # the baseline IPC is measured, as in every paper scenario.
        dcat_machine = Machine(seed=11, cycles_per_interval=500_000)
        dcat_vms = pin_vms(
            [
                VirtualMachine(
                    "mlr",
                    MlrWorkload(20 * MB, start_delay_s=2.0, name="mlr"),
                    baseline_ways=4,
                ),
                VirtualMachine(
                    "mload",
                    MloadWorkload(60 * MB, start_delay_s=2.0, name="mload"),
                    baseline_ways=4,
                ),
            ],
            dcat_machine.spec,
        )
        dcat_result = CloudSimulation(dcat_machine, dcat_vms, DCatManager()).run(25.0)
        mlr_gain = dcat_result.steady_mean("mlr", "ipc", 4) / result.steady_mean(
            "mlr", "ipc", 4
        )
        mload_gain = dcat_result.steady_mean("mload", "ipc", 4) / result.steady_mean(
            "mload", "ipc", 4
        )
        assert mlr_gain > 1.2
        assert mload_gain == pytest.approx(1.0, abs=0.05)
