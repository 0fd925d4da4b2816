"""Tests for repro.core.controller: the five-step loop on a synthetic PMU.

These drive the controller directly against hand-fed PMUs (no platform
simulator), so each behaviour is pinned to exact counter inputs.
"""

import pytest

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cos import is_contiguous, mask_way_count
from repro.cat.pqos import PqosLibrary
from repro.core.config import DCatConfig
from repro.core.controller import DCatController
from repro.core.states import WorkloadState
from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
)
from repro.hwcounters.msr import CorePmu
from repro.hwcounters.perfmon import PerfMonitor

CYCLES = 1_000_000


class Rig:
    """A controller wired to hand-driven PMUs over a 20-way CAT."""

    def __init__(self, num_cores=8, num_ways=20, config=None):
        self.cat = CacheAllocationTechnology(num_ways=num_ways, num_cores=num_cores)
        self.pqos = PqosLibrary(self.cat, way_size_bytes=2359296)
        self.pmus = {c: CorePmu() for c in range(num_cores)}
        self.flushes = []
        self.controller = DCatController(
            pqos=self.pqos,
            perfmon=PerfMonitor(self.pmus),
            config=config or DCatConfig(),
            nominal_cycles_per_core=CYCLES,
            flush_callback=self.flushes.append,
        )

    def feed(self, core, refs_per_instr=0.25, llc_refs_per_instr=0.1,
             miss_rate=0.5, ipc=0.5, busy=1.0):
        """Push one interval of synthetic activity into a core's PMU."""
        cycles = int(CYCLES * busy)
        instructions = int(cycles * ipc)
        l1_ref = int(instructions * refs_per_instr)
        llc_ref = int(instructions * llc_refs_per_instr)
        llc_miss = int(llc_ref * miss_rate)
        self.pmus[core].advance(
            instructions,
            cycles,
            {
                L1_CACHE_HITS: l1_ref - llc_ref,
                L1_CACHE_MISSES: llc_ref,
                LLC_REFERENCES: llc_ref,
                LLC_MISSES: llc_miss,
            },
        )

    def feed_idle(self, core):
        self.pmus[core].advance(100, 1000, {})


class TestRegistration:
    def test_assigns_sequential_cos(self):
        rig = Rig()
        a = rig.controller.register_workload("a", [0, 1], baseline_ways=3)
        b = rig.controller.register_workload("b", [2, 3], baseline_ways=3)
        assert (a.cos_id, b.cos_id) == (1, 2)
        assert rig.cat.core_cos(0) == 1
        assert rig.cat.core_cos(3) == 2

    def test_duplicate_rejected(self):
        rig = Rig()
        rig.controller.register_workload("a", [0], baseline_ways=3)
        with pytest.raises(ValueError, match="already registered"):
            rig.controller.register_workload("a", [1], baseline_ways=3)

    def test_cos_exhaustion(self):
        rig = Rig(num_cores=16, num_ways=20)
        for i in range(15):
            rig.controller.register_workload(f"w{i}", [i], baseline_ways=1)
        with pytest.raises(ValueError, match="cannot isolate"):
            rig.controller.register_workload("overflow", [15], baseline_ways=1)

    def test_initialize_programs_baselines(self):
        rig = Rig()
        rig.controller.register_workload("a", [0, 1], baseline_ways=5)
        rig.controller.register_workload("b", [2, 3], baseline_ways=7)
        rig.controller.initialize()
        assert mask_way_count(rig.cat.effective_mask(0)) == 5
        assert mask_way_count(rig.cat.effective_mask(2)) == 7
        assert not rig.cat.masks_overlap(1, 2)


class TestControlDynamics:
    def make_pair(self, config=None):
        rig = Rig(config=config)
        rig.controller.register_workload("hungry", [0, 1], baseline_ways=3)
        rig.controller.register_workload("quiet", [2, 3], baseline_ways=3)
        rig.controller.initialize()
        return rig

    def test_idle_workload_demoted_to_donor(self):
        rig = self.make_pair()
        for _ in range(2):
            rig.feed(0, miss_rate=0.5)
            rig.feed(1, miss_rate=0.5)
            rig.feed_idle(2)
            rig.feed_idle(3)
            rig.controller.step()
        assert rig.controller.state_of("quiet") is WorkloadState.DONOR
        assert rig.controller.ways_of("quiet") == 1

    def test_starved_workload_grows(self):
        rig = self.make_pair()
        ways_seen = []
        for _ in range(5):
            for core in (0, 1):
                rig.feed(core, miss_rate=0.5, ipc=0.2 + 0.1 * len(ways_seen))
            rig.feed_idle(2)
            rig.feed_idle(3)
            rig.controller.step()
            ways_seen.append(rig.controller.ways_of("hungry"))
        assert ways_seen[-1] > 3

    def test_masks_always_contiguous_and_disjoint(self):
        rig = self.make_pair()
        for step in range(8):
            for core in (0, 1):
                rig.feed(core, miss_rate=0.4, ipc=0.2 + 0.05 * step)
            rig.feed_idle(2)
            rig.feed_idle(3)
            rig.controller.step()
            m1 = rig.cat.cos_mask(1)
            m2 = rig.cat.cos_mask(2)
            assert is_contiguous(m1) and is_contiguous(m2)
            assert m1 & m2 == 0

    def test_phase_change_triggers_reclaim_to_baseline(self):
        rig = self.make_pair()
        # Grow the hungry workload beyond baseline first.
        for step in range(4):
            for core in (0, 1):
                rig.feed(core, refs_per_instr=0.25, miss_rate=0.5,
                         ipc=0.2 + 0.1 * step)
            rig.feed_idle(2)
            rig.feed_idle(3)
            rig.controller.step()
        assert rig.controller.ways_of("hungry") > 3
        # New phase: very different refs/instr.
        for core in (0, 1):
            rig.feed(core, refs_per_instr=0.6, miss_rate=0.5, ipc=0.2)
        rig.feed_idle(2)
        rig.feed_idle(3)
        result = rig.controller.step()
        assert result.statuses["hungry"].phase_changed
        assert rig.controller.ways_of("hungry") == 3  # back to baseline

    def test_flush_callback_on_moves(self):
        rig = self.make_pair()
        for step in range(4):
            for core in (0, 1):
                rig.feed(core, miss_rate=0.5, ipc=0.2 + 0.1 * step)
            rig.feed_idle(2)
            rig.feed_idle(3)
            rig.controller.step()
        # The donor shrank and the grower grew: some span moved and flushed.
        assert rig.flushes

    def test_statuses_expose_counters(self):
        rig = self.make_pair()
        rig.feed(0, ipc=0.5)
        rig.feed(1, ipc=0.5)
        rig.feed_idle(2)
        rig.feed_idle(3)
        result = rig.controller.step()
        status = result.statuses["hungry"]
        assert status.ipc == pytest.approx(0.5, rel=0.05)
        assert rig.controller.records["hungry"].last_sample.cycles == 2 * CYCLES

    def test_history_accumulates(self):
        rig = self.make_pair()
        for _ in range(3):
            for core in range(4):
                rig.feed_idle(core)
            rig.controller.step()
        assert len(rig.controller.history) == 3
        assert rig.controller.history[-1].time_s == pytest.approx(2.0)


class TestPerformanceTableReuse:
    def test_reencountered_phase_jumps_to_preferred(self):
        rig = Rig()
        rig.controller.register_workload("w", [0], baseline_ways=3)
        rig.controller.register_workload("bg", [1], baseline_ways=3)
        rig.controller.initialize()

        def run_phase(intervals, ipc_for_ways):
            for _ in range(intervals):
                ways = rig.controller.ways_of("w")
                rig.feed(0, refs_per_instr=0.25, miss_rate=0.4,
                         ipc=ipc_for_ways(ways))
                rig.feed_idle(1)
                rig.controller.step()

        # First run: IPC rises with ways, saturating at 6.
        run_phase(8, lambda w: 0.2 + 0.08 * min(w, 6))
        learned = rig.controller.ways_of("w")
        assert learned > 3
        # Idle gap.
        for _ in range(3):
            rig.feed_idle(0)
            rig.feed_idle(1)
            rig.controller.step()
        assert rig.controller.ways_of("w") == 1
        # Restart the same phase: one step back to work...
        rig.feed(0, refs_per_instr=0.25, miss_rate=0.4, ipc=0.2)
        rig.feed_idle(1)
        rig.controller.step()
        # ...jumps straight to (near) the learned allocation, not baseline+1.
        assert rig.controller.ways_of("w") >= learned - 1

    def test_reuse_disabled_reclaims_to_baseline(self):
        config = DCatConfig(use_performance_table=False)
        rig = Rig(config=config)
        rig.controller.register_workload("w", [0], baseline_ways=3)
        rig.controller.initialize()
        for step in range(8):
            rig.feed(0, miss_rate=0.4, ipc=0.2 + 0.08 * step)
            rig.controller.step()
        for _ in range(3):
            rig.feed_idle(0)
            rig.controller.step()
        rig.feed(0, miss_rate=0.4, ipc=0.2)
        rig.controller.step()
        assert rig.controller.ways_of("w") == 3


class TestDeregistration:
    def test_deregister_releases_cores_and_mask(self):
        rig = Rig()
        rig.controller.register_workload("a", [0, 1], baseline_ways=3)
        rig.controller.register_workload("b", [2, 3], baseline_ways=3)
        rig.controller.initialize()
        rig.controller.deregister_workload("a")
        assert "a" not in rig.controller.records
        # Cores fall back to the unmanaged default class.
        assert rig.cat.core_cos(0) == 0
        assert rig.cat.core_cos(1) == 0
        # The released COS mask returns to the power-on full-cache default.
        assert rig.cat.cos_mask(1) == (1 << 20) - 1
        with pytest.raises(KeyError):
            rig.controller.mask_of("a")

    def test_unknown_workload_rejected(self):
        rig = Rig()
        with pytest.raises(ValueError, match="not registered"):
            rig.controller.deregister_workload("ghost")

    def test_cos_id_reused_not_collided(self):
        """Churn must never hand two live workloads the same COS."""
        rig = Rig()
        a = rig.controller.register_workload("a", [0], baseline_ways=3)
        b = rig.controller.register_workload("b", [1], baseline_ways=3)
        rig.controller.deregister_workload("a")
        # Under the old len()+1 scheme this would collide with b's COS 2.
        c = rig.controller.register_workload("c", [2], baseline_ways=3)
        d = rig.controller.register_workload("d", [3], baseline_ways=3)
        assert c.cos_id == a.cos_id  # lowest freed id is recycled
        live = [b.cos_id, c.cos_id, d.cos_id]
        assert len(set(live)) == len(live)

    def test_controller_runs_on_after_deregistration(self):
        rig = Rig()
        rig.controller.register_workload("a", [0, 1], baseline_ways=3)
        rig.controller.register_workload("b", [2, 3], baseline_ways=3)
        rig.controller.initialize()
        for _ in range(2):
            for core in range(4):
                rig.feed(core)
            rig.controller.step()
        rig.controller.deregister_workload("a")
        for _ in range(2):
            rig.feed(2)
            rig.feed(3)
            result = rig.controller.step()
        assert set(result.statuses) == {"b"}
        assert mask_way_count(rig.controller.mask_of("b")) >= 3

    def test_full_churn_cycle_reaches_cos_limit_again(self):
        rig = Rig(num_cores=16, num_ways=20)
        for i in range(15):
            rig.controller.register_workload(f"w{i}", [i], baseline_ways=1)
        for i in range(15):
            rig.controller.deregister_workload(f"w{i}")
        for i in range(15):
            rig.controller.register_workload(f"r{i}", [i], baseline_ways=1)
        with pytest.raises(ValueError, match="cannot isolate"):
            rig.controller.register_workload("overflow", [15], baseline_ways=1)
