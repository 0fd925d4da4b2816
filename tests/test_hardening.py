"""Tests for the controller's robustness layer (DCatConfig.hardened).

Each test wires a :class:`DCatController` to hand-driven PMUs through the
:mod:`repro.faults` proxies (or small flaky doubles) and checks that the
hardening recovers — bounded retries, stale-sample fallback, quarantine,
verify-after-write — and that rollbacks leave no half-managed state when
the write path keeps failing.
"""

import pytest

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cos import mask_way_count
from repro.cat.pqos import PqosError, PqosLibrary
from repro.core.config import DCatConfig
from repro.core.controller import QUARANTINE_AFTER, DCatController
from repro.core.states import WorkloadState
from repro.engine.events import EventBus, FaultRecovered
from repro.faults.injectors import (
    FaultyPerfMonitor,
    FaultyPqosLibrary,
    _ArmedCounterFault,
)
from repro.faults.plan import FaultKind
from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
)
from repro.hwcounters.msr import CorePmu, CounterReadError
from repro.hwcounters.perfmon import PerfMonitor

CYCLES = 1_000_000


class FlakyAssocPqos:
    """Delegates to a real PqosLibrary, raising on chosen assoc cores."""

    def __init__(self, inner):
        self._inner = inner
        self.fail_assoc_cores = set()

    def cap_get(self):
        return self._inner.cap_get()

    def l3ca_set(self, entries):
        self._inner.l3ca_set(entries)

    def l3ca_get(self):
        return self._inner.l3ca_get()

    def l3ca_masks(self):
        return self._inner.l3ca_masks()

    def alloc_assoc_set(self, core, cos_id):
        if core in self.fail_assoc_cores:
            raise PqosError(f"assoc write to core {core} failed")
        self._inner.alloc_assoc_set(core, cos_id)

    def alloc_assoc_get(self, core):
        return self._inner.alloc_assoc_get(core)

    def assoc_map(self):
        return self._inner.assoc_map()


class DroppingTablePqos:
    """Silently drops l3ca entries for chosen COS ids (write never lands)."""

    def __init__(self, inner):
        self._inner = inner
        self.drop_cos = set()
        self.drops_left = 0

    def cap_get(self):
        return self._inner.cap_get()

    def l3ca_set(self, entries):
        entries = list(entries)
        if self.drops_left > 0:
            kept = [e for e in entries if e.cos_id not in self.drop_cos]
            if len(kept) != len(entries):
                self.drops_left -= 1
                entries = kept
        self._inner.l3ca_set(entries)

    def l3ca_get(self):
        return self._inner.l3ca_get()

    def l3ca_masks(self):
        return self._inner.l3ca_masks()

    def alloc_assoc_set(self, core, cos_id):
        self._inner.alloc_assoc_set(core, cos_id)

    def alloc_assoc_get(self, core):
        return self._inner.alloc_assoc_get(core)

    def assoc_map(self):
        return self._inner.assoc_map()


class Rig:
    """A hardened controller on hand-driven PMUs with fault proxies."""

    def __init__(self, num_cores=8, num_ways=20, config=None, pqos_wrapper=None):
        self.cat = CacheAllocationTechnology(num_ways=num_ways, num_cores=num_cores)
        inner_pqos = PqosLibrary(self.cat, way_size_bytes=2359296)
        self.pqos = pqos_wrapper(inner_pqos) if pqos_wrapper else inner_pqos
        self.pmus = {c: CorePmu() for c in range(num_cores)}
        self.perfmon = FaultyPerfMonitor(PerfMonitor(self.pmus))
        self.bus = EventBus()
        self.recovered = []
        self.bus.subscribe(self.recovered.append, FaultRecovered)
        self.controller = DCatController(
            pqos=self.pqos,
            perfmon=self.perfmon,
            config=config or DCatConfig(),
            nominal_cycles_per_core=CYCLES,
            bus=self.bus,
        )

    def feed(self, core, miss_rate=0.5, ipc=0.5, busy=1.0):
        cycles = int(CYCLES * busy)
        instructions = int(cycles * ipc)
        l1_ref = int(instructions * 0.25)
        llc_ref = int(instructions * 0.1)
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

    def feed_all(self, cores, **kwargs):
        for core in cores:
            self.feed(core, **kwargs)

    def actions(self):
        return [e.action for e in self.recovered]

    def read_error(self, cores, budget):
        return _ArmedCounterFault(
            kind=FaultKind.COUNTER_READ_ERROR,
            cores=frozenset(cores),
            magnitude=1.0,
            budget=budget,
        )

    def saturated(self, cores):
        return _ArmedCounterFault(
            kind=FaultKind.SAMPLE_SATURATED,
            cores=frozenset(cores),
            magnitude=1.0,
            budget=1,
        )


def make_pair(**kwargs):
    rig = Rig(**kwargs)
    rig.controller.register_workload("a", [0, 1], baseline_ways=4)
    rig.controller.register_workload("b", [2, 3], baseline_ways=4)
    rig.controller.initialize()
    return rig


class TestSamplerHardening:
    def test_transient_read_error_retried(self):
        rig = make_pair()
        rig.feed_all([0, 1, 2, 3])
        rig.perfmon.arm([rig.read_error([0], budget=1)])
        rig.controller.step()
        assert "retry" in rig.actions()
        # the retried sample saw the real interval, not zeros
        assert rig.controller.records["a"].last_sample.cycles == 2 * CYCLES

    def test_persistent_read_error_falls_back_to_stale(self):
        rig = make_pair()
        rig.feed_all([0, 1, 2, 3])
        rig.controller.step()  # interval 1: clean, records last_sample
        rig.feed_all([0, 1, 2, 3])
        rig.perfmon.arm([rig.read_error([0], budget=10)])
        rig.controller.step()
        assert "stale_sample" in rig.actions()
        # the stale fallback replays the previous interval's sample
        assert rig.controller.records["a"].last_sample.cycles == 2 * CYCLES
        assert rig.controller.records["a"].erratic_streak == 1

    def test_implausible_sample_not_retried(self):
        rig = make_pair()
        rig.feed_all([0, 1, 2, 3])
        rig.perfmon.arm([rig.saturated([0, 1])])
        rig.controller.step()
        stale = [e for e in rig.recovered if e.action == "stale_sample"]
        assert [e.kind for e in stale] == ["implausible_sample"]
        assert stale[0].attempts == 1  # the deltas are gone; no retry

    def test_quarantine_engages_and_releases(self):
        rig = make_pair()
        for _ in range(QUARANTINE_AFTER):
            rig.feed_all([0, 1, 2, 3])
            rig.perfmon.arm([rig.read_error([0], budget=10)])
            rig.controller.step()
        assert rig.controller.records["a"].quarantined
        assert "quarantine" in rig.actions()
        assert rig.controller.state_of("a") is WorkloadState.RECLAIM
        assert rig.controller.ways_of("a") == 4  # parked at its baseline
        # the faulted reads never consumed the PMU deltas, so the first
        # clean read returns the accumulated burst and is rejected as
        # implausible; the one after that is clean and releases quarantine
        rig.perfmon.arm([])
        for _ in range(2):
            rig.feed_all([0, 1, 2, 3])
            rig.controller.step()
        assert not rig.controller.records["a"].quarantined
        assert rig.controller.records["a"].erratic_streak == 0
        assert "quarantine_release" in rig.actions()

    def test_unhardened_controller_propagates_read_errors(self):
        rig = make_pair(config=DCatConfig(hardened=False))
        rig.feed_all([0, 1, 2, 3])
        rig.perfmon.arm([rig.read_error([0], budget=1)])
        with pytest.raises(CounterReadError):
            rig.controller.step()


class TestWritePathHardening:
    def test_l3ca_retry_within_budget(self):
        rig = make_pair(pqos_wrapper=FaultyPqosLibrary)
        rig.feed_all([0, 1, 2, 3])
        rig.pqos.arm(l3ca_failures=1, assoc_drops=0)
        rig.controller.step()
        assert "retry" in rig.actions()

    def test_l3ca_failure_beyond_budget_raises(self):
        rig = make_pair(pqos_wrapper=FaultyPqosLibrary)
        rig.feed_all([0, 1, 2, 3])
        rig.pqos.arm(l3ca_failures=10, assoc_drops=0)
        with pytest.raises(PqosError):
            rig.controller.step()

    def test_verify_after_write_reprograms_dropped_entries(self):
        rig = Rig(pqos_wrapper=DroppingTablePqos)
        rig.controller.register_workload("a", [0, 1], baseline_ways=4)
        rig.controller.register_workload("b", [2, 3], baseline_ways=4)
        rig.pqos.drop_cos = {rig.controller.records["a"].cos_id}
        rig.pqos.drops_left = 1
        rig.controller.initialize()
        assert "reprogram" in rig.actions()
        cos_a = rig.controller.records["a"].cos_id
        assert mask_way_count(rig.cat.cos_mask(cos_a)) == 4

    def test_verify_after_write_checks_every_cos(self):
        """The read-back compares every wanted COS, not just the first."""
        rig = Rig(pqos_wrapper=DroppingTablePqos)
        for name, cores in (("a", [0, 1]), ("b", [2, 3]), ("c", [4, 5])):
            rig.controller.register_workload(name, cores, baseline_ways=4)
        rig.pqos.drop_cos = {rig.controller.records["c"].cos_id}
        rig.pqos.drops_left = 1
        rig.controller.initialize()
        assert "reprogram" in rig.actions()
        cos_c = rig.controller.records["c"].cos_id
        assert mask_way_count(rig.cat.cos_mask(cos_c)) == 4

    def test_dropped_assoc_write_rewritten(self):
        rig = Rig(pqos_wrapper=FaultyPqosLibrary)
        rig.pqos.arm(l3ca_failures=0, assoc_drops=1)
        rig.controller.register_workload("a", [0, 1], baseline_ways=4)
        assert "assoc_rewrite" in rig.actions()
        cos_a = rig.controller.records["a"].cos_id
        assert rig.cat.core_cos(0) == cos_a
        assert rig.cat.core_cos(1) == cos_a


class TestRollbacks:
    def test_register_rolls_back_on_assoc_failure(self):
        rig = Rig(pqos_wrapper=FlakyAssocPqos)
        rig.pqos.fail_assoc_cores = {1}
        with pytest.raises(PqosError):
            rig.controller.register_workload("a", [0, 1], baseline_ways=4)
        assert "a" not in rig.controller.records
        assert rig.cat.core_cos(0) == 0  # the first core was rolled back
        # the COS went back to the pool: the next registration reuses it
        rig.pqos.fail_assoc_cores = set()
        rec = rig.controller.register_workload("b", [2, 3], baseline_ways=4)
        assert rec.cos_id == 1

    def test_admit_rolls_back_on_persistent_write_failure(self):
        rig = make_pair(pqos_wrapper=FaultyPqosLibrary)
        before_masks = {
            wid: rig.controller.mask_of(wid) for wid in rig.controller.records
        }
        rig.pqos.arm(l3ca_failures=10, assoc_drops=0)
        with pytest.raises(PqosError):
            rig.controller.admit_workload("late", [4, 5], baseline_ways=4)
        rig.pqos.arm(l3ca_failures=0, assoc_drops=0)
        assert "late" not in rig.controller.records
        assert rig.cat.core_cos(4) == 0 and rig.cat.core_cos(5) == 0
        assert {
            wid: rig.controller.mask_of(wid) for wid in rig.controller.records
        } == before_masks
        # nothing leaked: the same admission succeeds once writes heal
        rec = rig.controller.admit_workload("late", [4, 5], baseline_ways=4)
        assert rec.ways == 4

    def test_admit_rollback_when_reservation_does_not_fit(self):
        rig = make_pair()
        with pytest.raises(ValueError, match="cannot admit"):
            rig.controller.admit_workload("huge", [4, 5], baseline_ways=16)
        assert "huge" not in rig.controller.records

    def test_deregister_completes_despite_persistent_write_failure(self):
        rig = make_pair(pqos_wrapper=FaultyPqosLibrary)
        cos_a = rig.controller.records["a"].cos_id
        rig.pqos.arm(l3ca_failures=10, assoc_drops=0)
        rig.controller.deregister_workload("a")  # must not raise
        rig.pqos.arm(l3ca_failures=0, assoc_drops=0)
        assert "a" not in rig.controller.records
        assert "deferred_reset" in rig.actions()
        assert rig.cat.core_cos(0) == 0  # cores fell back to the default
        # the freed COS is reusable; its stale mask is reprogrammed by the
        # next plan application before the newcomer runs on it
        rec = rig.controller.admit_workload("c", [0, 1], baseline_ways=4)
        assert rec.cos_id == cos_a
        assert mask_way_count(rig.cat.cos_mask(cos_a)) == 4

    def test_unhardened_deregister_propagates(self):
        rig = make_pair(
            config=DCatConfig(hardened=False), pqos_wrapper=FaultyPqosLibrary
        )
        rig.pqos.arm(l3ca_failures=10, assoc_drops=0)
        with pytest.raises(PqosError):
            rig.controller.deregister_workload("a")


class TestRecordsView:
    def test_records_is_read_only(self):
        rig = make_pair()
        with pytest.raises(TypeError):
            rig.controller.records["ghost"] = None
        with pytest.raises(TypeError):
            del rig.controller.records["a"]
        assert set(rig.controller.records) == {"a", "b"}
