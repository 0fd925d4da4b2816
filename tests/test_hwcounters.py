"""Tests for repro.hwcounters: events, MSR file, PMU, and sampling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
    PerfEvent,
)
from repro.hwcounters.msr import (
    COUNTER_WIDTH_BITS,
    IA32_FIXED_CTR0,
    IA32_FIXED_CTR_CTRL,
    IA32_PERF_GLOBAL_CTRL,
    IA32_PERFEVTSEL0,
    IA32_PMC0,
    CorePmu,
    MsrFile,
)
from repro.hwcounters.perfmon import CounterSample, PerfMonitor


class TestEventEncodings:
    """Paper Table 2's encodings, verbatim."""

    def test_llc_misses(self):
        assert LLC_MISSES.event_select == 0x2E
        assert LLC_MISSES.umask == 0x41

    def test_llc_references(self):
        assert LLC_REFERENCES.event_select == 0x2E
        assert LLC_REFERENCES.umask == 0x4F

    def test_l1_events(self):
        assert L1_CACHE_MISSES.event_select == 0xD1
        assert L1_CACHE_MISSES.umask == 0x08
        assert L1_CACHE_HITS.umask == 0x01

    def test_evtsel_round_trip(self):
        value = LLC_MISSES.evtsel_value
        # IA32_PERFEVTSELx: event select in bits 0-7, umask in bits 8-15.
        assert (value & 0xFF, (value >> 8) & 0xFF) == (0x2E, 0x41)
        assert value & (1 << 22)  # EN bit set

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            PerfEvent("bad", 0x100, 0)
        with pytest.raises(ValueError):
            PerfEvent("bad", 0, 0x1FF)


class TestMsrFile:
    def test_pmu_registers_preimplemented(self):
        msrs = MsrFile()
        assert msrs.rdmsr(IA32_PMC0) == 0
        assert msrs.rdmsr(IA32_FIXED_CTR0) == 0

    def test_unimplemented_read_raises(self):
        with pytest.raises(KeyError, match="unimplemented"):
            MsrFile().rdmsr(0x9999)

    def test_write_read_round_trip(self):
        msrs = MsrFile()
        msrs.wrmsr(IA32_PMC0, 0xDEADBEEF)
        assert msrs.rdmsr(IA32_PMC0) == 0xDEADBEEF

    def test_writes_truncate_to_64_bits(self):
        msrs = MsrFile()
        msrs.wrmsr(IA32_PMC0, 1 << 70)
        assert msrs.rdmsr(IA32_PMC0) == 0

    def test_fresh_file_holds_the_reset_register_set(self):
        # Every PMCx next to its IA32_PERFEVTSELx, then the three fixed
        # counters and the two controls, all zero, in that order.
        want = []
        for i in range(4):
            want += [(IA32_PMC0 + i, 0), (IA32_PERFEVTSEL0 + i, 0)]
        want += [(IA32_FIXED_CTR0 + i, 0) for i in range(3)]
        want += [(IA32_FIXED_CTR_CTRL, 0), (IA32_PERF_GLOBAL_CTRL, 0)]
        assert list(MsrFile().registers.items()) == want

    def test_files_do_not_share_registers(self):
        a, b = MsrFile(), MsrFile()
        a.wrmsr(IA32_PMC0, 5)
        a.wrmsr(IA32_PERF_GLOBAL_CTRL, 1)
        assert b.rdmsr(IA32_PMC0) == 0 and b.rdmsr(IA32_PERF_GLOBAL_CTRL) == 0
        assert MsrFile().rdmsr(IA32_PMC0) == 0

    def test_batch_write_updates_registers_in_place(self):
        batched, single = MsrFile(), MsrFile()
        values = {IA32_PERFEVTSEL0 + 1: LLC_MISSES.evtsel_value, IA32_PMC0: 9}
        batched.wrmsr_batch(values)
        for addr, value in values.items():
            single.wrmsr(addr, value)
        assert list(batched.registers.items()) == list(single.registers.items())

    def test_registers_view_is_live_and_read_only(self):
        msrs = MsrFile()
        view = msrs.registers
        msrs.wrmsr(IA32_PMC0, 7)
        assert view[IA32_PMC0] == 7 == msrs.rdmsr(IA32_PMC0)
        with pytest.raises(TypeError):
            view[IA32_PMC0] = 1


class TestCorePmu:
    def test_fixed_counters_always_count(self):
        pmu = CorePmu()
        pmu.advance(instructions=100, cycles=200, event_counts={})
        assert pmu.msrs.rdmsr(IA32_FIXED_CTR0) == 100
        assert pmu.msrs.rdmsr(IA32_FIXED_CTR0 + 1) == 200

    def test_disabled_pmc_does_not_count(self):
        pmu = CorePmu()
        pmu.advance(10, 10, {LLC_MISSES: 5})
        assert pmu.msrs.rdmsr(IA32_PMC0) == 0

    def test_programmed_pmc_counts_matching_event(self):
        pmu = CorePmu()
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0, LLC_MISSES.evtsel_value)
        pmu.advance(10, 10, {LLC_MISSES: 5, LLC_REFERENCES: 9})
        assert pmu.msrs.rdmsr(IA32_PMC0) == 5

    def test_counters_wrap_at_48_bits(self):
        pmu = CorePmu()
        near_max = (1 << COUNTER_WIDTH_BITS) - 3
        pmu.msrs.wrmsr(IA32_FIXED_CTR0, near_max)
        pmu.advance(instructions=10, cycles=0, event_counts={})
        assert pmu.msrs.rdmsr(IA32_FIXED_CTR0) == 7  # wrapped

    def test_negative_activity_rejected(self):
        with pytest.raises(ValueError):
            CorePmu().advance(-1, 0, {})

    def test_negative_event_count_rejected(self):
        pmu = CorePmu()
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0, LLC_MISSES.evtsel_value)
        with pytest.raises(ValueError, match="llc_misses"):
            pmu.advance(10, 10, {LLC_MISSES: -5})
        # Rejected before any register moved: no wrapped PMC, no partial slice.
        assert pmu.msrs.rdmsr(IA32_PMC0) == 0
        assert pmu.msrs.rdmsr(IA32_FIXED_CTR0) == 0
        with pytest.raises(ValueError, match="0x412e"):
            pmu.advance_codes(10, 10, {LLC_MISSES.code: -5})
        assert pmu.msrs.rdmsr(IA32_FIXED_CTR0) == 0
        pmu.advance_codes(10, 10, {LLC_MISSES.code: 5})
        assert pmu.msrs.rdmsr(IA32_PMC0) == 5

    def test_selector_changes_take_effect_on_next_advance(self):
        pmu = CorePmu()
        counts = {LLC_MISSES: 5, LLC_REFERENCES: 9}
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0, LLC_MISSES.evtsel_value)
        pmu.advance(1, 1, counts)
        assert pmu.msrs.rdmsr(IA32_PMC0) == 5
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0, LLC_REFERENCES.evtsel_value)  # swap
        pmu.advance(1, 1, counts)
        assert pmu.msrs.rdmsr(IA32_PMC0) == 14
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0, LLC_REFERENCES.evtsel_value & ~(1 << 22))
        pmu.advance(1, 1, counts)  # EN cleared: the PMC holds its value
        assert pmu.msrs.rdmsr(IA32_PMC0) == 14
        pmu.msrs.wrmsr(IA32_PERFEVTSEL0 + 1, LLC_MISSES.evtsel_value)
        pmu.advance(1, 1, counts)  # a newly programmed slot counts at once
        assert pmu.msrs.rdmsr(IA32_PMC0) == 14
        assert pmu.msrs.rdmsr(IA32_PMC0 + 1) == 5


class TestCounterSample:
    def test_derived_metrics(self):
        s = CounterSample(l1_ref=1000, llc_ref=100, llc_miss=10, ret_ins=4000, cycles=8000)
        assert s.ipc == pytest.approx(0.5)
        assert s.llc_miss_rate == pytest.approx(0.1)
        assert s.mem_refs_per_instr == pytest.approx(0.25)

    def test_zero_denominators_are_safe(self):
        s = CounterSample()
        assert s.ipc == 0.0
        assert s.llc_miss_rate == 0.0
        assert s.mem_refs_per_instr == 0.0

    def test_aggregation_sums(self):
        a = CounterSample(l1_ref=1, llc_ref=2, llc_miss=3, ret_ins=4, cycles=5)
        b = CounterSample(l1_ref=10, llc_ref=20, llc_miss=30, ret_ins=40, cycles=50)
        total = CounterSample.aggregate([a, b])
        assert total.l1_ref == 11
        assert total.cycles == 55

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=5, max_size=5))
    def test_addition_commutes(self, vals):
        a = CounterSample(*vals)
        b = CounterSample(*reversed(vals))
        assert a + b == b + a


class TestPerfMonitor:
    def _pmu_set(self, n=2):
        return {i: CorePmu() for i in range(n)}

    def test_programs_all_four_events(self):
        pmus = self._pmu_set(1)
        PerfMonitor(pmus)
        programmed = {
            pmus[0].msrs.rdmsr(IA32_PERFEVTSEL0 + i) & 0xFFFF for i in range(4)
        }
        expected = {
            e.evtsel_value & 0xFFFF
            for e in (LLC_MISSES, LLC_REFERENCES, L1_CACHE_MISSES, L1_CACHE_HITS)
        }
        assert programmed == expected

    def test_programming_matches_one_write_per_selector(self):
        pmus = self._pmu_set(2)
        PerfMonitor(pmus)
        events = (LLC_MISSES, LLC_REFERENCES, L1_CACHE_MISSES, L1_CACHE_HITS)
        reference = MsrFile()
        for slot, event in enumerate(events):
            reference.wrmsr(IA32_PERFEVTSEL0 + slot, event.evtsel_value)
        for pmu in pmus.values():
            assert list(pmu.msrs.registers.items()) == list(reference.registers.items())

    def test_sampling_returns_deltas(self):
        pmus = self._pmu_set(1)
        mon = PerfMonitor(pmus)
        pmus[0].advance(1000, 2000, {LLC_MISSES: 5, LLC_REFERENCES: 50,
                                     L1_CACHE_MISSES: 50, L1_CACHE_HITS: 200})
        s = mon.sample_core(0)
        assert s.ret_ins == 1000
        assert s.cycles == 2000
        assert s.llc_miss == 5
        assert s.llc_ref == 50
        assert s.l1_ref == 250  # hits + misses

    def test_second_sample_is_incremental(self):
        pmus = self._pmu_set(1)
        mon = PerfMonitor(pmus)
        pmus[0].advance(100, 100, {})
        mon.sample_core(0)
        pmus[0].advance(7, 9, {})
        s = mon.sample_core(0)
        assert s.ret_ins == 7
        assert s.cycles == 9

    def test_wraparound_handled(self):
        pmus = self._pmu_set(1)
        mon = PerfMonitor(pmus)
        near = (1 << COUNTER_WIDTH_BITS) - 5
        pmus[0].msrs.wrmsr(IA32_FIXED_CTR0, near)
        mon.sample_core(0)  # absorb the jump
        pmus[0].advance(instructions=10, cycles=0, event_counts={})
        s = mon.sample_core(0)
        assert s.ret_ins == 10  # despite the 48-bit wrap in between

    def test_multi_interval_deltas_across_48_bit_wrap(self):
        pmus = self._pmu_set(1)
        near = (1 << COUNTER_WIDTH_BITS) - 7
        for addr in [IA32_PMC0 + i for i in range(4)] + [IA32_FIXED_CTR0,
                                                         IA32_FIXED_CTR0 + 1]:
            pmus[0].msrs.wrmsr(addr, near)
        mon = PerfMonitor(pmus)
        for step in range(1, 6):  # every counter wraps in one of slices 2-4
            pmus[0].advance(3 * step, 2 * step, {
                LLC_MISSES: step, LLC_REFERENCES: 2 * step,
                L1_CACHE_MISSES: 3, L1_CACHE_HITS: 4,
            })
            s = mon.sample_core(0)
            assert (s.ret_ins, s.cycles) == (3 * step, 2 * step)
            assert (s.llc_miss, s.llc_ref, s.l1_ref) == (step, 2 * step, 7)
        assert pmus[0].msrs.rdmsr(IA32_FIXED_CTR0) == 3 * 15 - 7

    def test_multi_core_aggregation(self):
        pmus = self._pmu_set(2)
        mon = PerfMonitor(pmus)
        pmus[0].advance(10, 20, {})
        pmus[1].advance(30, 40, {})
        s = mon.sample_cores([0, 1])
        assert s.ret_ins == 40
        assert s.cycles == 60

    def test_requires_cores(self):
        with pytest.raises(ValueError):
            PerfMonitor({})
