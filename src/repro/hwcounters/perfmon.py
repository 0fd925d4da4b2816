"""Counter sampling layer: programs events, reads deltas, derives rates.

This is the controller-facing half of the counter substrate.  A
:class:`PerfMonitor` owns the set of cores it watches, programs the four
paper events into each core's PMU, and on every :meth:`sample` returns the
*interval deltas* (handling 48-bit counter wraparound) aggregated into a
:class:`CounterSample` — exactly the quantities dCat's "Collect Statistics"
step consumes: l1_ref, llc_ref, llc_miss, ret_ins, cycles and the derived
IPC / miss-rate / memory-accesses-per-instruction.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, List, Mapping, NamedTuple, Sequence, Tuple

from repro.hwcounters.events import (
    FIXED_CTR_RETIRED_INSTRUCTIONS,
    FIXED_CTR_UNHALTED_CYCLES,
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
    PerfEvent,
)
from repro.hwcounters.msr import (
    COUNTER_WIDTH_BITS,
    IA32_FIXED_CTR0,
    IA32_PERFEVTSEL0,
    IA32_PMC0,
    CorePmu,
)

__all__ = ["CounterSample", "PerfMonitor"]

_WRAP = 1 << COUNTER_WIDTH_BITS


class CounterSample(NamedTuple):
    """Interval counter deltas for one workload (summed over its cores).

    All derived properties are defined to be safe on zero denominators (an
    idle interval yields zeros rather than exceptions — the classifier
    treats that as an idle Donor).  ``+`` adds counters field by field; it
    never concatenates.
    """

    l1_ref: int = 0
    llc_ref: int = 0
    llc_miss: int = 0
    ret_ins: int = 0
    cycles: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per unhalted cycle."""
        return self.ret_ins / self.cycles if self.cycles else 0.0

    @property
    def llc_miss_rate(self) -> float:
        """LLC misses per LLC reference."""
        return self.llc_miss / self.llc_ref if self.llc_ref else 0.0

    @property
    def mem_refs_per_instr(self) -> float:
        """L1 references per retired instruction — the phase signature."""
        return self.l1_ref / self.ret_ins if self.ret_ins else 0.0

    def __add__(self, other: "CounterSample") -> "CounterSample":  # type: ignore[override]
        return CounterSample(
            l1_ref=self.l1_ref + other.l1_ref,
            llc_ref=self.llc_ref + other.llc_ref,
            llc_miss=self.llc_miss + other.llc_miss,
            ret_ins=self.ret_ins + other.ret_ins,
            cycles=self.cycles + other.cycles,
        )

    @staticmethod
    def aggregate(samples: Iterable["CounterSample"]) -> "CounterSample":
        """Sum counters over a workload's cores (paper: averaged metrics).

        Sums in plain locals and constructs one sample at the end: this runs
        every interval for every workload, and building an intermediate
        sample per core would dominate the sampling cost.
        """
        l1_ref = llc_ref = llc_miss = ret_ins = cycles = 0
        for s in samples:
            l1_ref += s.l1_ref
            llc_ref += s.llc_ref
            llc_miss += s.llc_miss
            ret_ins += s.ret_ins
            cycles += s.cycles
        return CounterSample(
            l1_ref=l1_ref,
            llc_ref=llc_ref,
            llc_miss=llc_miss,
            ret_ins=ret_ins,
            cycles=cycles,
        )


# PMC slot assignment used by the monitor (any injective assignment works).
_PMC_EVENTS: Sequence[PerfEvent] = (
    LLC_MISSES,
    LLC_REFERENCES,
    L1_CACHE_MISSES,
    L1_CACHE_HITS,
)
_PMC_OF = {event: IA32_PMC0 + slot for slot, event in enumerate(_PMC_EVENTS)}
_LLC_MISS_PMC = _PMC_OF[LLC_MISSES]
_LLC_REF_PMC = _PMC_OF[LLC_REFERENCES]
_L1_MISS_PMC = _PMC_OF[L1_CACHE_MISSES]
_L1_HIT_PMC = _PMC_OF[L1_CACHE_HITS]
#: ``{IA32_PERFEVTSELx: selector value}``, the writes that program the slots.
_PROGRAM = {
    IA32_PERFEVTSEL0 + slot: event.evtsel_value
    for slot, event in enumerate(_PMC_EVENTS)
}

#: One raw counter snapshot, read from a core's register file as one
#: group: LLC misses, LLC refs, L1 misses, L1 hits, instructions, cycles.
_read_raw = itemgetter(
    _LLC_MISS_PMC,
    _LLC_REF_PMC,
    _L1_MISS_PMC,
    _L1_HIT_PMC,
    IA32_FIXED_CTR0 + FIXED_CTR_RETIRED_INSTRUCTIONS,
    IA32_FIXED_CTR0 + FIXED_CTR_UNHALTED_CYCLES,
)

#: Raw counter snapshot, in ``_read_raw`` order.
_Raw = Tuple[int, int, int, int, int, int]


class PerfMonitor:
    """Programs and samples PMUs for a set of cores.

    Args:
        pmus: Mapping of core id to that core's :class:`CorePmu`.
    """

    def __init__(self, pmus: Mapping[int, CorePmu]) -> None:
        if not pmus:
            raise ValueError("PerfMonitor needs at least one core")
        self._registers: Dict[int, Mapping[int, int]] = {}
        self._last_raw: Dict[int, _Raw] = {}
        for core, pmu in pmus.items():
            msrs = pmu.msrs
            msrs.wrmsr_batch(_PROGRAM)
            self._registers[core] = msrs.registers
            self._last_raw[core] = _read_raw(self._registers[core])

    @property
    def cores(self) -> List[int]:
        return sorted(self._registers)

    def sample_core(self, core: int) -> CounterSample:
        """Read one core's counters and return the delta since last sample."""
        return self.sample_cores((core,))

    def sample_cores(self, cores: Iterable[int]) -> CounterSample:
        """Sample several cores and aggregate (one workload's vCPUs).

        Each delta is taken modulo 2**48, so a counter that wrapped since
        the last sample still yields the true increment.  Each core's six
        counters come from one grouped register read; the deltas are summed
        in plain locals and one sample is built at the end (see
        :meth:`CounterSample.aggregate`).
        """
        l1_ref = llc_ref = llc_miss = ret_ins = cycles = 0
        registers = self._registers
        last_raw = self._last_raw
        for core in cores:
            raw = _read_raw(registers[core])
            b_miss, b_ref, b_l1_miss, b_l1_hit, b_ins, b_cyc = last_raw[core]
            last_raw[core] = raw
            miss, ref, l1_miss, l1_hit, ins, cyc = raw
            l1_ref += (l1_hit - b_l1_hit) % _WRAP + (l1_miss - b_l1_miss) % _WRAP
            llc_ref += (ref - b_ref) % _WRAP
            llc_miss += (miss - b_miss) % _WRAP
            ret_ins += (ins - b_ins) % _WRAP
            cycles += (cyc - b_cyc) % _WRAP
        return CounterSample(
            l1_ref=l1_ref,
            llc_ref=llc_ref,
            llc_miss=llc_miss,
            ret_ins=ret_ins,
            cycles=cycles,
        )
