"""Core timing model: turns memory behaviour into cycles, IPC and counters.

dCat's only performance signal is IPC, and its cache signals are L1/LLC
reference and miss counts.  The core model therefore has one job: given a
workload's per-interval memory behaviour (references per instruction, L1
miss ratio, achievable memory-level parallelism) and the LLC hit rate its
current allocation yields, produce a mutually consistent set of counter
increments — instructions, unhalted cycles, L1 refs, LLC refs, LLC misses —
for the interval.

The CPI decomposition is the standard in-order approximation used by, e.g.,
roofline-style models:

    CPI = base_cpi + refs_per_instr * l1_miss_rate * stall_per_llc_access

where the average stall per LLC access blends the LLC hit latency and the
(load-dependent) DRAM latency, divided by the workload's memory-level
parallelism.  A dependent pointer chase (MLR) has MLP ~1 and is fully
latency-bound; a hardware-prefetched stream (MLOAD) overlaps many misses.

:func:`execute_cores` is the one implementation of an interval's counter
arithmetic: a numpy kernel over any number of cores (every busy core of
every host a fleet interval steps).
:meth:`CoreTimingModel.execute_interval` is its one-core call.  The
kernel keeps the scalar evaluation order of every float operation, and
each core's noise comes from its own pre-drawn block, so a core's counters
do not depend on which batch it ran in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hwcounters.events import (
    L1_CACHE_HITS,
    L1_CACHE_MISSES,
    LLC_MISSES,
    LLC_REFERENCES,
    PerfEvent,
)
from repro.mem.dram import DramModel

__all__ = [
    "MemoryBehavior",
    "CoreActivity",
    "CoreCounters",
    "CoreTimingModel",
    "core_cpis",
    "execute_cores",
    "NOISE_BLOCK",
]

#: Noise factors a core pre-draws at a time.  ``normal(0, s, size=n)``
#: yields the same values as ``n`` scalar draws, and ``np.exp`` of the
#: block equals the scalar ``np.exp`` of each, so the block size never
#: changes a counter (``tests/test_coremodel.py`` pins both).
NOISE_BLOCK = 32


def _blended_latency(llc_hit_rate, llc_latency, dram_latency):
    """Average latency of one LLC access (floats or numpy arrays alike)."""
    return llc_hit_rate * llc_latency + (1.0 - llc_hit_rate) * dram_latency


def _cpi(base_cpi, refs_per_instr, l1_miss_ratio, mlp, blended_latency):
    """``base + refs * l1_miss * stall`` (floats or numpy arrays alike)."""
    return base_cpi + refs_per_instr * l1_miss_ratio * (blended_latency / mlp)


@dataclass(frozen=True)
class MemoryBehavior:
    """A workload phase's memory behaviour, as the core pipeline sees it.

    Attributes:
        refs_per_instr: L1 data references per retired instruction.  This is
            the quantity dCat uses as its phase signature; it is a property
            of the code, independent of cache allocation (paper Fig. 5).
        l1_miss_ratio: Fraction of L1 references that miss to the LLC.
        base_cpi: Cycles per instruction with all memory served by L1.
        mlp: Memory-level parallelism — concurrent outstanding misses the
            workload sustains (1 = fully dependent chain).
        duty_cycle: Fraction of the interval the core is unhalted.
    """

    refs_per_instr: float = 0.25
    l1_miss_ratio: float = 0.0
    base_cpi: float = 0.5
    mlp: float = 1.0
    duty_cycle: float = 1.0

    def __post_init__(self) -> None:
        if self.refs_per_instr < 0:
            raise ValueError("refs_per_instr cannot be negative")
        if not 0.0 <= self.l1_miss_ratio <= 1.0:
            raise ValueError("l1_miss_ratio must be within [0, 1]")
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if self.mlp < 1.0:
            raise ValueError("mlp must be >= 1")
        if not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError("duty_cycle must be within [0, 1]")


@dataclass(frozen=True)
class CoreActivity:
    """Counter increments for one core over one interval."""

    instructions: int
    cycles: int
    event_counts: Dict[PerfEvent, int]
    avg_mem_latency_cycles: float  # average latency per L1 data reference
    llc_hit_rate: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class CoreCounters(NamedTuple):
    """Counter increments from one :func:`execute_cores` call, in core order.

    Plain Python lists (the kernel's ``.tolist()``): the PMU feed and the
    per-VM sums read them without touching numpy scalars.  L1 misses equal
    LLC references, so they are not stored twice.
    """

    instructions: List[int]
    cycles: List[int]
    l1_hits: List[int]
    llc_refs: List[int]
    llc_misses: List[int]
    avg_latency: List[float]


def _cpi_terms(
    models: Sequence["CoreTimingModel"],
    behaviors: Sequence[MemoryBehavior],
    hit_rates: Sequence[float],
    dram_latencies: Sequence[float],
) -> Tuple[np.ndarray, ...]:
    """``(hit, refs, l1_miss, blended, cpi)`` arrays, one entry per core.

    Raises:
        ValueError: If any hit rate is outside ``[0, 1]`` (NaN included).
    """
    hit = np.array(hit_rates, dtype=float)
    if not ((hit >= 0.0) & (hit <= 1.0)).all():
        raise ValueError("llc_hit_rate must be within [0, 1]")
    refs = np.array([b.refs_per_instr for b in behaviors], dtype=float)
    l1_miss = np.array([b.l1_miss_ratio for b in behaviors], dtype=float)
    blended = _blended_latency(
        hit,
        np.array([m.llc_latency for m in models], dtype=float),
        np.array(dram_latencies, dtype=float),
    )
    cpi = _cpi(
        np.array([b.base_cpi for b in behaviors], dtype=float),
        refs,
        l1_miss,
        np.array([b.mlp for b in behaviors], dtype=float),
        blended,
    )
    return hit, refs, l1_miss, blended, cpi


def core_cpis(
    models: Sequence["CoreTimingModel"],
    behaviors: Sequence[MemoryBehavior],
    hit_rates: Sequence[float],
    dram_latencies: Sequence[float],
) -> np.ndarray:
    """Noise-free CPI of each core ``i`` running ``behaviors[i]`` at
    ``hit_rates[i]`` under ``dram_latencies[i]`` (:meth:`CoreTimingModel.cpi`
    for many cores at once, bit for bit).

    Raises:
        ValueError: If any hit rate is outside ``[0, 1]``.
    """
    return _cpi_terms(models, behaviors, hit_rates, dram_latencies)[-1]


def execute_cores(
    models: Sequence["CoreTimingModel"],
    behaviors: Sequence[MemoryBehavior],
    hit_rates: Sequence[float],
    dram_latencies: Sequence[float],
) -> CoreCounters:
    """Run one interval on every listed core; returns their counters.

    Entry ``i`` of each argument describes core ``i``: its timing model,
    the behaviour it executes, the LLC hit rate that behaviour gets, and
    the DRAM latency it runs under.  Each model contributes its next
    noise factor, so calling this once over many cores or once per core
    yields the same counters.

    The counter identities that the rest of the system (and the tests)
    rely on: ``l1_ref = instructions * refs_per_instr``, ``llc_ref =
    l1_ref * l1_miss_ratio``, ``llc_miss = llc_ref * (1 - hit_rate)``,
    and ``instructions = cycles / CPI`` — all up to integer rounding
    (``np.rint`` rounds half to even, like ``round``).

    Raises:
        ValueError: If any hit rate is outside ``[0, 1]``; no core's
            noise stream has advanced.
    """
    if not models:
        return CoreCounters([], [], [], [], [], [])
    hit, refs, l1_miss, blended, cpi = _cpi_terms(
        models, behaviors, hit_rates, dram_latencies
    )
    cpi = cpi * np.array([m.next_noise() for m in models], dtype=float)
    cycles = np.rint(
        np.array([m.cycles_per_interval for m in models], dtype=float)
        * np.array([b.duty_cycle for b in behaviors], dtype=float)
    )
    instructions = np.trunc(cycles / cpi)
    l1_ref = np.rint(instructions * refs)
    llc_ref = np.rint(l1_ref * l1_miss)
    llc_miss = np.rint(llc_ref * (1.0 - hit))
    avg_latency = (
        np.array([m.l1_latency for m in models], dtype=float) + l1_miss * blended
    )
    return CoreCounters(
        instructions=instructions.astype(np.int64).tolist(),
        cycles=cycles.astype(np.int64).tolist(),
        l1_hits=np.maximum(l1_ref - llc_ref, 0.0).astype(np.int64).tolist(),
        llc_refs=llc_ref.astype(np.int64).tolist(),
        llc_misses=np.maximum(llc_miss, 0.0).astype(np.int64).tolist(),
        avg_latency=avg_latency.tolist(),
    )


class CoreTimingModel:
    """Produces per-interval activity for one core.

    Args:
        cycles_per_interval: Unhalted cycles a fully busy core spends per
            controller interval.  This is a *scaled* core (real Broadwell
            retires ~2.3e9 cycles/s); scaling shrinks counter magnitudes
            without touching any of the rates dCat consumes.
        l1_latency: L1 hit latency in cycles (part of base_cpi; used only
            for the reported average access latency).
        llc_latency: LLC hit latency in cycles.
        dram: DRAM model supplying load-dependent miss latency.
        noise_sigma: Relative sigma of multiplicative lognormal noise on the
            interval's CPI, so measured IPC jitters like real hardware and
            the controller's thresholds are exercised honestly.  Fixed at
            construction: the noise is pre-drawn in blocks.
        rng: Seeded generator for the noise (this core's alone).
    """

    def __init__(
        self,
        cycles_per_interval: int = 2_000_000,
        l1_latency: float = 4.0,
        llc_latency: float = 40.0,
        dram: Optional[DramModel] = None,
        noise_sigma: float = 0.005,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if cycles_per_interval < 1:
            raise ValueError("cycles_per_interval must be positive")
        self.cycles_per_interval = cycles_per_interval
        self.l1_latency = l1_latency
        self.llc_latency = llc_latency
        self.dram = dram if dram is not None else DramModel()
        self.noise_sigma = noise_sigma
        self._rng = rng if rng is not None else np.random.default_rng(42)
        # Drawn on first use, so building a host's idle cores costs nothing.
        self._noise: List[float] = []
        self._noise_at = 0

    def next_noise(self) -> float:
        """This core's next CPI noise factor (1.0 when noise is off)."""
        if self.noise_sigma <= 0:
            return 1.0
        at = self._noise_at
        if at == len(self._noise):
            self._noise = np.exp(
                self._rng.normal(0.0, self.noise_sigma, size=NOISE_BLOCK)
            ).tolist()
            at = 0
        self._noise_at = at + 1
        return self._noise[at]

    # -- model -------------------------------------------------------------

    def _dram_latency(self, dram_latency: Optional[float]) -> float:
        return self.dram.idle_latency_cycles if dram_latency is None else dram_latency

    def avg_mem_latency(
        self,
        l1_miss_ratio: float,
        llc_hit_rate: float,
        dram_latency: Optional[float] = None,
    ) -> float:
        """Average latency per L1 data reference, in cycles."""
        return self.l1_latency + l1_miss_ratio * _blended_latency(
            llc_hit_rate, self.llc_latency, self._dram_latency(dram_latency)
        )

    def cpi(
        self,
        behavior: MemoryBehavior,
        llc_hit_rate: float,
        dram_latency: Optional[float] = None,
    ) -> float:
        """Deterministic CPI for a behaviour at a given LLC hit rate."""
        if not 0.0 <= llc_hit_rate <= 1.0:
            raise ValueError("llc_hit_rate must be within [0, 1]")
        return _cpi(
            behavior.base_cpi,
            behavior.refs_per_instr,
            behavior.l1_miss_ratio,
            behavior.mlp,
            _blended_latency(
                llc_hit_rate, self.llc_latency, self._dram_latency(dram_latency)
            ),
        )

    def execute_interval(
        self,
        behavior: MemoryBehavior,
        llc_hit_rate: float,
        dram_latency: Optional[float] = None,
    ) -> CoreActivity:
        """Run one interval on this core: :func:`execute_cores` for one."""
        out = execute_cores(
            [self], [behavior], [llc_hit_rate], [self._dram_latency(dram_latency)]
        )
        llc_ref = out.llc_refs[0]
        return CoreActivity(
            instructions=out.instructions[0],
            cycles=out.cycles[0],
            event_counts={
                L1_CACHE_HITS: out.l1_hits[0],
                L1_CACHE_MISSES: llc_ref,
                LLC_REFERENCES: llc_ref,
                LLC_MISSES: out.llc_misses[0],
            },
            avg_mem_latency_cycles=out.avg_latency[0],
            llc_hit_rate=llc_hit_rate,
        )
