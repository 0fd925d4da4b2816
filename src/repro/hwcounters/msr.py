"""Model-specific-register (MSR) file and per-core PMU model.

dCat's original implementation reads counters via ``/dev/cpu/*/msr``.  Here
each simulated core owns an :class:`MsrFile` (a sparse 64-bit register file
with the PMU registers wired up) and a :class:`CorePmu` that turns simulated
activity — instructions retired, cycles elapsed, cache events — into counter
increments, honoring which events the controller has programmed and the
hardware's 48-bit counter width (so wraparound handling in the sampling layer
is exercised for real).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Sequence

from repro.hwcounters.events import (
    FIXED_CTR_RETIRED_INSTRUCTIONS,
    FIXED_CTR_UNHALTED_CYCLES,
    PerfEvent,
)

__all__ = [
    "CounterReadError",
    "IA32_PMC0",
    "IA32_PERFEVTSEL0",
    "IA32_FIXED_CTR0",
    "IA32_FIXED_CTR_CTRL",
    "IA32_PERF_GLOBAL_CTRL",
    "NUM_PROGRAMMABLE_COUNTERS",
    "COUNTER_WIDTH_BITS",
    "MsrFile",
    "CorePmu",
]

# Architectural MSR addresses (Intel SDM vol. 4).
IA32_PMC0 = 0x0C1
IA32_PERFEVTSEL0 = 0x186
IA32_FIXED_CTR0 = 0x309
IA32_FIXED_CTR_CTRL = 0x38D
IA32_PERF_GLOBAL_CTRL = 0x38F

NUM_PROGRAMMABLE_COUNTERS = 4
NUM_FIXED_COUNTERS = 3
COUNTER_WIDTH_BITS = 48
_COUNTER_MASK = (1 << COUNTER_WIDTH_BITS) - 1
_EVTSEL_EN = 1 << 22
_INSTR_CTR = IA32_FIXED_CTR0 + FIXED_CTR_RETIRED_INSTRUCTIONS
_CYCLE_CTR = IA32_FIXED_CTR0 + FIXED_CTR_UNHALTED_CYCLES
#: ``(IA32_PERFEVTSELx, IA32_PMCx)`` address pairs, slot order.
_PMC_SLOTS = tuple(
    (IA32_PERFEVTSEL0 + i, IA32_PMC0 + i) for i in range(NUM_PROGRAMMABLE_COUNTERS)
)
#: The register file at reset, which every :class:`MsrFile` copies: each
#: PMCx with its IA32_PERFEVTSELx, the fixed counters and the two
#: controls, all zero.
_RESET: Dict[int, int] = dict.fromkeys(
    (
        *(addr for evtsel, pmc in _PMC_SLOTS for addr in (pmc, evtsel)),
        *(IA32_FIXED_CTR0 + i for i in range(NUM_FIXED_COUNTERS)),
        IA32_FIXED_CTR_CTRL,
        IA32_PERF_GLOBAL_CTRL,
    ),
    0,
)


class CounterReadError(OSError):
    """A counter read failed transiently (the EIO a flaky msr driver returns).

    The in-memory PMU never raises this on its own; it is the canonical
    sampler-failure type that :mod:`repro.faults` injects and the hardened
    controller's bounded retry path catches.
    """


class MsrFile:
    """Sparse 64-bit register file with rdmsr/wrmsr semantics.

    Reading an unimplemented MSR raises (as the real ``msr`` driver would
    surface an EIO); the PMU registers are pre-implemented at zero.
    """

    def __init__(self) -> None:
        self._regs: Dict[int, int] = dict(_RESET)

    def rdmsr(self, addr: int) -> int:
        """Read an MSR; raises KeyError for unimplemented addresses."""
        try:
            return self._regs[addr]
        except KeyError:
            raise KeyError(f"rdmsr of unimplemented MSR {addr:#x}") from None

    @property
    def registers(self) -> Mapping[int, int]:
        """A live, read-only view of the register file.

        ``operator.itemgetter(*addrs)(msrs.registers)`` reads several
        registers in one call (the sampler's grouped read).
        """
        return MappingProxyType(self._regs)

    def wrmsr(self, addr: int, value: int) -> None:
        """Write an MSR (values are truncated to 64 bits)."""
        self._regs[addr] = value & ((1 << 64) - 1)

    def implemented(self, addr: int) -> bool:
        return addr in self._regs


@dataclass
class CorePmu:
    """Per-core PMU: routes simulated activity into programmed counters.

    The simulation calls :meth:`advance_counts` once per interval with the
    core's activity totals; the PMU increments whichever PMCs the controller has
    programmed (via IA32_PERFEVTSELx writes) plus the always-on fixed
    counters, with 48-bit wraparound.
    """

    msrs: MsrFile = field(default_factory=MsrFile)

    def advance(
        self,
        instructions: int,
        cycles: int,
        event_counts: Mapping[PerfEvent, int],
    ) -> None:
        """Account one slice of simulated activity.

        Args:
            instructions: Instructions retired in the slice.
            cycles: Unhalted cycles in the slice.
            event_counts: Occurrence counts keyed by programmable event.

        Raises:
            ValueError: Any total or event count is negative (it would wrap
                a counter into a ~2**48 phantom delta); no register moves.
        """
        by_code: Dict[int, int] = {}
        for event, count in event_counts.items():
            if count < 0:
                raise ValueError(
                    f"event count for {event.name} cannot be negative, got {count}"
                )
            by_code.setdefault(event.code, count)  # the first event wins
        self.advance_codes(instructions, cycles, by_code)

    def advance_codes(
        self, instructions: int, cycles: int, counts: Mapping[int, int]
    ) -> None:
        """:meth:`advance` with counts keyed by :attr:`PerfEvent.code
        <repro.hwcounters.events.PerfEvent.code>`.

        Raises:
            ValueError: Any total or count is negative; no register moves.
        """
        slots = {code: k for k, code in enumerate(counts)}
        self.advance_counts(instructions, cycles, slots, tuple(counts.values()))

    def advance_counts(
        self,
        instructions: int,
        cycles: int,
        slots: Mapping[int, int],
        counts: Sequence[int],
    ) -> None:
        """The one register update: the event whose
        :attr:`~repro.hwcounters.events.PerfEvent.code` is ``code``
        occurred ``counts[slots[code]]`` times.  The simulation feeds every
        core through here with one shared ``slots`` map and a count tuple.

        Raises:
            ValueError: Any total or count is negative; no register moves.
        """
        if instructions < 0 or cycles < 0:
            raise ValueError("activity totals cannot be negative")
        if counts and min(counts) < 0:
            k = next(k for k, count in enumerate(counts) if count < 0)
            codes = ", ".join(f"{c:#06x}" for c, j in slots.items() if j == k)
            raise ValueError(
                f"event count for code {codes or k} cannot be negative, got {counts[k]}"
            )
        # The register file is the PMU's only state: counters update in place
        # and every IA32_PERFEVTSELx is re-read, so a reprogrammed or
        # disabled selector takes effect on the very next slice.
        regs = self.msrs._regs
        regs[_INSTR_CTR] = (regs[_INSTR_CTR] + instructions) & _COUNTER_MASK
        regs[_CYCLE_CTR] = (regs[_CYCLE_CTR] + cycles) & _COUNTER_MASK
        for evtsel, pmc in _PMC_SLOTS:
            sel = regs[evtsel]
            if sel & _EVTSEL_EN:
                code = sel & 0xFFFF
                if code in slots:
                    regs[pmc] = (regs[pmc] + counts[slots[code]]) & _COUNTER_MASK
