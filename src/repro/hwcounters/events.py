"""Performance-event encodings used by dCat (paper Table 2).

The original dCat reads raw core PMU counters through the Linux ``msr``
module.  We reproduce the same encodings so the controller programs and
decodes events exactly the way the C daemon did: architectural events are a
(event-select, unit-mask) pair written into an IA32_PERFEVTSELx register;
retired instructions and unhalted cycles come from the fixed-function
counters at MSRs 0x309/0x30A.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PerfEvent",
    "LLC_MISSES",
    "LLC_REFERENCES",
    "L1_CACHE_MISSES",
    "L1_CACHE_HITS",
    "PROGRAMMABLE_EVENTS",
    "FIXED_CTR_RETIRED_INSTRUCTIONS",
    "FIXED_CTR_UNHALTED_CYCLES",
]


@dataclass(frozen=True)
class PerfEvent:
    """A programmable core PMU event.

    Attributes:
        name: Human-readable name.
        event_select: The event number (bits 7:0 of IA32_PERFEVTSELx).
        umask: The unit mask (bits 15:8).
    """

    name: str
    event_select: int
    umask: int

    def __post_init__(self) -> None:
        if not 0 <= self.event_select <= 0xFF:
            raise ValueError(f"event_select out of range: {self.event_select:#x}")
        if not 0 <= self.umask <= 0xFF:
            raise ValueError(f"umask out of range: {self.umask:#x}")

    @property
    def code(self) -> int:
        """The selector bits that pick this event: ``umask << 8 | event``."""
        return self.event_select | (self.umask << 8)

    @property
    def evtsel_value(self) -> int:
        """The IA32_PERFEVTSELx encoding: USR+OS+EN set, event+umask."""
        usr = 1 << 16
        os_ = 1 << 17
        enable = 1 << 22
        return self.event_select | (self.umask << 8) | usr | os_ | enable

    @classmethod
    def from_evtsel(cls, name: str, value: int) -> "PerfEvent":
        """Decode an IA32_PERFEVTSELx register value back into an event."""
        return cls(name=name, event_select=value & 0xFF, umask=(value >> 8) & 0xFF)


# Paper Table 2 encodings (standard architectural/Broadwell events).
LLC_MISSES = PerfEvent("llc_misses", 0x2E, 0x41)
LLC_REFERENCES = PerfEvent("llc_references", 0x2E, 0x4F)
L1_CACHE_MISSES = PerfEvent("l1_cache_misses", 0xD1, 0x08)
L1_CACHE_HITS = PerfEvent("l1_cache_hits", 0xD1, 0x01)

PROGRAMMABLE_EVENTS = (LLC_MISSES, LLC_REFERENCES, L1_CACHE_MISSES, L1_CACHE_HITS)

# Fixed-function counter indices (values live at MSRs 0x309 + index).
FIXED_CTR_RETIRED_INSTRUCTIONS = 0
FIXED_CTR_UNHALTED_CYCLES = 1
