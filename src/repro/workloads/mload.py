"""MLOAD: the paper's sequential-read streaming microbenchmark.

"MLOAD is a stream of sequential read accesses to an array."  At the 60 MB
working set the paper uses, MLOAD cycles through far more data than the LLC
holds, producing the classic cyclic pattern that LRU cannot exploit: zero
reuse, near-100% miss rate, and enormous insertion pressure.  It is the
paper's "noisy neighbor" in every macro experiment, and the workload dCat's
Streaming classification exists to catch.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.analytical import AccessPattern
from repro.cpu.coremodel import MemoryBehavior
from repro.mem.paging import PAGE_4K
from repro.workloads.base import Phase, PhasedWorkload, l1_miss_ratio_for

__all__ = ["mload_phase", "MloadWorkload", "generate_mload_offsets"]


def mload_phase(
    wss_bytes: int,
    duration_s: Optional[float] = None,
    instructions: Optional[int] = None,
    page_size: int = PAGE_4K,
    name: Optional[str] = None,
) -> Phase:
    """Build an MLOAD phase: a sequential sweep repeated over the array.

    A hardware-prefetched unit-stride stream sustains many outstanding line
    fills (high MLP) and only one in eight 8-byte reads crosses below L1.
    """
    return Phase(
        name=name or f"mload-{wss_bytes >> 20}mb",
        pattern=AccessPattern.SEQUENTIAL,
        wss_bytes=wss_bytes,
        behavior=MemoryBehavior(
            refs_per_instr=0.25,
            l1_miss_ratio=l1_miss_ratio_for(AccessPattern.SEQUENTIAL, wss_bytes),
            base_cpi=0.5,
            mlp=8.0,
        ),
        page_size=page_size,
        duration_s=duration_s,
        instructions=instructions,
    )


class MloadWorkload(PhasedWorkload):
    """MLOAD as a single-phase workload (the default 60 MB noisy neighbor)."""

    def __init__(
        self,
        wss_bytes: int = 60 << 20,
        duration_s: Optional[float] = None,
        start_delay_s: float = 0.0,
        page_size: int = PAGE_4K,
        name: Optional[str] = None,
    ) -> None:
        label = name or f"mload-{wss_bytes >> 20}mb"
        super().__init__(
            name=label,
            phases=[mload_phase(wss_bytes, duration_s=duration_s, page_size=page_size)],
            start_delay_s=start_delay_s,
            parallelism=2,  # a noisy tenant streams on both of its vCPUs
        )


def generate_mload_offsets(
    wss_bytes: int,
    count: int,
    start: int = 0,
    line_size: int = 64,
) -> np.ndarray:
    """Line-granular sequential offsets cycling through the array.

    Args:
        start: Line index to resume the sweep from (so successive calls
            continue the cycle, as the real benchmark would).
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    nlines = max(1, wss_bytes // line_size)
    idx = (start + np.arange(count, dtype=np.int64)) % nlines
    return idx * line_size
