"""MLR: the paper's random-read memory microbenchmark.

"MLR is a stream of random read accesses to an array"; the array size is the
working set.  It is the paper's canonical cache-sensitive workload: latency
(equivalently IPC) depends almost entirely on how much of the array the LLC
holds, which makes it the probe for every microbenchmark figure (1, 2, 5,
8-12, 14-16).

Two forms are provided: a :class:`PhasedWorkload` for the platform simulator,
and a trace generator for the exact tag-array model (Figs. 2-3 run the exact
model over real page-table layouts).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.analytical import AccessPattern
from repro.cpu.coremodel import MemoryBehavior
from repro.mem.paging import PAGE_4K
from repro.workloads.base import Phase, PhasedWorkload, l1_miss_ratio_for

__all__ = ["mlr_phase", "MlrWorkload", "generate_mlr_offsets"]


def mlr_phase(
    wss_bytes: int,
    duration_s: Optional[float] = None,
    instructions: Optional[int] = None,
    page_size: int = PAGE_4K,
    name: Optional[str] = None,
) -> Phase:
    """Build an MLR phase over a working set of ``wss_bytes``.

    The behaviour constants model a tight load loop: roughly one data
    reference every four instructions, a dependent access chain with modest
    memory-level parallelism, and an L1 that holds a negligible slice of a
    multi-megabyte random working set.
    """
    return Phase(
        name=name or f"mlr-{wss_bytes >> 20}mb",
        pattern=AccessPattern.RANDOM,
        wss_bytes=wss_bytes,
        behavior=MemoryBehavior(
            refs_per_instr=0.25,
            l1_miss_ratio=l1_miss_ratio_for(AccessPattern.RANDOM, wss_bytes),
            base_cpi=0.5,
            mlp=1.5,
        ),
        page_size=page_size,
        duration_s=duration_s,
        instructions=instructions,
    )


class MlrWorkload(PhasedWorkload):
    """MLR as a single-phase workload (optionally delayed / time-bounded)."""

    def __init__(
        self,
        wss_bytes: int,
        duration_s: Optional[float] = None,
        start_delay_s: float = 0.0,
        page_size: int = PAGE_4K,
        name: Optional[str] = None,
    ) -> None:
        label = name or f"mlr-{wss_bytes >> 20}mb"
        super().__init__(
            name=label,
            phases=[mlr_phase(wss_bytes, duration_s=duration_s, page_size=page_size)],
            start_delay_s=start_delay_s,
        )


def generate_mlr_offsets(
    wss_bytes: int,
    count: int,
    rng: Optional[np.random.Generator] = None,
    line_size: int = 64,
) -> np.ndarray:
    """Random line-granular byte offsets into an MLR array, for exact runs.

    Offsets are line aligned (the timing distinction between bytes within a
    line is an L1 matter; the LLC sees line addresses).
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    gen = rng if rng is not None else np.random.default_rng(11)
    nlines = max(1, wss_bytes // line_size)
    return gen.integers(0, nlines, size=count, dtype=np.int64) * line_size
