"""Workload model: phases of memory behaviour stepped by the simulator.

A *workload* in dCat's sense is whatever a tenant runs inside its VM —  the
controller treats it as a black box emitting counter readings.  On the
simulator side a workload is a sequence of :class:`Phase` objects, each
pairing an LLC-visible access pattern (pattern, working-set size, page size)
with a pipeline-visible :class:`MemoryBehavior` (refs/instr, L1 miss ratio,
MLP).  Phases terminate either after simulated wall time or after a fixed
amount of retired work (SPEC-style run-to-completion), and may loop.

The phase boundary is exactly what dCat's phase detector must notice: two
phases of one workload usually differ in ``refs_per_instr``, the detector's
signature metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.cache.analytical import AccessPattern, Footprint
from repro.cpu.coremodel import MemoryBehavior
from repro.mem.address import KB
from repro.mem.paging import PAGE_4K

__all__ = ["Phase", "Workload", "PhasedWorkload", "idle_phase", "l1_miss_ratio_for"]


L1_CAPACITY_BYTES = 32 * KB


def l1_miss_ratio_for(pattern: AccessPattern, wss_bytes: int, stride_bytes: int = 8) -> float:
    """Estimate the fraction of L1 references that miss to the LLC.

    * Random access over a working set much larger than L1 misses almost
      always; the hit fraction is the resident fraction ``L1 / WSS``.
    * A sequential stream hits on the remainder of each fetched line:
      only one reference per line (``stride / line``) goes below L1.
    * Pattern NONE never leaves L1.
    """
    if pattern is AccessPattern.NONE or wss_bytes <= 0:
        return 0.0
    if wss_bytes <= L1_CAPACITY_BYTES:
        return 0.0
    if pattern is AccessPattern.SEQUENTIAL:
        return min(1.0, stride_bytes / 64.0)
    resident_fraction = L1_CAPACITY_BYTES / wss_bytes
    return max(0.0, 1.0 - resident_fraction)


@dataclass(frozen=True)
class Phase:
    """One workload phase: what the cache and the pipeline see.

    Exactly one of ``duration_s`` / ``instructions`` bounds the phase; if
    both are None the phase runs until the simulation ends.
    """

    name: str
    pattern: AccessPattern
    wss_bytes: int
    behavior: MemoryBehavior
    page_size: int = PAGE_4K
    zipf_s: Optional[float] = None
    hot_bytes: Optional[int] = None
    hot_fraction: Optional[float] = None
    duration_s: Optional[float] = None
    instructions: Optional[int] = None

    def __post_init__(self) -> None:
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError("phase duration must be positive")
        if self.instructions is not None and self.instructions <= 0:
            raise ValueError("phase instruction budget must be positive")
        if self.wss_bytes < 0:
            raise ValueError("working-set size cannot be negative")
        self.footprint  # validates pattern-specific parameters

    @property
    def footprint(self) -> Footprint:
        """The cache model's view of this phase."""
        return Footprint(
            pattern=self.pattern,
            wss_bytes=self.wss_bytes,
            page_size=self.page_size,
            zipf_s=self.zipf_s,
            hot_bytes=self.hot_bytes,
            hot_fraction=self.hot_fraction,
        )


def idle_phase(duration_s: Optional[float] = None, name: str = "idle") -> Phase:
    """A phase during which the VM sits idle (near-zero unhalted cycles)."""
    return Phase(
        name=name,
        pattern=AccessPattern.NONE,
        wss_bytes=0,
        behavior=MemoryBehavior(
            refs_per_instr=0.1, l1_miss_ratio=0.0, base_cpi=0.6, duty_cycle=0.01
        ),
        duration_s=duration_s,
    )


class Workload:
    """Interface the platform simulator steps each interval."""

    name: str = "workload"
    parallelism: int = 1
    # Optional tenant-declared phase schedule (a DeclaredSchedule); the
    # manager forwards it to the controller as a trust-but-verify hint.
    declared_schedule = None

    def current_phase(self) -> Optional[Phase]:
        """The active phase, or None once the workload has finished."""
        raise NotImplementedError

    def advance(self, elapsed_s: float, executed_instructions: int) -> None:
        """Account one interval of progress against the active phase."""
        raise NotImplementedError

    @property
    def finished(self) -> bool:
        raise NotImplementedError

    def reset(self) -> None:
        """Rewind to the first phase (used for run/stop/run experiments)."""
        raise NotImplementedError


class PhasedWorkload(Workload):
    """A workload as an ordered list of phases, optionally looping.

    Args:
        name: Workload name (also the VM label in experiments).
        phases: The phase sequence.
        loop: Restart from the first phase after the last completes.
        start_delay_s: Idle time before the first phase begins (the paper's
            timelines start VMs idle, classified Donor, then launch work).
        parallelism: How many of the VM's vCPUs the workload keeps busy
            (1 for single-threaded benchmarks; the VM caps it at its vCPU
            count).
    """

    def __init__(
        self,
        name: str,
        phases: Sequence[Phase],
        loop: bool = False,
        start_delay_s: float = 0.0,
        parallelism: int = 1,
    ) -> None:
        if not phases:
            raise ValueError("a workload needs at least one phase")
        if start_delay_s < 0:
            raise ValueError("start delay cannot be negative")
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.name = name
        self.parallelism = parallelism
        self.loop = loop
        self._phases: List[Phase] = list(phases)
        if start_delay_s > 0:
            self._phases.insert(0, idle_phase(duration_s=start_delay_s, name="warmup-idle"))
        self._index = 0
        self._elapsed_in_phase = 0.0
        self._instructions_in_phase = 0
        self._finished = False

    # -- Workload interface --------------------------------------------------

    def current_phase(self) -> Optional[Phase]:
        if self._finished:
            return None
        return self._phases[self._index]

    def advance(self, elapsed_s: float, executed_instructions: int) -> None:
        if self._finished:
            return
        if elapsed_s < 0 or executed_instructions < 0:
            raise ValueError("progress cannot be negative")
        self._elapsed_in_phase += elapsed_s
        self._instructions_in_phase += executed_instructions
        phase = self._phases[self._index]
        done_by_time = (
            phase.duration_s is not None and self._elapsed_in_phase >= phase.duration_s
        )
        done_by_work = (
            phase.instructions is not None
            and self._instructions_in_phase >= phase.instructions
        )
        if done_by_time or done_by_work:
            self._next_phase()

    @property
    def finished(self) -> bool:
        return self._finished

    def reset(self) -> None:
        self._index = 0
        self._elapsed_in_phase = 0.0
        self._instructions_in_phase = 0
        self._finished = False

    # -- progress inspection ----------------------------------------------------

    def peek_phases(self) -> Sequence[Phase]:
        """The full phase sequence (read-only; placement policies inspect
        footprints before a tenant has ever run)."""
        return tuple(self._phases)

    def remaining_instructions(self) -> Optional[int]:
        """Instructions left in the active phase's budget, if work-bounded."""
        phase = self.current_phase()
        if phase is None or phase.instructions is None:
            return None
        return max(0, phase.instructions - self._instructions_in_phase)

    def phase_progress(self) -> float:
        """Fractional progress through the active phase's budget (0..1)."""
        phase = self.current_phase()
        if phase is None:
            return 1.0
        if phase.instructions is not None:
            return min(1.0, self._instructions_in_phase / phase.instructions)
        if phase.duration_s is not None:
            return min(1.0, self._elapsed_in_phase / phase.duration_s)
        return 0.0

    def _next_phase(self) -> None:
        self._elapsed_in_phase = 0.0
        self._instructions_in_phase = 0
        self._index += 1
        if self._index >= len(self._phases):
            if self.loop:
                self._index = 0
            else:
                self._index = len(self._phases) - 1
                self._finished = True
