"""Per-phase performance tables (paper Table 1 and §3.5).

For every (workload, phase) pair dCat accumulates a mapping from cache-way
count to IPC normalized against the phase's *baseline* IPC — the IPC
measured at the statically reserved allocation.  The table serves three
purposes:

* deciding whether a grant actually helped (Unknown -> Receiver);
* jumping a re-encountered phase straight to its *preferred* allocation
  instead of re-growing one way per round (paper Fig. 12);
* the max-performance allocation policy's search for the way split that
  maximizes the sum of normalized IPCs (paper §3.5's worked example).

Entries are EWMA-smoothed so counter noise does not churn decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.phase import PhaseSignature

__all__ = ["PhaseTable", "PerformanceTable"]


@dataclass
class PhaseTable:
    """ways -> normalized-IPC samples for one phase of one workload."""

    baseline_ways: int
    baseline_ipc: Optional[float] = None
    entries: Dict[int, float] = field(default_factory=dict)
    ewma_alpha: float = 0.4

    def record_baseline(self, ipc: float) -> None:
        """Record (or refresh) the baseline IPC, re-normalizing entries."""
        if ipc <= 0:
            return
        if self.baseline_ipc is None:
            self.baseline_ipc = ipc
        else:
            self.baseline_ipc += self.ewma_alpha * (ipc - self.baseline_ipc)
        self.entries[self.baseline_ways] = 1.0

    def record(self, ways: int, ipc: float) -> None:
        """Record an IPC observation at an allocation (noop pre-baseline)."""
        if self.baseline_ipc is None or self.baseline_ipc <= 0 or ipc <= 0:
            return
        norm = ipc / self.baseline_ipc
        prev = self.entries.get(ways)
        self.entries[ways] = (
            norm if prev is None else prev + self.ewma_alpha * (norm - prev)
        )

    def normalized(self, ways: int) -> Optional[float]:
        return self.entries.get(ways)

    def preferred_ways(self, tolerance: float = 0.02) -> Optional[int]:
        """Smallest allocation within ``tolerance`` of the best entry.

        This is the paper's "preferred" mark in Table 1: 6 ways is preferred
        when 6, 7, and 8 all reach the plateau.
        """
        if not self.entries:
            return None
        best = max(self.entries.values())
        candidates = [w for w, n in self.entries.items() if n >= best * (1 - tolerance)]
        return min(candidates) if candidates else None


class PerformanceTable:
    """All phase tables for one workload.

    Args:
        baseline_ways: The workload's reserved (contracted) way count.
    """

    def __init__(self, baseline_ways: int) -> None:
        if baseline_ways < 1:
            raise ValueError("baseline_ways must be >= 1")
        self.baseline_ways = baseline_ways
        self._phases: Dict[PhaseSignature, PhaseTable] = {}

    def phase(self, signature: PhaseSignature) -> PhaseTable:
        """The (created-on-demand) table for a phase signature."""
        table = self._phases.get(signature)
        if table is None:
            table = PhaseTable(baseline_ways=self.baseline_ways)
            self._phases[signature] = table
        return table

    def known_phase(self, signature: PhaseSignature) -> Optional[PhaseTable]:
        """The phase's table if it has a baseline recorded, else None."""
        table = self._phases.get(signature)
        if table is not None and table.baseline_ipc is not None:
            return table
        return None

    def invalidate(self, signature: PhaseSignature) -> None:
        """Drop a phase's contents (paper: tables are per-phase only)."""
        self._phases.pop(signature, None)

    def __len__(self) -> int:
        return len(self._phases)
