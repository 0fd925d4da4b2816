"""Declared phase schedules: operator hints the controller may trust.

dCat learns a workload's phase structure online — the detector notices a
phase change, the controller reclaims to baseline, and the performance
table is rebuilt from scratch.  Com-CAS-style systems instead let the
*tenant* declare its phase schedule up front ("compute for 10 s at 2 ways,
then a scan wanting 6").  A declared schedule can never be blindly trusted
(tenants lie, compilers mispredict), so each declared phase may carry the
``refs_per_instr`` signature the tenant expects; a strategy following the
schedule compares it against the measured counters and falls back to the
detector-driven plan when they diverge (trust-but-verify).

The types here depend only on the stdlib and the engine's field readers,
so the controller, the allocation strategies and the workload builders
can all share them without layering cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Type

from repro.engine.context import (
    _get_int,
    _get_number,
    _reject_unknown,
    _require_mapping,
)

__all__ = ["DeclaredPhase", "DeclaredSchedule", "PhaseHint"]

_PHASE_KEYS = ("start_s", "preferred_ways", "refs_per_instr")


@dataclass(frozen=True)
class DeclaredPhase:
    """One entry of a declared schedule.

    Attributes:
        start_s: Workload-relative time at which the phase begins.
        preferred_ways: The LLC allocation the tenant claims this phase
            wants (clamped to the socket by the consuming strategy).
        refs_per_instr: Optional expected memory-accesses-per-instruction
            signature; when present, strategies verify the measured
            counters against it before trusting ``preferred_ways``.
    """

    start_s: float
    preferred_ways: int
    refs_per_instr: Optional[float] = None


@dataclass(frozen=True)
class DeclaredSchedule:
    """An ordered, immutable sequence of declared phases."""

    phases: Tuple[DeclaredPhase, ...]

    def active_at(self, time_s: float) -> Optional[DeclaredPhase]:
        """The declared phase covering ``time_s``, or None before the first."""
        current: Optional[DeclaredPhase] = None
        for phase in self.phases:
            if phase.start_s <= time_s:
                current = phase
            else:
                break
        return current

    @classmethod
    def from_spec(
        cls,
        data: Any,
        ctx: str = "declared_phases",
        error: Type[ValueError] = ValueError,
    ) -> "DeclaredSchedule":
        """Parse the workload-spec ``declared_phases`` list.

        Expected shape::

            [{"start_s": 0, "preferred_ways": 2, "refs_per_instr": 0.05},
             {"start_s": 10, "preferred_ways": 6}]

        Raises:
            error: Naming the offending field (``ctx[i].key``).
        """
        if not isinstance(data, list) or not data:
            raise error(f"{ctx}: expected a non-empty list of phase objects")
        phases = []
        prev_start = None
        for i, raw in enumerate(data):
            entry_ctx = f"{ctx}[{i}]"
            entry = _require_mapping(raw, entry_ctx, error)
            _reject_unknown(entry, entry_ctx, _PHASE_KEYS, error)
            start = _get_number(
                entry, entry_ctx, "start_s", error, minimum=0, required=True
            )
            if prev_start is not None and start <= prev_start:
                raise error(
                    f"{entry_ctx}.start_s: must increase "
                    f"(got {start:g} after {prev_start:g})"
                )
            prev_start = start
            phases.append(
                DeclaredPhase(
                    start_s=start,
                    preferred_ways=_get_int(
                        entry, entry_ctx, "preferred_ways", error,
                        minimum=1, required=True,
                    ),
                    refs_per_instr=_get_number(
                        entry, entry_ctx, "refs_per_instr", error, positive=True
                    ),
                )
            )
        return cls(phases=tuple(phases))


@dataclass(frozen=True)
class PhaseHint:
    """Per-interval hint the controller hands the allocation strategy.

    Attributes:
        time_s: Controller time of the interval being planned.
        schedule: The workload's declared phase schedule.
        measured_refs_per_instr: This interval's measured
            memory-accesses-per-instruction, for trust-but-verify.
    """

    time_s: float
    schedule: DeclaredSchedule
    measured_refs_per_instr: float
