"""Phase-change detection on memory accesses per instruction (paper §3.3).

dCat's phase signal is ``l1_ref / ret_ins`` — memory accesses per retired
instruction.  The paper verifies (its Fig. 5) that this ratio depends only
on the workload's code, not on its cache allocation, which is exactly the
property a phase detector needs: IPC moves when dCat moves ways, the phase
signature must not.

A change of more than 10% (configurable) against the reference value set at
the last phase boundary declares a new phase.  Each phase also gets a stable
*signature* — the ratio quantized into 10%-wide geometric buckets — used to
key the performance table so a re-encountered phase is recognized (paper
Fig. 12).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

__all__ = ["PhaseSignature", "PhaseDetector"]


class PhaseSignature(NamedTuple):
    """Stable identifier for a workload phase.

    ``bucket`` is the geometric quantization of mem-accesses-per-instruction;
    ``idle`` marks the do-nothing phase, which never keys a performance
    table.
    """

    bucket: int
    idle: bool = False

    @classmethod
    def idle_signature(cls) -> "PhaseSignature":
        return cls(bucket=0, idle=True)


_IDLE_SIGNATURE = PhaseSignature.idle_signature()


class PhaseDetector:
    """Per-workload phase tracker.

    Args:
        threshold: Relative change that declares a phase boundary (0.10).
        min_refs_per_instr: Ratios below this are treated as idle.
    """

    def __init__(self, threshold: float = 0.10, min_refs_per_instr: float = 1e-6) -> None:
        if not 0 < threshold < 1:
            raise ValueError("threshold must be in (0, 1)")
        self.threshold = threshold
        self.min_refs_per_instr = min_refs_per_instr
        self._reference: Optional[float] = None
        self._idle: bool = False
        # Recomputed only when the reference moves: every interval reads
        # the signature, but most intervals keep their reference.
        self._signature = _IDLE_SIGNATURE

    # -- signatures ------------------------------------------------------------

    def signature_for(self, refs_per_instr: float) -> PhaseSignature:
        """Quantize a ratio into its phase signature."""
        if refs_per_instr < self.min_refs_per_instr:
            return _IDLE_SIGNATURE
        # Buckets are geometric with ratio (1 + threshold), so two ratios
        # within the detection threshold of each other share a bucket (up to
        # boundary effects), and a re-encountered phase re-derives the same
        # signature.
        width = math.log1p(self.threshold)
        return PhaseSignature(bucket=int(round(math.log(refs_per_instr) / width)))

    @property
    def current_signature(self) -> PhaseSignature:
        """The reference's signature; idle while idle or unset."""
        return self._signature

    # -- detection ---------------------------------------------------------------

    def observe(self, refs_per_instr: float, idle: bool = False) -> bool:
        """Feed one interval's ratio; returns True on a phase change.

        Args:
            refs_per_instr: This interval's l1_ref / ret_ins.
            idle: Whether the workload was idle this interval (near-zero
                unhalted cycles); idle-to-active and active-to-idle
                transitions are phase changes.
        """
        if idle or refs_per_instr < self.min_refs_per_instr:
            changed = not self._idle and self._reference is not None
            self._idle = True
            self._reference = None
            self._signature = _IDLE_SIGNATURE
            return changed

        if self._idle or self._reference is None:
            # Waking up (or first observation): a new phase begins.
            first = self._reference is None and not self._idle
            self._idle = False
            self._reference = refs_per_instr
            self._signature = self.signature_for(refs_per_instr)
            return not first  # the very first observation is not a "change"

        relative = abs(refs_per_instr - self._reference) / self._reference
        if relative > self.threshold:
            self._reference = refs_per_instr
            self._signature = self.signature_for(refs_per_instr)
            return True
        return False

    def reset(self) -> None:
        """Forget the reference (used when a workload restarts)."""
        self._reference = None
        self._idle = False
        self._signature = _IDLE_SIGNATURE
