"""pqos-style library API over the CAT device.

The original dCat daemon links against Intel's ``pqos`` library.  This module
reproduces the slice of its API dCat uses — L3 CA mask programming and
core-to-COS association — plus the capability query, so the controller code
reads like the C program it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Tuple

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cos import mask_way_count

__all__ = ["PqosError", "PqosCapability", "PqosL3Ca", "PqosLibrary"]


class PqosError(RuntimeError):
    """A pqos operation failed (the library-call analogue of PQOS_RETVAL_ERROR).

    The validated in-memory backend never raises this on well-formed input;
    it exists as the canonical error type for transient hardware-path
    failures, which :mod:`repro.faults` injects and the hardened controller
    retries against.
    """


@dataclass(frozen=True)
class PqosCapability:
    """What the platform's allocation hardware supports (pqos_cap_get)."""

    num_cos: int
    num_ways: int
    way_size_bytes: int
    min_cbm_bits: int


class PqosL3Ca(NamedTuple):
    """One L3 CA table entry, as pqos_l3ca_get returns it."""

    cos_id: int
    ways_mask: int

    @property
    def num_ways(self) -> int:
        return mask_way_count(self.ways_mask)


class PqosLibrary:
    """Thin, validated wrapper over :class:`CacheAllocationTechnology`.

    Args:
        cat: The CAT device to program.
        way_size_bytes: Per-way capacity, reported in capabilities (the
            paper's Xeon-E5 has 2.25 MB ways).
    """

    def __init__(self, cat: CacheAllocationTechnology, way_size_bytes: int) -> None:
        self._cat = cat
        self._way_size = way_size_bytes

    # -- capability --------------------------------------------------------

    def cap_get(self) -> PqosCapability:
        """Describe the allocation hardware (mirrors pqos_cap_get)."""
        return PqosCapability(
            num_cos=self._cat.num_cos,
            num_ways=self._cat.num_ways,
            way_size_bytes=self._way_size,
            min_cbm_bits=self._cat.min_cbm_bits,
        )

    # -- L3 CA -----------------------------------------------------------------

    def l3ca_set(self, entries: Iterable[PqosL3Ca]) -> None:
        """Program one or more COS masks (mirrors pqos_l3ca_set).

        The whole batch is validated before anything is written, so a bad
        entry can never leave the COS table partially programmed — either
        every entry lands or none does (the real library likewise validates
        the full request before touching IA32_L3_MASK_n); the device's
        :meth:`~repro.cat.cat.CacheAllocationTechnology.set_cos_masks`
        does both.  An entry is a ``(cos_id, ways_mask)`` tuple, so the
        batch goes to the device as it is.

        Raises:
            ValueError: If any entry's COS id or bitmask is invalid; no
                mask has been written when this raises.
        """
        self._cat.set_cos_masks(entries)

    def l3ca_get(self) -> List[PqosL3Ca]:
        """Read back the full COS table (mirrors pqos_l3ca_get)."""
        return [
            PqosL3Ca(cos_id=i, ways_mask=self._cat.cos_mask(i))
            for i in range(self._cat.num_cos)
        ]

    def l3ca_masks(self) -> Tuple[int, ...]:
        """The COS table as plain ints, indexed by COS id: ``l3ca_get``
        without an entry object per COS (the verify-after-write read)."""
        return self._cat.cos_masks()

    # -- association ---------------------------------------------------------------

    def alloc_assoc_set(self, core: int, cos_id: int) -> None:
        """Associate a core with a COS (mirrors pqos_alloc_assoc_set)."""
        self._cat.associate_core(core, cos_id)

    def alloc_assoc_get(self, core: int) -> int:
        """Read a core's COS association (mirrors pqos_alloc_assoc_get)."""
        return self._cat.core_cos(core)

    def assoc_map(self) -> Dict[int, int]:
        """All core associations at once (convenience, not in real pqos)."""
        return {c: self._cat.core_cos(c) for c in range(self._cat.num_cores)}
