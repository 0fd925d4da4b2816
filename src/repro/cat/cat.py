"""The CAT device model: COS table plus core-to-COS association.

This is the "hardware" side of cache allocation.  Controllers never touch it
directly — they go through :class:`repro.cat.pqos.PqosLibrary` or the
resctrl frontend, both of which program this device, mirroring how the real
dCat daemon drives MSR writes through the pqos library.

The simulator reads the COS table each interval, so a mask write takes
effect on the modeled cache at the next interval; observers learn of mask
changes from the ``MasksProgrammed`` events on the bus.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.cat.cos import MAX_COS, validate_cbm

__all__ = ["CacheAllocationTechnology"]


class CacheAllocationTechnology:
    """CAT state for one L3 cache.

    Args:
        num_ways: LLC associativity (CBM width).
        num_cores: Cores on the socket (association table size).
        num_cos: Supported classes of service (16 on the paper's parts).
        min_cbm_bits: Minimum bits per CBM (1 on the paper's parts).
    """

    def __init__(
        self,
        num_ways: int,
        num_cores: int,
        num_cos: int = MAX_COS,
        min_cbm_bits: int = 1,
    ) -> None:
        if num_cos < 1 or num_cos > MAX_COS:
            raise ValueError(f"num_cos must be in [1, {MAX_COS}]")
        if num_ways < 1 or num_cores < 1:
            raise ValueError("need at least one way and one core")
        self.num_ways = num_ways
        self.num_cores = num_cores
        self.num_cos = num_cos
        self.min_cbm_bits = min_cbm_bits
        full = (1 << num_ways) - 1
        # Power-on state: every COS maps the full cache, every core in COS0.
        self._cos_masks: List[int] = [full] * num_cos
        self._core_cos: List[int] = [0] * num_cores

    # -- programming ----------------------------------------------------------

    def set_cos_mask(self, cos_id: int, mask: int) -> None:
        """Program a COS capacity bitmask (validated against hardware rules)."""
        self.set_cos_masks(((cos_id, mask),))

    def set_cos_masks(self, entries: Iterable[Tuple[int, int]]) -> None:
        """Program several ``(cos_id, mask)`` pairs as one batch.

        Every entry is validated before any is written, so a bad entry
        never leaves the table partially programmed.

        Raises:
            ValueError: If any COS id or bitmask is invalid; nothing has
                been written when this raises.
        """
        batch = list(entries)
        for cos_id, mask in batch:
            self._check_cos(cos_id)
            validate_cbm(mask, self.num_ways, self.min_cbm_bits)
        for cos_id, mask in batch:
            self._cos_masks[cos_id] = mask

    def associate_core(self, core: int, cos_id: int) -> None:
        """Point a core's IA32_PQR_ASSOC at a COS."""
        self._check_core(core)
        self._check_cos(cos_id)
        self._core_cos[core] = cos_id

    def reset(self) -> None:
        """Restore power-on state (all COS full-mask, all cores to COS0)."""
        full = (1 << self.num_ways) - 1
        for cos_id in range(self.num_cos):
            self.set_cos_mask(cos_id, full)
        for core in range(self.num_cores):
            self.associate_core(core, 0)

    # -- queries ----------------------------------------------------------------

    def cos_mask(self, cos_id: int) -> int:
        self._check_cos(cos_id)
        return self._cos_masks[cos_id]

    def cos_masks(self) -> Tuple[int, ...]:
        """Every COS's capacity bitmask, indexed by COS id."""
        return tuple(self._cos_masks)

    def core_cos(self, core: int) -> int:
        self._check_core(core)
        return self._core_cos[core]

    def effective_mask(self, core: int) -> int:
        """The way mask governing this core's LLC fills right now."""
        return self._cos_masks[self.core_cos(core)]

    def masks_overlap(self, cos_a: int, cos_b: int) -> bool:
        """True if two classes share any way (dCat avoids this by policy)."""
        return bool(self.cos_mask(cos_a) & self.cos_mask(cos_b))

    def snapshot(self) -> Dict[str, object]:
        """Debug/reporting snapshot of the full CAT state."""
        return {
            "cos_masks": list(self._cos_masks),
            "core_cos": list(self._core_cos),
        }

    # -- guards -----------------------------------------------------------------

    def _check_cos(self, cos_id: int) -> None:
        if not 0 <= cos_id < self.num_cos:
            raise ValueError(f"cos_id {cos_id} out of range [0, {self.num_cos})")

    def _check_core(self, core: int) -> None:
        if not 0 <= core < self.num_cores:
            raise ValueError(f"core {core} out of range [0, {self.num_cores})")
