"""Class-of-service definitions and capacity-bitmask (CBM) validation.

Intel CAT exposes L3 partitioning as a small table of classes of service
(COS), each holding a capacity bitmask over the LLC's ways.  Hardware
enforces three rules which we reproduce exactly, because dCat's allocator
has to respect them:

* a CBM must have at least ``min_cbm_bits`` bits set (1 on the paper's
  parts — "Intel x86 does not allow to allocate 0 way");
* the set bits must be *contiguous*;
* there are at most 16 COS per L3 cache.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "MAX_COS",
    "validate_cbm",
    "contiguous_mask",
    "mask_way_count",
    "mask_ways",
    "is_contiguous",
    "ClassOfService",
]

MAX_COS = 16


def mask_way_count(mask: int) -> int:
    """Number of ways enabled in a mask."""
    return bin(mask).count("1")


def mask_ways(mask: int) -> list:
    """Indices of the ways enabled in a mask, ascending."""
    ways = []
    w = 0
    while mask >> w:
        if (mask >> w) & 1:
            ways.append(w)
        w += 1
    return ways


def is_contiguous(mask: int) -> bool:
    """True if the set bits of ``mask`` form one contiguous run."""
    if mask <= 0:
        return False
    shifted = mask >> (mask & -mask).bit_length() - 1
    return (shifted & (shifted + 1)) == 0


def contiguous_mask(first_way: int, num_ways: int) -> int:
    """Build a contiguous mask of ``num_ways`` ways starting at ``first_way``."""
    if num_ways < 1:
        raise ValueError("a CBM must cover at least one way")
    if first_way < 0:
        raise ValueError("first_way must be non-negative")
    return ((1 << num_ways) - 1) << first_way


def validate_cbm(mask: int, num_ways: int, min_cbm_bits: int = 1) -> int:
    """Validate a capacity bitmask against hardware rules; returns the mask.

    Raises:
        ValueError: If the mask is empty, exceeds the cache's ways, has
            fewer than ``min_cbm_bits`` bits, or is non-contiguous.
    """
    if mask <= 0:
        raise ValueError("CBM must enable at least one way (0-way CBMs are illegal)")
    if mask >= (1 << num_ways) << 1 or mask > (1 << num_ways) - 1:
        raise ValueError(
            f"CBM {mask:#x} references ways beyond the cache's {num_ways}"
        )
    if mask_way_count(mask) < min_cbm_bits:
        raise ValueError(
            f"CBM {mask:#x} has fewer than min_cbm_bits={min_cbm_bits} bits"
        )
    if not is_contiguous(mask):
        raise ValueError(f"CBM {mask:#x} is not contiguous")
    return mask


@dataclass
class ClassOfService:
    """One COS entry: an id and its current capacity bitmask."""

    cos_id: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.cos_id < MAX_COS:
            raise ValueError(f"cos_id must be in [0, {MAX_COS}), got {self.cos_id}")
