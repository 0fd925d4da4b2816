"""Physical address decomposition and cache geometry math.

An x86 last-level cache is physically indexed: the set an address maps to is
determined by bits of the *physical* address just above the line offset.  All
of the conflict-miss behaviour the dCat paper studies in its Figures 2 and 3
falls out of this decomposition, so it lives in its own small module that the
cache models, the paging model and the analytic conflict math all share.

Addresses are plain integers (byte addresses).  Vectorized variants accept
numpy arrays of addresses and are used by the workload generators, which
produce access streams as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CacheGeometry", "is_power_of_two", "KB", "MB"]

KB = 1024
MB = 1024 * KB


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of a set-associative cache.

    Parameters mirror how Intel documents its LLCs: total capacity is
    ``line_size * num_sets * num_ways``.  The dCat paper's two machines are
    available as the :func:`xeon_d` and :func:`xeon_e5` constructors.

    Attributes:
        line_size: Cache line size in bytes (64 on all modern x86).
        num_sets: Number of sets.  Need not be a power of two: Broadwell
            LLCs are sliced and hash addresses, so per-slice set counts like
            the Xeon-E5's 36864 arise; we model indexing as ``line_id mod
            num_sets`` which preserves the scatter statistics.
        num_ways: Associativity.  Intel CAT partitions capacity in units of
            ways, so this is also the number of allocatable units.
    """

    line_size: int = 64
    num_sets: int = 1024
    num_ways: int = 16

    def __post_init__(self) -> None:
        if not is_power_of_two(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if self.num_sets < 1:
            raise ValueError(f"num_sets must be >= 1, got {self.num_sets}")
        if self.num_ways < 1:
            raise ValueError(f"num_ways must be >= 1, got {self.num_ways}")

    # -- derived sizes ----------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        """Total capacity in bytes."""
        return self.line_size * self.num_sets * self.num_ways

    @property
    def way_bytes(self) -> int:
        """Capacity of a single way in bytes (the CAT allocation unit)."""
        return self.line_size * self.num_sets

    @property
    def offset_bits(self) -> int:
        """Number of line-offset bits."""
        return int(self.line_size).bit_length() - 1

    def ways_for_bytes(self, size_bytes: int) -> int:
        """Smallest number of ways whose combined capacity holds ``size_bytes``."""
        return max(1, -(-size_bytes // self.way_bytes))

    # -- scalar decomposition ---------------------------------------------

    def set_index(self, paddr: int) -> int:
        """Return the set that physical address ``paddr`` maps to."""
        return (paddr >> self.offset_bits) % self.num_sets

    def tag(self, paddr: int) -> int:
        """Return the tag (the line id above the set index)."""
        return (paddr >> self.offset_bits) // self.num_sets

    def line_id_of(self, set_index: int, tag: int) -> int:
        """Reconstruct a physical line id from its (set, tag) pair."""
        return tag * self.num_sets + set_index

    # -- vectorized decomposition -------------------------------------------

    def set_indices(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`set_index` over an array of physical addresses."""
        return (paddrs >> self.offset_bits) % self.num_sets

    def tags(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`tag` over an array of physical addresses."""
        return (paddrs >> self.offset_bits) // self.num_sets

    def line_ids(self, paddrs: np.ndarray) -> np.ndarray:
        """Vectorized unique-line identifiers (address without offset bits)."""
        return paddrs >> self.offset_bits

    # -- paper machines -----------------------------------------------------

    @classmethod
    def xeon_d(cls) -> "CacheGeometry":
        """Xeon-D LLC from the paper: 12-way, 12 MB, 64 B lines (16384 sets)."""
        return cls(line_size=64, num_sets=12 * MB // (64 * 12), num_ways=12)

    @classmethod
    def xeon_e5(cls) -> "CacheGeometry":
        """Xeon E5-2697 v4 LLC from the paper: 20-way, 45 MB, 36864 sets,
        2.25 MB per way."""
        return cls(line_size=64, num_sets=45 * MB // (64 * 20), num_ways=20)
