"""Virtual-to-physical address translation with 4 KB and 2 MB pages.

The dCat paper's Figures 2 and 3 show that even when a CAT allocation is
large enough to hold a working set, *conflict misses* still occur because a
contiguous virtual buffer is scattered across physical frames, so cache-set
occupancy is uneven.  Huge pages reduce the scatter (a 2 MB frame covers many
consecutive sets exactly once) but do not eliminate it once the working set
spans several huge pages.

This module reproduces that machinery: a :class:`PageTable` assigns physical
frames to virtual pages pseudo-randomly from a large physical address space
(modeling a fragmented, long-running host), and translation is exposed both
per-address and vectorized over numpy arrays so workload generators can map
entire buffers at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.mem.address import KB, MB, is_power_of_two

__all__ = ["PAGE_4K", "PAGE_2M", "PageTable", "MappedBuffer"]

PAGE_4K = 4 * KB
PAGE_2M = 2 * MB


class OutOfPhysicalMemoryError(RuntimeError):
    """Raised when the page table has no free frames left to hand out."""


@dataclass
class MappedBuffer:
    """A virtually contiguous buffer with a completed physical mapping.

    Attributes:
        vbase: Virtual base address (page aligned).
        size: Size in bytes.
        page_size: Page size used for the mapping.
    """

    vbase: int
    size: int
    page_size: int


class PageTable:
    """Single-address-space page table with pseudo-random frame allocation.

    The table models one tenant's view of memory.  Frames are drawn without
    replacement from a physical space of ``phys_bytes`` using the supplied
    RNG, mimicking the effectively random frame placement a guest sees on a
    fragmented host.  Both 4 KB and 2 MB pages may be mapped in the same
    table (they draw from disjoint frame pools, as a real buddy allocator
    with reserved hugetlb pages would).

    Args:
        page_size: Default page size for :meth:`map_buffer`.
        phys_bytes: Size of the physical address space frames are drawn from.
        rng: numpy random generator; pass a seeded generator for
            reproducibility.  Defaults to a fixed seed.
    """

    def __init__(
        self,
        page_size: int = PAGE_4K,
        phys_bytes: int = 4 * 1024 * MB,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if page_size not in (PAGE_4K, PAGE_2M):
            raise ValueError(f"page_size must be 4 KiB or 2 MiB, got {page_size}")
        if not is_power_of_two(phys_bytes):
            raise ValueError("phys_bytes must be a power of two")
        if phys_bytes < 2 * PAGE_2M:
            raise ValueError("physical space too small to be useful")
        self.page_size = page_size
        self.phys_bytes = phys_bytes
        self._rng = rng if rng is not None else np.random.default_rng(0x0DCA7)
        # Virtual page number -> (physical frame number, page size).
        self._mappings: Dict[int, int] = {}
        self._huge_mappings: Dict[int, int] = {}
        self._used_4k_frames: set = set()
        self._used_2m_frames: set = set()
        self._next_vbase = 0x10000 * PAGE_2M  # arbitrary non-zero start

    # -- allocation ---------------------------------------------------------

    def _alloc_frame(self, page_size: int) -> int:
        """Draw an unused frame number of the given page size."""
        nframes = self.phys_bytes // page_size
        used = self._used_4k_frames if page_size == PAGE_4K else self._used_2m_frames
        if len(used) >= nframes:
            raise OutOfPhysicalMemoryError(
                f"exhausted {nframes} frames of size {page_size}"
            )
        while True:
            frame = int(self._rng.integers(0, nframes))
            if frame not in used:
                used.add(frame)
                return frame

    def map_page(self, vaddr: int, page_size: Optional[int] = None) -> int:
        """Ensure the page containing ``vaddr`` is mapped; return its frame.

        Idempotent: re-mapping an already-mapped page returns the existing
        frame.
        """
        psize = page_size or self.page_size
        vpn = vaddr // psize
        table = self._mappings if psize == PAGE_4K else self._huge_mappings
        frame = table.get(vpn)
        if frame is None:
            frame = self._alloc_frame(psize)
            table[vpn] = frame
        return frame

    def map_buffer(self, size: int, page_size: Optional[int] = None) -> MappedBuffer:
        """Allocate and fully map a virtually contiguous buffer.

        Returns a :class:`MappedBuffer` whose pages are all resident, so
        later translation never faults.  Buffers are page aligned and carved
        from a monotonically increasing virtual cursor (no reuse), matching
        how the paper's microbenchmarks malloc one large array each.
        """
        if size <= 0:
            raise ValueError("buffer size must be positive")
        psize = page_size or self.page_size
        vbase = self._next_vbase
        npages = -(-size // psize)
        self._next_vbase = vbase + npages * max(psize, PAGE_2M)
        for i in range(npages):
            self.map_page(vbase + i * psize, psize)
        return MappedBuffer(vbase=vbase, size=size, page_size=psize)

    # -- translation ----------------------------------------------------------

    def translate(self, vaddr: int, page_size: Optional[int] = None) -> int:
        """Translate one virtual address; raises KeyError if unmapped."""
        psize = page_size or self.page_size
        table = self._mappings if psize == PAGE_4K else self._huge_mappings
        vpn, offset = divmod(vaddr, psize)
        frame = table[vpn]
        return frame * psize + offset

    def translate_buffer(self, buf: MappedBuffer, voffsets: np.ndarray) -> np.ndarray:
        """Vectorized translation of offsets into a mapped buffer.

        Args:
            buf: A buffer previously returned by :meth:`map_buffer`.
            voffsets: Array of byte offsets into the buffer (``< buf.size``).

        Returns:
            Array of physical byte addresses, same shape as ``voffsets``.
        """
        psize = buf.page_size
        table = self._mappings if psize == PAGE_4K else self._huge_mappings
        vaddrs = buf.vbase + voffsets
        vpns = vaddrs // psize
        unique_vpns = np.unique(vpns)
        # Dense lookup: map each unique vpn to its frame, then gather.
        frame_of = {vpn: table[int(vpn)] for vpn in unique_vpns}
        frames = np.array([frame_of[int(v)] for v in vpns.ravel()], dtype=np.int64)
        return (frames * psize + (vaddrs % psize)).reshape(np.shape(voffsets))

    def physical_lines(self, buf: MappedBuffer, line_size: int = 64) -> np.ndarray:
        """Physical line addresses backing every line of a mapped buffer.

        This is the input to the conflict-scatter analysis (paper Fig. 3):
        given the buffer's physical layout, which cache sets do its lines
        land in?
        """
        nlines = -(-buf.size // line_size)
        offsets = np.arange(nlines, dtype=np.int64) * line_size
        return self.translate_buffer(buf, offsets)
