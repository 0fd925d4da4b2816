"""Conflict-miss analysis: how buffer lines scatter across cache sets.

Paper Figures 2 and 3 show that a CAT allocation sized exactly to a working
set still misses, because virtual-to-physical mapping scatters the buffer's
lines unevenly over cache sets: some sets receive more lines than the
allocated associativity and thrash.  This module provides

* exact scatter computation from a concrete physical layout (numpy bincount
  over set indices), and
* the closed-form steady-state hit rate of uniform-random (IRM) accesses
  over that scatter under LRU,

plus an analytic binomial approximation used by the fast cache model so the
platform simulator never needs a concrete layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from numpy.random import default_rng

from repro.mem.address import CacheGeometry
from repro.mem.paging import PAGE_4K, PageTable

__all__ = [
    "lines_per_set",
    "set_occupancy_histogram",
    "uniform_irm_hit_rate",
    "conflicted_set_fraction",
    "simulated_scatter_hit_rate",
    "ScatterSummary",
    "analyze_buffer_scatter",
]


def lines_per_set(phys_line_addrs: np.ndarray, geometry: CacheGeometry) -> np.ndarray:
    """Count how many of the given physical lines map to each cache set.

    Args:
        phys_line_addrs: Physical byte addresses of the buffer's lines (one
            per line, e.g. from :meth:`PageTable.physical_lines`).
        geometry: The cache whose sets we are scattering into.

    Returns:
        int64 array of length ``geometry.num_sets``.
    """
    sets = geometry.set_indices(phys_line_addrs.astype(np.int64))
    return np.bincount(sets, minlength=geometry.num_sets).astype(np.int64)


def set_occupancy_histogram(per_set: np.ndarray) -> Dict[int, float]:
    """Fraction of sets receiving exactly k lines, for each observed k.

    This is the paper's Figure 3 series.
    """
    total = per_set.size
    ks, counts = np.unique(per_set, return_counts=True)
    return {int(k): float(c) / total for k, c in zip(ks, counts)}


def uniform_irm_hit_rate(per_set: np.ndarray, allocated_ways: int) -> float:
    """Steady-state LRU hit rate of uniform random accesses over a scatter.

    For a set holding ``k`` of the buffer's lines with ``a`` allocated ways:
    if ``k <= a`` every access to that set hits after warm-up; otherwise the
    cache holds ``a`` of the ``k`` equally likely lines, so an access hits
    with probability ``a / k`` (exact for the independent-reference model —
    any demand-fill policy keeps some ``a``-subset resident and accesses are
    uniform).  Accesses land on a set in proportion to its line count, hence

        hit_rate = sum_s min(k_s, a) / L
    """
    if allocated_ways < 1:
        raise ValueError("allocated_ways must be >= 1")
    total_lines = int(per_set.sum())
    if total_lines == 0:
        return 0.0
    resident = np.minimum(per_set, allocated_ways).sum()
    return float(resident) / total_lines


def conflicted_set_fraction(per_set: np.ndarray, allocated_ways: int) -> float:
    """Fraction of *occupied* sets holding more lines than the allocated ways."""
    occupied = per_set > 0
    if not occupied.any():
        return 0.0
    return float(np.count_nonzero(per_set > allocated_ways)) / int(occupied.sum())


def simulated_scatter_hit_rate(
    wss_bytes: int,
    geometry: CacheGeometry,
    allocated_ways: int,
    page_size: int = PAGE_4K,
    phys_bytes: int = 8 << 30,
    seed: int = 1,
    samples: int = 5,
) -> float:
    """Expected IRM hit rate for a random physical layout, without a cache sim.

    Draws ``samples`` independent page-table layouts, computes each exact
    scatter and closed-form hit rate, and averages.  This is the reference
    the fast analytical model is validated against, and is itself orders of
    magnitude faster than running the tag-array simulator to steady state.
    """
    rates = []
    for i in range(samples):
        table = PageTable(
            page_size=page_size, phys_bytes=phys_bytes, rng=default_rng(seed + i)
        )
        buf = table.map_buffer(wss_bytes)
        layout = table.physical_lines(buf, line_size=geometry.line_size)
        per_set = lines_per_set(layout, geometry)
        rates.append(uniform_irm_hit_rate(per_set, allocated_ways))
    return float(np.mean(rates))


@dataclass
class ScatterSummary:
    """Summary of one buffer's set scatter (one bar group of paper Fig. 3)."""

    wss_bytes: int
    page_size: int
    allocated_ways: int
    histogram: Dict[int, float]
    conflicted_fraction: float
    irm_hit_rate: float


def analyze_buffer_scatter(
    wss_bytes: int,
    geometry: CacheGeometry,
    allocated_ways: int,
    page_size: int = PAGE_4K,
    seed: int = 1,
) -> ScatterSummary:
    """Map a buffer, compute its scatter and conflict statistics.

    Reproduces one configuration of the paper's Figure 3 (e.g. Xeon-D, 2 MB
    working set, 2 ways, 4 KB pages -> ~32.5% of sets with 3+ lines).
    """
    table = PageTable(page_size=page_size, rng=default_rng(seed))
    buf = table.map_buffer(wss_bytes)
    layout = table.physical_lines(buf, line_size=geometry.line_size)
    per_set = lines_per_set(layout, geometry)
    return ScatterSummary(
        wss_bytes=wss_bytes,
        page_size=page_size,
        allocated_ways=allocated_ways,
        histogram=set_occupancy_histogram(per_set),
        conflicted_fraction=conflicted_set_fraction(per_set, allocated_ways),
        irm_hit_rate=uniform_irm_hit_rate(per_set, allocated_ways),
    )
