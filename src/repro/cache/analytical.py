"""Fast statistical LLC model used by the platform simulator.

The dCat controller never sees individual cache accesses — only per-interval
counter totals.  So the multi-tenant platform simulator does not need to walk
a tag array for every reference; it needs, per workload and interval, an
accurate *expected hit rate* given the workload's access pattern, working-set
size, page size, and current way allocation.  This module provides that as
closed-form math, derived from (and validated in the test suite against) the
exact :mod:`repro.cache.setassoc` model:

* ``RANDOM`` (MLR-style uniform pointer chasing): the scatter of lines over
  sets follows a binomial at page-group granularity; hit rate is
  ``E[min(k, ways)] / E[k]`` (see :mod:`repro.cache.conflict`).
* ``SEQUENTIAL`` (MLOAD-style cyclic streaming): under LRU a cyclic pattern
  either fits (every set's k <= ways -> ~100% hits after warm-up) or thrashes
  (0% reuse); per-set, hit mass comes only from non-conflicted sets.
* ``ZIPF`` (cloud-application style skewed reuse): the cache retains the
  hottest lines; hit rate is the popularity mass of the resident set, with
  conflict scatter discounting the *effective capacity* (conflicted sets
  waste slots, they do not destroy the head of the popularity curve).
* ``HOTCOLD`` (two-tier reuse): a fraction ``hot_fraction`` of references
  go to a ``hot_bytes`` hot set, the rest to the cold remainder — the
  piecewise-linear miss curve typical of servers with an index/hash core
  plus a long value tail (Redis, PostgreSQL, Elasticsearch).
* ``NONE`` (lookbusy): no LLC traffic at all.

All curves are memoized; the simulator asks for thousands of evaluations per
experiment and each unique configuration is computed once.
"""

from __future__ import annotations

import enum
import functools
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import ModuleSpec
from importlib.util import module_from_spec
from typing import Dict, Tuple

import numpy as np
import scipy

from repro.mem.address import CacheGeometry
from repro.mem.paging import PAGE_4K

__all__ = ["AccessPattern", "Footprint", "AnalyticalCacheModel"]


class AccessPattern(enum.Enum):
    """Memory access pattern of a workload, as the cache model sees it."""

    RANDOM = "random"
    SEQUENTIAL = "sequential"
    ZIPF = "zipf"
    HOTCOLD = "hotcold"
    NONE = "none"


@dataclass(frozen=True)
class Footprint:
    """A workload phase's cache-relevant footprint.

    Attributes:
        pattern: Reuse structure.
        wss_bytes: Total working-set size.
        page_size: Backing page size (drives conflict scatter).
        zipf_s: Zipf exponent for ``ZIPF`` (None -> model default).
        hot_bytes: Hot-tier size for ``HOTCOLD``.
        hot_fraction: Fraction of references hitting the hot tier.
    """

    pattern: AccessPattern
    wss_bytes: int
    page_size: int = PAGE_4K
    zipf_s: float | None = None
    hot_bytes: int | None = None
    hot_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.pattern is AccessPattern.HOTCOLD:
            if not self.hot_bytes or self.hot_fraction is None:
                raise ValueError("HOTCOLD needs hot_bytes and hot_fraction")
            if not 0.0 < self.hot_fraction <= 1.0:
                raise ValueError("hot_fraction must be in (0, 1]")
            if self.hot_bytes > self.wss_bytes:
                raise ValueError("hot_bytes cannot exceed wss_bytes")
        # What the cache model's memo is keyed by: equal exactly when the
        # footprints are, and a plain tuple hashes without running the
        # generated ``__hash__`` and the enum's on every lookup.
        object.__setattr__(self, "_memo_key", (
            self.pattern.value, self.wss_bytes, self.page_size,
            self.zipf_s, self.hot_bytes, self.hot_fraction,
        ))


def _load_binom_pmf() -> np.ufunc:
    """SciPy's ``scipy.special._ufuncs._binom_pmf``, without running
    ``scipy/special/__init__.py`` unless something already has.

    That ``__init__`` loads SciPy's array-API shims (and with them
    ``numpy.f2py`` and ``numpy.testing``): about 0.25 s and 13 MB of a cold
    boot, for one ufunc.  A bare package module stands in for
    ``scipy.special`` while ``_ufuncs`` loads, so only the extension
    modules it needs load; the stand-in is dropped afterwards, and a later
    ``import scipy.special`` runs the real ``__init__`` over the cached
    extension modules, which hold this same ufunc.
    """
    name = "scipy.special"
    if name in sys.modules:
        from scipy.special._ufuncs import _binom_pmf
        return _binom_pmf
    spec = ModuleSpec(name, None, is_package=True)
    spec.submodule_search_locations.append(
        os.path.join(os.path.dirname(scipy.__file__), "special")
    )
    sys.modules[name] = module_from_spec(spec)
    try:
        from scipy.special._ufuncs import _binom_pmf
    finally:
        del sys.modules[name]
    return _binom_pmf


_binom_pmf = _load_binom_pmf()


def _binomial_pmf(ks: np.ndarray, n: int, p: float) -> np.ndarray:
    """Binom(n, p) pmf at ``ks``, bit for bit SciPy's ``binom(n, p).pmf(ks)``.

    SciPy's distribution object evaluates this same boost kernel and clips
    it to [0, 1]; for in-support ``ks`` (``0 <= k <= n``, ``0 < p < 1``)
    that is all it does, and calling the kernel directly spares every
    process the ~1 s import of SciPy's statistics package.
    """
    return np.clip(_binom_pmf(ks, n, p), 0.0, 1.0)


@functools.lru_cache(maxsize=4096)
def _scatter_min_expectation(
    n_full: int, p_full: float, p_rem: float, base: int, ways: int
) -> Tuple[float, float, float]:
    """Moments of the lines-per-set count k = base + Binom(n_full, p_full) + Bern(p_rem).

    A buffer of ``n_full`` whole pages plus a partial page scatters over the
    sets as follows: every whole page deposits a deterministic ``base`` share
    on all sets (pages larger than the set span blanket it) plus covers a
    ``p_full`` fraction of sets with one extra line; the partial page covers
    a ``p_rem`` fraction.  Treating page placements as independent, a set's
    line count is the sum above.

    Returns:
        ``(E[min(k, ways)], E[k * 1(k <= ways)], E[k])``.
    """
    if n_full <= 0 and p_rem <= 0.0 and base <= 0:
        return 0.0, 0.0, 0.0
    mean = n_full * max(p_full, 0.0)
    if n_full > 0 and p_full > 0.0:
        kmax = int(max(ways + 1, mean + 12 * math.sqrt(max(mean, 1.0)) + 12))
        kmax = min(kmax, n_full)
        ks = np.arange(0, kmax + 1)
        pmf = _binomial_pmf(ks, n_full, p_full)
    else:
        ks = np.arange(0, 1)
        pmf = np.array([1.0])
    tail = max(0.0, 1.0 - float(pmf.sum()))
    # Convolve with the partial page's Bernoulli(p_rem).
    if p_rem > 0.0:
        ks_b = np.arange(0, ks[-1] + 2)
        pmf_b = np.zeros(ks_b.size)
        pmf_b[: pmf.size] += pmf * (1.0 - p_rem)
        pmf_b[1 : pmf.size + 1] += pmf * p_rem
        ks, pmf = ks_b, pmf_b
    counts = ks + base
    e_min = float((np.minimum(counts, ways) * pmf).sum()) + tail * ways
    e_fit = float((counts * (counts <= ways) * pmf).sum())
    e_k = base + mean + max(p_rem, 0.0)
    return e_min, e_fit, e_k


@dataclass(frozen=True)
class _CurveKey:
    pattern: AccessPattern
    wss_lines: int
    page_size: int
    zipf_s: float
    hot_lines: int = 0
    hot_fraction: float = 0.0


class AnalyticalCacheModel:
    """Expected-hit-rate oracle for one LLC geometry.

    Args:
        geometry: The LLC's geometry.
        zipf_s: Default Zipf skew for ``ZIPF`` workloads (0.99 is the YCSB
            default and a good fit for Redis/Postgres hot sets).
    """

    def __init__(self, geometry: CacheGeometry, zipf_s: float = 0.99) -> None:
        self.geometry = geometry
        self.zipf_s = zipf_s
        # Per footprint (by its memo key): the way curve and its knot table
        # ``(0.0, *curve)`` (hit rate at 0..num_ways ways), shared by both
        # lookups below.
        self._curves: Dict[tuple, Tuple[np.ndarray, Tuple[float, ...]]] = {}

    # -- public API -----------------------------------------------------------

    def _key_for(self, footprint: Footprint) -> _CurveKey:
        geo = self.geometry
        return _CurveKey(
            pattern=footprint.pattern,
            wss_lines=max(1, footprint.wss_bytes // geo.line_size),
            page_size=footprint.page_size,
            zipf_s=self.zipf_s if footprint.zipf_s is None else footprint.zipf_s,
            hot_lines=max(1, (footprint.hot_bytes or 0) // geo.line_size)
            if footprint.hot_bytes
            else 0,
            hot_fraction=footprint.hot_fraction or 0.0,
        )

    def hit_rate_fp(self, footprint: Footprint, ways: float) -> float:
        """Expected steady-state LLC hit rate under a CAT way allocation.

        ``ways`` may be fractional; the way curve is interpolated linearly.
        Integer ways (the only kind CAT masks grant) index the knot table
        directly: linear interpolation at a knot returns the knot itself,
        so both paths agree bit for bit.  Out-of-range ways clamp to
        ``[0, num_ways]``; NaN or infinite ways raise ``ValueError``.
        """
        entry = self._curves.get(footprint._memo_key)
        knots = (entry if entry is not None else self._entry(footprint))[1]
        if type(ways) is int or isinstance(ways, np.integer):
            if 0 <= ways < len(knots):
                return knots[ways]
            return knots[0] if ways < 0 else knots[-1]
        w = float(ways)
        if not math.isfinite(w):
            raise ValueError(f"ways must be a finite number, got {ways!r}")
        nways = self.geometry.num_ways
        xs = np.arange(0, nways + 1, dtype=float)
        return float(np.interp(float(np.clip(w, 0.0, nways)), xs, knots))

    def way_curve_fp(self, footprint: Footprint) -> np.ndarray:
        """Hit rate for each allocation 1..num_ways (memoized)."""
        entry = self._curves.get(footprint._memo_key)
        return (entry if entry is not None else self._entry(footprint))[0]

    def _entry(self, footprint: Footprint) -> Tuple[np.ndarray, Tuple[float, ...]]:
        curve = self._compute_curve(self._key_for(footprint))
        if footprint.pattern is AccessPattern.NONE or footprint.wss_bytes <= 0:
            knots = (0.0,) * (curve.size + 1)
        else:
            # curve[i] is the hit rate with (i + 1) ways; 0 ways -> 0 hit rate.
            knots = (0.0, *curve.tolist())
        entry = self._curves[footprint._memo_key] = (curve, knots)
        return entry

    def capacity_hit_rate_fp(
        self, footprint: Footprint, capacity_ways: float
    ) -> float:
        """Hit rate for a *capacity* share of a fully shared cache.

        In an unpartitioned LLC a workload's occupancy is a capacity share,
        not a way-mask: its lines may sit in any of the cache's ways, so the
        associativity-conflict penalty of :meth:`hit_rate_fp` does not
        apply.  This is the model the shared-cache contention solver uses.
        """
        if footprint.pattern is AccessPattern.NONE or footprint.wss_bytes <= 0:
            return 0.0
        key = self._key_for(footprint)
        capacity_lines = max(0.0, capacity_ways) * self.geometry.num_sets
        return _resident_hit_rate(key, capacity_lines)

    # -- curve construction -----------------------------------------------------

    def _compute_curve(self, key: _CurveKey) -> np.ndarray:
        geo = self.geometry
        nways = geo.num_ways
        ways_axis = np.arange(1, nways + 1)
        if key.pattern is AccessPattern.RANDOM:
            rates = [self._random_hit_rate(key, w) for w in ways_axis]
        elif key.pattern is AccessPattern.SEQUENTIAL:
            rates = [self._sequential_hit_rate(key, w) for w in ways_axis]
        elif key.pattern in (AccessPattern.ZIPF, AccessPattern.HOTCOLD):
            rates = [self._popularity_hit_rate(key, w) for w in ways_axis]
        else:
            rates = [0.0] * nways
        curve = np.clip(np.array(rates, dtype=float), 0.0, 1.0)
        # Hit rate must be non-decreasing in allocation; enforce monotonicity
        # against tiny numerical wobbles.
        return np.maximum.accumulate(curve)

    def _scatter_expectations(self, key: _CurveKey, ways: int) -> Tuple[float, float, float]:
        """(E[min(k, ways)], E[k*1(k<=ways)], E[k]) for the buffer's scatter."""
        geo = self.geometry
        lines_per_page = key.page_size // geo.line_size
        n_full, rem_lines = divmod(key.wss_lines, lines_per_page)
        # Each whole page blankets every set `base_full` times and covers a
        # further `p_full` fraction of sets once; similarly for the partial
        # page's remainder lines.
        base_full, extra_full = divmod(lines_per_page, geo.num_sets)
        base_rem, extra_rem = divmod(rem_lines, geo.num_sets)
        base = n_full * base_full + base_rem
        p_full = round(extra_full / geo.num_sets, 9)
        p_rem = round(extra_rem / geo.num_sets, 9)
        return _scatter_min_expectation(n_full, p_full, p_rem, base, ways)

    def _random_hit_rate(self, key: _CurveKey, ways: int) -> float:
        e_min, _, e_k = self._scatter_expectations(key, ways)
        if e_k <= 0:
            return 0.0
        return min(1.0, e_min / e_k)

    def _sequential_hit_rate(self, key: _CurveKey, ways: int) -> float:
        # Cyclic LRU: only sets whose line count fits contribute hits.
        _, e_fit, e_k = self._scatter_expectations(key, ways)
        if e_k <= 0:
            return 0.0
        return min(1.0, e_fit / e_k)

    def _popularity_hit_rate(self, key: _CurveKey, ways: int) -> float:
        """ZIPF / HOTCOLD hit rate under a way mask.

        The allocation's nominal capacity is discounted by the conflict
        scatter efficiency (a conflicted set wastes slots, so the cache
        effectively retains fewer of the hottest lines), then the
        popularity curve converts effective resident lines into hit rate.
        """
        capacity = ways * self.geometry.num_sets
        # Scatter efficiency of a buffer the size of the allocation itself.
        eff_key = _CurveKey(
            pattern=AccessPattern.RANDOM,
            wss_lines=max(1, int(min(capacity, key.wss_lines))),
            page_size=key.page_size,
            zipf_s=key.zipf_s,
        )
        efficiency = self._random_hit_rate(eff_key, ways)
        return _resident_hit_rate(key, capacity * efficiency)


def _resident_hit_rate(key: _CurveKey, capacity_lines: float) -> float:
    """Hit rate when the cache effectively retains ``capacity_lines`` lines.

    Shared-capacity form of every reuse pattern: RANDOM is linear, ZIPF is
    the popularity mass of the hottest resident lines, HOTCOLD is the
    piecewise-linear two-tier curve, SEQUENTIAL fits-or-thrashes.
    """
    n = key.wss_lines
    if n <= 0 or capacity_lines <= 0:
        return 0.0
    if key.pattern is AccessPattern.RANDOM:
        return min(1.0, capacity_lines / n)
    if key.pattern is AccessPattern.SEQUENTIAL:
        return 1.0 if n <= 0.95 * capacity_lines else 0.0
    if key.pattern is AccessPattern.HOTCOLD:
        hot = max(1, key.hot_lines)
        p = key.hot_fraction
        if capacity_lines >= n:
            return 1.0
        if capacity_lines <= hot:
            # LRU keeps hot lines preferentially: the resident share is hot.
            return p * capacity_lines / hot
        cold = max(1, n - hot)
        return p + (1.0 - p) * (capacity_lines - hot) / cold
    # ZIPF: popularity mass of the hottest resident lines.
    resident = max(1, min(int(capacity_lines), n))
    return _harmonic(resident, key.zipf_s) / _harmonic(n, key.zipf_s)


@functools.lru_cache(maxsize=8192)
def _harmonic(n: int, s: float) -> float:
    """Generalized harmonic number H(n, s), with an integral approximation.

    Exact summation below a cutoff; Euler–Maclaurin style integral tail above
    it (the workloads here have millions of lines, so a naive sum would
    dominate runtime).
    """
    if n <= 0:
        return 0.0
    cutoff = 100_000
    if n <= cutoff:
        ks = np.arange(1, n + 1, dtype=float)
        return float((ks ** -s).sum())
    head = _harmonic(cutoff, s)
    if abs(s - 1.0) < 1e-12:
        tail = math.log(n / cutoff)
    else:
        tail = (n ** (1 - s) - cutoff ** (1 - s)) / (1 - s)
    return head + tail
