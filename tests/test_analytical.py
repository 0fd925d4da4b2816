"""Tests for repro.cache.analytical: the fast hit-rate oracle.

Includes the model-vs-exact-scatter validation that justifies using the
closed forms inside the platform simulator.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.analytical import AccessPattern, AnalyticalCacheModel, Footprint
from repro.cache.conflict import simulated_scatter_hit_rate
from repro.mem.address import MB, CacheGeometry
from repro.mem.paging import PAGE_2M, PAGE_4K


@pytest.fixture(scope="module")
def e5_model():
    return AnalyticalCacheModel(CacheGeometry.xeon_e5())


class TestFootprintValidation:
    def test_hotcold_requires_parameters(self):
        with pytest.raises(ValueError, match="hot_bytes"):
            Footprint(AccessPattern.HOTCOLD, 10 * MB)

    def test_hot_fraction_range(self):
        with pytest.raises(ValueError, match="hot_fraction"):
            Footprint(
                AccessPattern.HOTCOLD, 10 * MB, hot_bytes=MB, hot_fraction=1.5
            )

    def test_hot_cannot_exceed_wss(self):
        with pytest.raises(ValueError, match="hot_bytes"):
            Footprint(
                AccessPattern.HOTCOLD, MB, hot_bytes=2 * MB, hot_fraction=0.5
            )


class TestCurveShapes:
    @pytest.mark.parametrize(
        "pattern,kwargs",
        [
            (AccessPattern.RANDOM, {}),
            (AccessPattern.SEQUENTIAL, {}),
            (AccessPattern.ZIPF, {"zipf_s": 0.9}),
            (AccessPattern.HOTCOLD, {"hot_bytes": 4 * MB, "hot_fraction": 0.7}),
        ],
    )
    def test_monotone_in_ways(self, e5_model, pattern, kwargs):
        fp = Footprint(pattern, 16 * MB, **kwargs)
        curve = e5_model.way_curve_fp(fp)
        assert np.all(np.diff(curve) >= -1e-12)
        assert np.all((0.0 <= curve) & (curve <= 1.0))

    def test_zero_ways_zero_hits(self, e5_model):
        assert e5_model.hit_rate(AccessPattern.RANDOM, 8 * MB, 0.0) == 0.0

    def test_none_pattern_never_hits(self, e5_model):
        assert e5_model.hit_rate(AccessPattern.NONE, 8 * MB, 10) == 0.0

    def test_fractional_ways_interpolate(self, e5_model):
        h3 = e5_model.hit_rate(AccessPattern.RANDOM, 8 * MB, 3)
        h4 = e5_model.hit_rate(AccessPattern.RANDOM, 8 * MB, 4)
        h35 = e5_model.hit_rate(AccessPattern.RANDOM, 8 * MB, 3.5)
        assert h3 <= h35 <= h4

    def test_sequential_cliff(self, e5_model):
        # A 60 MB sweep oversubscribes the 45 MB cache: near-zero reuse
        # (only the scatter's luckier sets retain their lines).
        curve = e5_model.way_curve(AccessPattern.SEQUENTIAL, 60 * MB)
        assert curve[-1] < 0.15
        assert curve[10] < 0.02
        # A 2 MB sweep fits from the first ways.
        small = e5_model.way_curve(AccessPattern.SEQUENTIAL, 2 * MB)
        assert small[5] > 0.9

    def test_bigger_wss_lower_hit_rate(self, e5_model):
        h_small = e5_model.hit_rate(AccessPattern.RANDOM, 4 * MB, 4)
        h_large = e5_model.hit_rate(AccessPattern.RANDOM, 16 * MB, 4)
        assert h_small > h_large

    def test_hugepages_beat_4k_at_tight_allocations(self, e5_model):
        h_4k = e5_model.hit_rate(AccessPattern.RANDOM, int(4.5 * MB), 2)
        h_2m = e5_model.hit_rate(
            AccessPattern.RANDOM, int(4.5 * MB), 2, page_size=PAGE_2M
        )
        assert h_2m > h_4k

    def test_hotcold_knee_at_hot_tier(self, e5_model):
        fp = Footprint(
            AccessPattern.HOTCOLD, 128 * MB, hot_bytes=9 * MB, hot_fraction=0.7
        )
        curve = e5_model.way_curve_fp(fp)
        # Slope in the hot region (ways 1-4) dwarfs the cold-tail slope.
        hot_slope = curve[3] - curve[0]
        tail_slope = curve[15] - curve[12]
        assert hot_slope > 5 * tail_slope

    def test_marginal_gain(self, e5_model):
        gain = e5_model.marginal_gain(AccessPattern.RANDOM, 8 * MB, 4)
        assert gain > 0
        assert e5_model.marginal_gain(AccessPattern.RANDOM, 8 * MB, 20) == 0.0


class TestAgainstExactScatter:
    """The validation quoted in the module docstring."""

    @pytest.mark.parametrize(
        "wss_mb,ways,page",
        [
            (2, 2, PAGE_4K),
            (2, 2, PAGE_2M),
            (4.5, 2, PAGE_4K),
            (8, 4, PAGE_4K),
            (16, 8, PAGE_4K),
        ],
    )
    def test_random_pattern_accuracy(self, e5_model, wss_mb, ways, page):
        wss = int(wss_mb * MB)
        predicted = e5_model.hit_rate(AccessPattern.RANDOM, wss, ways, page_size=page)
        reference = simulated_scatter_hit_rate(
            wss, e5_model.geometry, ways, page_size=page, samples=3
        )
        assert predicted == pytest.approx(reference, abs=0.05)


class TestCapacityHitRate:
    def test_random_linear_in_capacity(self, e5_model):
        h = e5_model.capacity_hit_rate(AccessPattern.RANDOM, 45 * MB, 10.0)
        assert h == pytest.approx(10 / 20, abs=0.01)

    def test_capacity_exceeding_wss_saturates(self, e5_model):
        assert e5_model.capacity_hit_rate(AccessPattern.RANDOM, 2 * MB, 10.0) == 1.0

    def test_no_associativity_penalty(self, e5_model):
        """Shared-capacity hit rate >= the way-partitioned one."""
        for ways in (2, 4, 8):
            part = e5_model.hit_rate(AccessPattern.RANDOM, 9 * MB, ways)
            shared = e5_model.capacity_hit_rate(AccessPattern.RANDOM, 9 * MB, float(ways))
            assert shared >= part - 1e-9

    def test_hotcold_piecewise(self, e5_model):
        fp = Footprint(
            AccessPattern.HOTCOLD, 90 * MB, hot_bytes=9 * MB, hot_fraction=0.8
        )
        # 9 MB = 4 ways: the hot tier exactly resident -> hit = hot_fraction.
        assert e5_model.capacity_hit_rate_fp(fp, 4.0) == pytest.approx(0.8, abs=0.01)
        # Half the hot tier resident -> half the hot mass.
        assert e5_model.capacity_hit_rate_fp(fp, 2.0) == pytest.approx(0.4, abs=0.01)

    def test_zipf_concentrates(self, e5_model):
        skewed = e5_model.capacity_hit_rate(AccessPattern.ZIPF, 90 * MB, 2.0, zipf_s=1.1)
        flat = e5_model.capacity_hit_rate(AccessPattern.ZIPF, 90 * MB, 2.0, zipf_s=0.5)
        assert skewed > flat


class TestMemoization:
    def test_way_curve_cached(self, e5_model):
        a = e5_model.way_curve(AccessPattern.RANDOM, 8 * MB)
        b = e5_model.way_curve(AccessPattern.RANDOM, 8 * MB)
        assert a is b


class TestWaysValidation:
    @pytest.mark.parametrize("ways", [float("nan"), float("inf"), -float("inf"),
                                      np.float64("nan")])
    def test_non_finite_ways_rejected(self, e5_model, ways):
        fp = Footprint(AccessPattern.RANDOM, 8 * MB)
        with pytest.raises(ValueError, match=r"ways must be a finite number, got"):
            e5_model.hit_rate_fp(fp, ways)

    def test_non_finite_ways_rejected_for_idle_footprints(self, e5_model):
        with pytest.raises(ValueError, match="nan"):
            e5_model.hit_rate_fp(Footprint(AccessPattern.NONE, 0), float("nan"))


# -- exactness of the knot-table lookup ---------------------------------------

_XEON_D = AnalyticalCacheModel(CacheGeometry.xeon_d())


def _interp_hit_rate(model: AnalyticalCacheModel, fp: Footprint, ways) -> float:
    """The interpolating formula every lookup must reproduce bit for bit."""
    if fp.pattern is AccessPattern.NONE or fp.wss_bytes <= 0:
        return 0.0
    curve = model.way_curve_fp(fp)
    nways = model.geometry.num_ways
    w = float(np.clip(ways, 0.0, nways))
    xs = np.arange(0, nways + 1, dtype=float)
    ys = np.concatenate([[0.0], curve])
    return float(np.interp(w, xs, ys))


def _footprint(pattern: AccessPattern, wss_kb: int, page: int) -> Footprint:
    if pattern is AccessPattern.HOTCOLD:
        hot = max(1, wss_kb // 4) * 1024
        return Footprint(pattern, wss_kb * 1024, page_size=page,
                         hot_bytes=hot, hot_fraction=0.8)
    return Footprint(pattern, wss_kb * 1024, page_size=page)


_NUM_WAYS = _XEON_D.geometry.num_ways
_WAYS = st.one_of(
    st.integers(min_value=-2, max_value=_NUM_WAYS + 2),
    st.integers(min_value=0, max_value=_NUM_WAYS).map(np.int64),
    st.floats(min_value=-1.0, max_value=_NUM_WAYS + 1.0, allow_nan=False),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pattern=st.sampled_from(list(AccessPattern)),
    wss_kb=st.sampled_from([0, 64, 1024, 4 * 1024, 9 * 1024, 24 * 1024, 60 * 1024]),
    page=st.sampled_from([PAGE_4K, PAGE_2M]),
    ways=_WAYS,
)
def test_hit_rate_matches_interpolation_bit_for_bit(pattern, wss_kb, page, ways):
    if pattern is AccessPattern.HOTCOLD and wss_kb == 0:
        wss_kb = 64
    fp = _footprint(pattern, wss_kb, page)
    got = _XEON_D.hit_rate_fp(fp, ways)
    assert type(got) is float
    assert got.hex() == _interp_hit_rate(_XEON_D, fp, ways).hex()


def test_every_knot_matches_interpolation():
    for pattern in AccessPattern:
        for page in (PAGE_4K, PAGE_2M):
            fp = _footprint(pattern, 9 * 1024, page)
            for w in range(_NUM_WAYS + 1):
                for ways in (w, np.int64(w), float(w)):
                    expected = _interp_hit_rate(_XEON_D, fp, ways).hex()
                    assert _XEON_D.hit_rate_fp(fp, ways).hex() == expected


@settings(max_examples=30, deadline=None)
@given(
    wss_mb=st.integers(min_value=1, max_value=64),
    ways=st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
)
def test_hit_rate_always_in_unit_interval(wss_mb, ways):
    model = AnalyticalCacheModel(CacheGeometry.xeon_e5())
    for pattern in (AccessPattern.RANDOM, AccessPattern.SEQUENTIAL, AccessPattern.ZIPF):
        h = model.hit_rate(pattern, wss_mb * MB, ways)
        assert 0.0 <= h <= 1.0
