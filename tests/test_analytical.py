"""Tests for repro.cache.analytical: the fast hit-rate oracle.

Includes the model-vs-exact-scatter validation that justifies using the
closed forms inside the platform simulator.
"""

import dataclasses
import json
import pickle
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.cache import analytical
from repro.cache.analytical import AccessPattern, AnalyticalCacheModel, Footprint
from repro.cache.conflict import simulated_scatter_hit_rate
from repro.cpu.socket import SocketSpec
from repro.harness.scenario_file import build_workload
from repro.mem.address import MB, CacheGeometry
from repro.mem.paging import PAGE_2M, PAGE_4K

ROOT = Path(__file__).resolve().parent.parent


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
        assert e5_model.hit_rate_fp(Footprint(AccessPattern.RANDOM, 8 * MB), 0.0) == 0.0

    def test_none_pattern_never_hits(self, e5_model):
        assert e5_model.hit_rate_fp(Footprint(AccessPattern.NONE, 8 * MB), 10) == 0.0

    def test_fractional_ways_interpolate(self, e5_model):
        fp = Footprint(AccessPattern.RANDOM, 8 * MB)
        h3 = e5_model.hit_rate_fp(fp, 3)
        h4 = e5_model.hit_rate_fp(fp, 4)
        h35 = e5_model.hit_rate_fp(fp, 3.5)
        assert h3 <= h35 <= h4

    def test_sequential_cliff(self, e5_model):
        # A 60 MB sweep oversubscribes the 45 MB cache: near-zero reuse
        # (only the scatter's luckier sets retain their lines).
        curve = e5_model.way_curve_fp(Footprint(AccessPattern.SEQUENTIAL, 60 * MB))
        assert curve[-1] < 0.15
        assert curve[10] < 0.02
        # A 2 MB sweep fits from the first ways.
        small = e5_model.way_curve_fp(Footprint(AccessPattern.SEQUENTIAL, 2 * MB))
        assert small[5] > 0.9

    def test_bigger_wss_lower_hit_rate(self, e5_model):
        h_small = e5_model.hit_rate_fp(Footprint(AccessPattern.RANDOM, 4 * MB), 4)
        h_large = e5_model.hit_rate_fp(Footprint(AccessPattern.RANDOM, 16 * MB), 4)
        assert h_small > h_large

    def test_hugepages_beat_4k_at_tight_allocations(self, e5_model):
        wss = int(4.5 * MB)
        h_4k = e5_model.hit_rate_fp(Footprint(AccessPattern.RANDOM, wss), 2)
        h_2m = e5_model.hit_rate_fp(
            Footprint(AccessPattern.RANDOM, wss, page_size=PAGE_2M), 2
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
        # Hit-rate improvement from a fifth way; a 20-way LLC has no 21st.
        curve = e5_model.way_curve_fp(Footprint(AccessPattern.RANDOM, 8 * MB))
        assert curve[4] - curve[3] > 0
        assert curve.size == 20


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
        predicted = e5_model.hit_rate_fp(
            Footprint(AccessPattern.RANDOM, wss, page_size=page), ways
        )
        reference = simulated_scatter_hit_rate(
            wss, e5_model.geometry, ways, page_size=page, samples=3
        )
        assert predicted == pytest.approx(reference, abs=0.05)


class TestCapacityHitRate:
    def test_random_linear_in_capacity(self, e5_model):
        h = e5_model.capacity_hit_rate_fp(Footprint(AccessPattern.RANDOM, 45 * MB), 10.0)
        assert h == pytest.approx(10 / 20, abs=0.01)

    def test_capacity_exceeding_wss_saturates(self, e5_model):
        assert e5_model.capacity_hit_rate_fp(
            Footprint(AccessPattern.RANDOM, 2 * MB), 10.0
        ) == 1.0

    def test_no_associativity_penalty(self, e5_model):
        """Shared-capacity hit rate >= the way-partitioned one."""
        fp = Footprint(AccessPattern.RANDOM, 9 * MB)
        for ways in (2, 4, 8):
            part = e5_model.hit_rate_fp(fp, ways)
            shared = e5_model.capacity_hit_rate_fp(fp, float(ways))
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
        skewed = e5_model.capacity_hit_rate_fp(
            Footprint(AccessPattern.ZIPF, 90 * MB, zipf_s=1.1), 2.0
        )
        flat = e5_model.capacity_hit_rate_fp(
            Footprint(AccessPattern.ZIPF, 90 * MB, zipf_s=0.5), 2.0
        )
        assert skewed > flat


def _memo_footprint(pattern, wss_mb, page, zipf_s, hot_mb, hot_fraction):
    if pattern is not AccessPattern.HOTCOLD:
        return Footprint(pattern, wss_mb * MB, page_size=page, zipf_s=zipf_s)
    return Footprint(pattern, wss_mb * MB, page_size=page, zipf_s=zipf_s,
                     hot_bytes=hot_mb * MB, hot_fraction=hot_fraction)


#: Footprints over small domains, so equal pairs are common.
_MEMO_FOOTPRINTS = st.builds(
    _memo_footprint,
    st.sampled_from(list(AccessPattern)),
    st.sampled_from([2, 4]),
    st.sampled_from([PAGE_4K, PAGE_2M]),
    st.sampled_from([None, 0.8, 0.99]),
    st.sampled_from([1, 2]),
    st.sampled_from([0.5, 1.0]),
)


class TestMemoization:
    def test_way_curve_cached(self, e5_model):
        a = e5_model.way_curve_fp(Footprint(AccessPattern.RANDOM, 8 * MB))
        b = e5_model.way_curve_fp(Footprint(AccessPattern.RANDOM, 8 * MB))
        assert a is b

    def test_warm_lookup_runs_no_hash_frame(self, e5_model):
        fp = Footprint(AccessPattern.ZIPF, 8 * MB)
        e5_model.hit_rate_fp(fp, 3)
        calls = []
        sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name)
                       if event == "call" else None)
        try:
            e5_model.hit_rate_fp(fp, 3)
            e5_model.way_curve_fp(fp)
        finally:
            sys.setprofile(None)
        assert calls == ["hit_rate_fp", "way_curve_fp"]

    def test_models_of_one_llc_share_their_curves(self):
        footprints = [
            Footprint(AccessPattern.RANDOM, 9 * MB),
            Footprint(AccessPattern.SEQUENTIAL, 5 * MB, page_size=PAGE_2M),
            Footprint(AccessPattern.ZIPF, 40 * MB, zipf_s=0.8),
            Footprint(AccessPattern.HOTCOLD, 30 * MB, hot_bytes=3 * MB,
                      hot_fraction=0.7),
        ]
        geometry = SocketSpec.xeon_d().llc
        first, second = (AnalyticalCacheModel(geometry) for _ in range(2))
        for fp in footprints:
            curve = first.way_curve_fp(fp)
            fresh = first._compute_curve(first._key_for(fp))
            assert second.way_curve_fp(fp) is curve
            assert np.array_equal(curve, fresh)
            assert second.hit_rate_fp(fp, 4) == first.hit_rate_fp(fp, 4)
            with pytest.raises(ValueError, match="read-only"):
                curve[0] = 0.5
        # Another geometry or default skew keeps curves of its own.
        other_llc = AnalyticalCacheModel(SocketSpec.xeon_e5_2697v4().llc)
        other_skew = AnalyticalCacheModel(geometry, zipf_s=0.5)
        assert other_llc._curves is not first._curves
        assert other_skew._curves is not first._curves
        zipf = Footprint(AccessPattern.ZIPF, 40 * MB)
        assert other_skew.hit_rate_fp(zipf, 4) != first.hit_rate_fp(zipf, 4)

    def test_unpickled_footprint_finds_its_curve(self, e5_model):
        fp = Footprint(AccessPattern.RANDOM, 12 * MB)
        curve = e5_model.way_curve_fp(fp)
        assert e5_model.way_curve_fp(pickle.loads(pickle.dumps(fp))) is curve

    @settings(max_examples=200, deadline=None)
    @given(a=_MEMO_FOOTPRINTS, b=_MEMO_FOOTPRINTS)
    def test_memo_key_equal_exactly_when_footprints_are(self, a, b):
        assert (a._memo_key == b._memo_key) == (a == b)
        if a == b:
            assert hash(a._memo_key) == hash(b._memo_key)


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
        h = model.hit_rate_fp(Footprint(pattern, wss_mb * MB), ways)
        assert 0.0 <= h <= 1.0


# -- the binomial kernel against scipy.stats -----------------------------------


def _stats_pmf(ks: np.ndarray, n: int, p: float) -> bytes:
    return stats.binom(n, p).pmf(ks).tobytes()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=1, max_value=2_000_000),
    p=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
    .map(lambda p: round(p, 9))
    .filter(lambda p: 0.0 < p < 1.0),
    data=st.data(),
)
def test_binomial_kernel_matches_scipy_stats_bit_for_bit(n, p, data):
    """``_scatter_expectations`` rounds p to 9 places; the kernel asks for
    ``0..kmax`` with ``kmax <= n``."""
    kmax = data.draw(st.integers(min_value=0, max_value=min(n, 600)))
    ks = np.arange(0, kmax + 1)
    assert analytical._binomial_pmf(ks, n, p).tobytes() == _stats_pmf(ks, n, p)


def _workload_specs(node):
    """Every ``workload`` spec nested anywhere in a scenario document."""
    if isinstance(node, dict):
        spec = node.get("workload")
        if isinstance(spec, dict) and "type" in spec:
            yield spec
        for value in node.values():
            yield from _workload_specs(value)
    elif isinstance(node, (list, tuple)):
        for value in node:
            yield from _workload_specs(value)


def _shipped_footprints():
    """The footprints of every workload in ``examples/*.json`` and in the
    benchmark's generated mixes."""
    docs = [json.loads(path.read_text()) for path in sorted((ROOT / "examples").glob("*.json"))]
    bench = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    docs += [[{"workload": w} for w in bench["DENSE_MIX"]], bench["CHURN_MIX"]]
    footprints = set()
    for doc in docs:
        for wl in _workload_specs(doc):
            built = build_workload(wl["type"], "probe", dict(wl))
            footprints.update(phase.footprint for phase in built.peek_phases())
    return sorted(
        (fp for fp in footprints if fp.pattern is not AccessPattern.NONE),
        key=repr,
    )


@pytest.mark.parametrize(
    "geometry",
    [CacheGeometry.xeon_d(), CacheGeometry.xeon_e5(), SocketSpec.xeon_e5_2697v4().llc],
    ids=["xeon_d", "xeon_e5", "xeon_e5_2697v4"],
)
@pytest.mark.parametrize("page", [PAGE_4K, PAGE_2M], ids=["4K", "2M"])
def test_binomial_kernel_matches_scipy_stats_on_shipped_footprints(
    geometry, page, monkeypatch
):
    """Every ``(n_full, p_full, ks)`` the way curves of the shipped
    workloads evaluate, replayed through ``scipy.stats``."""
    calls = []
    kernel = analytical._binomial_pmf

    def recording(ks, n, p):
        calls.append((ks.copy(), n, p))
        return kernel(ks, n, p)

    monkeypatch.setattr(analytical, "_binomial_pmf", recording)
    # Models of one geometry share their curves: start from an empty memo
    # so every curve is computed here.
    monkeypatch.setattr(analytical, "_CURVE_MEMOS", {})
    analytical._scatter_min_expectation.cache_clear()
    try:
        model = AnalyticalCacheModel(geometry)
        footprints = _shipped_footprints()
        assert footprints
        for fp in footprints:
            model.way_curve_fp(dataclasses.replace(fp, page_size=page))
    finally:
        analytical._scatter_min_expectation.cache_clear()
    lines_per_page = page // geometry.line_size
    if lines_per_page % geometry.num_sets:
        assert calls, "a page that part-covers the sets must reach the kernel"
    for ks, n, p in calls:
        assert kernel(ks, n, p).tobytes() == _stats_pmf(ks, n, p), (n, p, ks[-1])
