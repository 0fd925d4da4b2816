"""Tests for repro.cache.setassoc: the exact CAT-partitionable cache."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement import LruPolicy, TreePlruPolicy, make_policy
from repro.cache.setassoc import SetAssociativeCache
from repro.mem.address import CacheGeometry


def tiny_cache(num_sets=4, num_ways=4, **kw):
    return SetAssociativeCache(
        CacheGeometry(line_size=64, num_sets=num_sets, num_ways=num_ways), **kw
    )


def addr(set_index, tag, geo):
    return (tag * geo.num_sets + set_index) * geo.line_size


class TestBasicAccess:
    def test_first_access_misses_then_hits(self):
        cache = tiny_cache()
        assert not cache.access(0).hit
        assert cache.access(0).hit

    def test_same_line_different_offset_hits(self):
        cache = tiny_cache()
        cache.access(0)
        assert cache.access(63).hit
        assert not cache.access(64).hit  # next line

    def test_stats_count(self):
        cache = tiny_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.miss_rate == pytest.approx(2 / 3)

    def test_capacity_eviction(self):
        cache = tiny_cache(num_sets=1, num_ways=2)
        geo = cache.geometry
        for tag in range(3):
            cache.access(addr(0, tag, geo))
        # Tag 0 was LRU and must be gone.
        assert not cache.access(addr(0, 0, geo)).hit
        assert cache.stats.evictions >= 1

    def test_lru_order_respected(self):
        cache = tiny_cache(num_sets=1, num_ways=2)
        geo = cache.geometry
        cache.access(addr(0, 0, geo))
        cache.access(addr(0, 1, geo))
        cache.access(addr(0, 0, geo))  # refresh tag 0
        cache.access(addr(0, 2, geo))  # evicts tag 1
        assert cache.access(addr(0, 0, geo)).hit
        assert not cache.access(addr(0, 1, geo)).hit


class TestCatSemantics:
    def test_fill_restricted_to_mask(self):
        cache = tiny_cache(num_sets=1, num_ways=4)
        geo = cache.geometry
        for tag in range(8):
            result = cache.access(addr(0, tag, geo), mask=0b0011)
            assert result.way in (0, 1)

    def test_hit_allowed_outside_mask(self):
        """CAT restricts allocation, not lookup."""
        cache = tiny_cache(num_sets=1, num_ways=4)
        geo = cache.geometry
        # Fill way 3 under a mask containing only way 3.
        cache.access(addr(0, 9, geo), mask=0b1000)
        # A core restricted to ways 0-1 still hits on that line.
        assert cache.access(addr(0, 9, geo), mask=0b0011).hit

    def test_masked_workload_cannot_evict_other_ways(self):
        cache = tiny_cache(num_sets=1, num_ways=4)
        geo = cache.geometry
        cache.access(addr(0, 1, geo), mask=0b1100, cos=1)
        cache.access(addr(0, 2, geo), mask=0b1100, cos=1)
        # A heavy workload confined to ways 0-1 thrashes only those.
        for tag in range(10, 30):
            cache.access(addr(0, tag, geo), mask=0b0011, cos=2)
        assert cache.access(addr(0, 1, geo)).hit
        assert cache.access(addr(0, 2, geo)).hit

    def test_invalid_mask_rejected(self):
        cache = tiny_cache(num_ways=4)
        with pytest.raises(ValueError):
            cache.access(0, mask=0)
        with pytest.raises(ValueError):
            cache.access(0, mask=0b10000)

    def test_per_cos_accounting(self):
        cache = tiny_cache()
        cache.access(0, cos=3)
        cache.access(0, cos=3)
        cache.access(64, cos=5)
        assert cache.stats.per_cos_misses[3] == 1
        assert cache.stats.per_cos_hits[3] == 1
        assert cache.stats.per_cos_misses[5] == 1


class TestBatchAccess:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=15),
    )
    def test_access_many_equals_scalar_loop(self, line_ids, mask):
        geo = CacheGeometry(line_size=64, num_sets=4, num_ways=4)
        a = SetAssociativeCache(geo)
        b = SetAssociativeCache(geo)
        paddrs = np.array(line_ids, dtype=np.int64) * 64
        hits_batch = a.access_many(paddrs, mask=mask)
        hits_scalar = sum(b.access(int(p), mask=mask).hit for p in paddrs)
        assert hits_batch == hits_scalar
        assert np.array_equal(a._tags, b._tags)

    def test_batch_stats(self):
        cache = tiny_cache()
        paddrs = np.array([0, 0, 64, 64], dtype=np.int64)
        hits = cache.access_many(paddrs)
        assert hits == 2
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_batch_no_zero_count_cos_keys(self):
        """An all-hit (or all-miss) batch must not plant 0-count COS keys,
        matching the scalar ``record`` semantics exactly."""
        cache = tiny_cache()
        paddrs = np.array([0, 64], dtype=np.int64)
        cache.access_many(paddrs, cos=2)  # all misses
        assert 2 not in cache.stats.per_cos_hits
        cache.access_many(paddrs, cos=2)  # all hits
        assert cache.stats.per_cos_misses[2] == 2
        assert cache.stats.per_cos_hits[2] == 2

    def test_access_many_flags_match_scalar_verdicts(self):
        geo = CacheGeometry(line_size=64, num_sets=4, num_ways=2)
        a = SetAssociativeCache(geo)
        b = SetAssociativeCache(geo)
        rng = np.random.default_rng(3)
        paddrs = rng.integers(0, 3 * geo.capacity_bytes, size=300, dtype=np.int64)
        flags = a.access_many_flags(paddrs)
        scalar = np.array([b.access(int(p)).hit for p in paddrs])
        assert np.array_equal(flags, scalar)


def _policy_state(policy):
    """Every array/cursor a policy owns, for bit-exact comparisons."""
    if isinstance(policy, LruPolicy):
        return (policy._stamps.copy(), policy._clock)
    if isinstance(policy, TreePlruPolicy):
        return (policy._bits.copy(), policy._ages.copy())
    return (policy._rng.bit_generator.state,)


def _assert_policy_state_equal(a, b):
    for x, y in zip(_policy_state(a), _policy_state(b)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


_EQUIV_GEOMETRIES = [
    (64, 4, 4),
    (64, 16, 8),
    (64, 7, 3),  # non-power-of-two sets and ways
    (32, 8, 2),
    (64, 1, 4),  # single set: maximum conflict pressure
    (128, 32, 12),
]


class TestBatchEquivalence:
    """The tentpole acceptance property: ``access_many`` is bit-exact
    against a scalar ``access`` loop for every policy — per-access
    verdicts, stats, per-COS accounting, occupancy-by-COS, eviction
    callback order, tag/owner arrays and the policy's own state."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_bit_exact_vs_scalar(self, data):
        kind = data.draw(
            st.sampled_from(("lru", "plru", "random")), label="policy"
        )
        line_size, num_sets, num_ways = data.draw(
            st.sampled_from(_EQUIV_GEOMETRIES), label="geometry"
        )
        geo = CacheGeometry(
            line_size=line_size, num_sets=num_sets, num_ways=num_ways
        )
        batch = SetAssociativeCache(
            geo, make_policy(kind, num_sets, num_ways,
                             rng=np.random.default_rng(11))
        )
        scalar = SetAssociativeCache(
            geo, make_policy(kind, num_sets, num_ways,
                             rng=np.random.default_rng(11))
        )
        ev_batch, ev_scalar = [], []
        if data.draw(st.booleans(), label="with_callback"):
            batch._eviction_callback = ev_batch.append
            scalar._eviction_callback = ev_scalar.append
        max_line = 2 * num_sets * num_ways  # ~2x capacity: plenty of misses
        for _ in range(data.draw(st.integers(1, 3), label="chunks")):
            line_ids = data.draw(
                st.lists(st.integers(0, max_line), min_size=0, max_size=150),
                label="lines",
            )
            mask = data.draw(
                st.integers(1, (1 << num_ways) - 1), label="mask"
            )
            cos = data.draw(st.integers(0, 3), label="cos")
            paddrs = np.array(line_ids, dtype=np.int64) * line_size
            flags = batch.access_many_flags(paddrs, mask=mask, cos=cos)
            verdicts = np.array(
                [scalar.access(int(p), mask=mask, cos=cos).hit for p in paddrs],
                dtype=bool,
            )
            assert np.array_equal(flags, verdicts)
        assert np.array_equal(batch._tags, scalar._tags)
        assert np.array_equal(batch._owner_cos, scalar._owner_cos)
        assert batch.occupancy_by_cos() == scalar.occupancy_by_cos()
        assert ev_batch == ev_scalar
        sb, ss = batch.stats, scalar.stats
        assert (sb.hits, sb.misses, sb.evictions) == (ss.hits, ss.misses, ss.evictions)
        assert sb.per_cos_hits == ss.per_cos_hits
        assert sb.per_cos_misses == ss.per_cos_misses
        _assert_policy_state_equal(batch._policy, scalar._policy)

    def test_access_many_ref_matches_access_many(self):
        geo = CacheGeometry(line_size=64, num_sets=8, num_ways=4)
        a = SetAssociativeCache(geo)
        b = SetAssociativeCache(geo)
        rng = np.random.default_rng(17)
        paddrs = rng.integers(0, 2 * geo.capacity_bytes, size=500, dtype=np.int64)
        assert a.access_many(paddrs, mask=0b0111) == b.access_many_ref(
            paddrs, mask=0b0111
        )
        assert np.array_equal(a._tags, b._tags)


class TestMaintenance:
    def test_flush_ways_drops_lines(self):
        cache = tiny_cache(num_sets=2, num_ways=2)
        geo = cache.geometry
        cache.access(addr(0, 0, geo), mask=0b01)
        cache.access(addr(1, 0, geo), mask=0b10)
        dropped = cache.flush_ways(0b01)
        assert dropped == 1
        assert not cache.access(addr(0, 0, geo)).hit  # flushed
        assert cache.access(addr(1, 0, geo)).hit  # way 1 untouched

    def test_flush_reports_all_valid_lines(self):
        cache = tiny_cache(num_sets=4, num_ways=1)
        geo = cache.geometry
        for s in range(4):
            cache.access(addr(s, 7, geo))
        assert cache.flush_ways(0b1) == 4

    def test_eviction_callback_invoked(self):
        evicted = []
        cache = SetAssociativeCache(
            CacheGeometry(line_size=64, num_sets=1, num_ways=1),
            eviction_callback=evicted.append,
        )
        geo = cache.geometry
        cache.access(addr(0, 0, geo))
        cache.access(addr(0, 1, geo))
        assert evicted == [geo.line_id_of(0, 0)]

    def test_occupancy_by_cos(self):
        cache = tiny_cache(num_sets=2, num_ways=2)
        geo = cache.geometry
        cache.access(addr(0, 0, geo), mask=0b01, cos=1)
        cache.access(addr(1, 0, geo), mask=0b10, cos=2)
        occ = cache.occupancy_by_cos()
        assert occ[1] == 1
        assert occ[2] == 1

    def test_contains_line(self):
        cache = tiny_cache()
        geo = cache.geometry
        cache.access(addr(2, 5, geo))
        assert cache.contains_line(geo.line_id_of(2, 5))
        assert not cache.contains_line(geo.line_id_of(2, 6))

    def test_flush_clears_replacement_recency(self):
        """Flushed ways must not keep stale stamps/ages (satellite fix)."""
        cache = tiny_cache(num_sets=1, num_ways=2)
        geo = cache.geometry
        cache.access(addr(0, 0, geo))  # way 0
        cache.access(addr(0, 1, geo))  # way 1
        cache.access(addr(0, 0, geo))  # way 0 is now the newest
        cache.flush_ways(0b01)
        policy = cache._policy
        assert policy._stamps[0, 0] == 0
        # Asked directly, the policy must now treat the flushed way as the
        # oldest, not trust the pre-flush stamp.
        assert policy.victim(0, 0b11) == 0

    def test_flush_clears_plru_ages(self):
        cache = tiny_cache(num_sets=1, num_ways=2, policy="plru")
        geo = cache.geometry
        cache.access(addr(0, 0, geo))
        cache.access(addr(0, 1, geo))
        cache.access(addr(0, 0, geo))
        assert cache._policy._ages[0, 0] == 255
        cache.flush_ways(0b01)
        assert cache._policy._ages[0, 0] == 0

    def test_invalidate_line(self):
        cache = tiny_cache(num_sets=2, num_ways=2)
        geo = cache.geometry
        cache.access(addr(0, 3, geo), cos=4)
        assert cache.invalidate_line(addr(0, 3, geo))
        assert not cache.invalidate_line(addr(0, 3, geo))  # already gone
        assert cache.lookup(addr(0, 3, geo)) is None
        assert cache.occupancy_by_cos() == {}
        assert cache._policy._stamps[0, 0] == 0
        # Silent: no stats moved, no eviction counted.
        assert cache.stats.evictions == 0
        assert cache.stats.accesses == 1


class TestSteadyStateHitRates:
    def test_working_set_fitting_in_allocation_hits(self):
        """A random working set within the masked capacity converges to ~100%."""
        geo = CacheGeometry(line_size=64, num_sets=64, num_ways=8)
        cache = SetAssociativeCache(geo)
        rng = np.random.default_rng(0)
        nlines = 64 * 4  # fits exactly in 4 ways if balanced
        # Sequential fill is perfectly balanced across sets.
        lines = np.arange(nlines, dtype=np.int64) * 64
        cache.access_many(lines, mask=0b1111)
        hits = cache.access_many(lines, mask=0b1111)
        assert hits == nlines

    def test_cyclic_thrash_yields_zero_reuse(self):
        """A cyclic sweep larger than the allocation never re-hits under LRU."""
        geo = CacheGeometry(line_size=64, num_sets=16, num_ways=4)
        cache = SetAssociativeCache(geo)
        lines = np.arange(16 * 2, dtype=np.int64) * 64  # 2x a 1-way allocation
        for _ in range(4):
            hits = cache.access_many(lines, mask=0b0001)
        assert hits == 0
