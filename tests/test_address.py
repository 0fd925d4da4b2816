"""Tests for repro.mem.address: geometry math and address decomposition."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.mem.address import KB, MB, CacheGeometry, is_power_of_two


class TestIsPowerOfTwo:
    def test_accepts_powers(self):
        for exp in range(20):
            assert is_power_of_two(1 << exp)

    def test_rejects_non_powers(self):
        for value in (0, -1, 3, 6, 12, 1000):
            assert not is_power_of_two(value)


class TestGeometryValidation:
    def test_line_size_must_be_power_of_two(self):
        with pytest.raises(ValueError, match="line_size"):
            CacheGeometry(line_size=48, num_sets=16, num_ways=4)

    def test_num_sets_must_be_positive(self):
        with pytest.raises(ValueError, match="num_sets"):
            CacheGeometry(line_size=64, num_sets=0, num_ways=4)

    def test_num_ways_must_be_positive(self):
        with pytest.raises(ValueError, match="num_ways"):
            CacheGeometry(line_size=64, num_sets=16, num_ways=0)

    def test_non_power_of_two_sets_allowed(self):
        geo = CacheGeometry(line_size=64, num_sets=36864, num_ways=20)
        assert geo.num_sets == 36864


class TestDerivedSizes:
    def test_capacity(self):
        geo = CacheGeometry(line_size=64, num_sets=1024, num_ways=16)
        assert geo.capacity_bytes == 1 * MB

    def test_way_bytes(self):
        geo = CacheGeometry(line_size=64, num_sets=1024, num_ways=16)
        assert geo.way_bytes == 64 * KB


class TestDecomposition:
    def setup_method(self):
        self.geo = CacheGeometry(line_size=64, num_sets=128, num_ways=8)

    def test_line_address_alignment(self):
        # Every byte of a line decomposes to that line's aligned address.
        geo = self.geo
        for paddr, aligned in ((0, 0), (63, 0), (64, 64), (130, 128)):
            line_id = geo.line_id_of(geo.set_index(paddr), geo.tag(paddr))
            assert line_id * geo.line_size == aligned

    def test_set_index_wraps(self):
        line_span = 64 * 128
        assert self.geo.set_index(0) == 0
        assert self.geo.set_index(64) == 1
        assert self.geo.set_index(line_span) == 0

    def test_tag_increments_per_full_span(self):
        line_span = 64 * 128
        assert self.geo.tag(0) == 0
        assert self.geo.tag(line_span - 1) == 0
        assert self.geo.tag(line_span) == 1

    def test_line_id_round_trip(self):
        for paddr in (0, 64, 4096, 999936, 12345 * 64):
            s = self.geo.set_index(paddr)
            t = self.geo.tag(paddr)
            assert self.geo.line_id_of(s, t) == paddr // 64

    def test_vectorized_matches_scalar(self):
        paddrs = np.array([0, 64, 128, 8191, 65536, 10**9], dtype=np.int64)
        sets = self.geo.set_indices(paddrs)
        tags = self.geo.tags(paddrs)
        for i, p in enumerate(paddrs):
            assert sets[i] == self.geo.set_index(int(p))
            assert tags[i] == self.geo.tag(int(p))

    @given(st.integers(min_value=0, max_value=2**46))
    def test_decomposition_is_bijective(self, paddr):
        geo = CacheGeometry(line_size=64, num_sets=36864, num_ways=20)
        line_id = paddr >> geo.offset_bits
        assert geo.line_id_of(geo.set_index(paddr), geo.tag(paddr)) == line_id


class TestPaperMachines:
    def test_xeon_d_capacity(self):
        geo = CacheGeometry.xeon_d()
        assert geo.capacity_bytes == 12 * MB
        assert geo.num_ways == 12

    def test_xeon_e5_capacity(self):
        geo = CacheGeometry.xeon_e5()
        assert geo.capacity_bytes == 45 * MB
        assert geo.num_ways == 20

    def test_xeon_e5_way_size_matches_paper(self):
        # Paper: "The capacity of each cache way is 2.25 MB."
        geo = CacheGeometry.xeon_e5()
        assert geo.way_bytes == int(2.25 * MB)
