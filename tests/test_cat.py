"""Tests for repro.cat: COS/CBM rules, the CAT device, pqos, and layout."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cat.cat import CacheAllocationTechnology
from repro.cat.cos import (
    MAX_COS,
    ClassOfService,
    contiguous_mask,
    is_contiguous,
    mask_way_count,
    mask_ways,
    validate_cbm,
)
from repro.cat.layout import pack_contiguous
from repro.cat.pqos import PqosL3Ca, PqosLibrary


class TestCbmHelpers:
    def test_mask_way_count(self):
        assert mask_way_count(0b1011) == 3
        assert mask_way_count(0) == 0

    def test_mask_ways(self):
        assert mask_ways(0b1010) == [1, 3]

    def test_contiguous_mask(self):
        assert contiguous_mask(2, 3) == 0b11100

    def test_contiguous_mask_validation(self):
        with pytest.raises(ValueError):
            contiguous_mask(0, 0)
        with pytest.raises(ValueError):
            contiguous_mask(-1, 2)

    def test_is_contiguous(self):
        assert is_contiguous(0b1)
        assert is_contiguous(0b11100)
        assert not is_contiguous(0b101)
        assert not is_contiguous(0)


class TestValidateCbm:
    def test_accepts_valid(self):
        assert validate_cbm(0b0110, num_ways=4) == 0b0110

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one way"):
            validate_cbm(0, num_ways=4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="beyond"):
            validate_cbm(0b10000, num_ways=4)

    def test_rejects_non_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            validate_cbm(0b1010, num_ways=4)

    def test_min_cbm_bits(self):
        with pytest.raises(ValueError, match="min_cbm_bits"):
            validate_cbm(0b1, num_ways=4, min_cbm_bits=2)

    def test_cos_id_bounds(self):
        with pytest.raises(ValueError):
            ClassOfService(cos_id=MAX_COS, mask=1)


class TestCatDevice:
    def make(self):
        return CacheAllocationTechnology(num_ways=8, num_cores=4)

    def test_power_on_state(self):
        cat = self.make()
        assert cat.cos_mask(0) == 0xFF
        assert cat.core_cos(3) == 0
        assert cat.effective_mask(2) == 0xFF

    def test_programming_and_association(self):
        cat = self.make()
        cat.set_cos_mask(1, 0b0011)
        cat.associate_core(2, 1)
        assert cat.effective_mask(2) == 0b0011
        assert cat.effective_mask(0) == 0xFF  # others unaffected

    def test_invalid_mask_rejected(self):
        with pytest.raises(ValueError):
            self.make().set_cos_mask(1, 0b101)

    def test_bounds_checked(self):
        cat = self.make()
        with pytest.raises(ValueError):
            cat.set_cos_mask(16, 1)
        with pytest.raises(ValueError):
            cat.associate_core(9, 0)

    def test_listeners_fire_on_change_only(self):
        cat = self.make()
        events = []
        cat.on_mask_change(lambda cos, mask: events.append((cos, mask)))
        cat.set_cos_mask(1, 0b1)
        cat.set_cos_mask(1, 0b1)  # no-op
        assert events == [(1, 0b1)]

    def test_reset_restores_power_on(self):
        cat = self.make()
        cat.set_cos_mask(1, 0b1)
        cat.associate_core(0, 1)
        cat.reset()
        assert cat.cos_mask(1) == 0xFF
        assert cat.core_cos(0) == 0

    def test_overlap_detection(self):
        cat = self.make()
        cat.set_cos_mask(1, 0b0011)
        cat.set_cos_mask(2, 0b1100)
        assert not cat.masks_overlap(1, 2)
        cat.set_cos_mask(2, 0b0110)
        assert cat.masks_overlap(1, 2)


class TestPqos:
    def make(self):
        cat = CacheAllocationTechnology(num_ways=20, num_cores=8)
        return PqosLibrary(cat, way_size_bytes=2359296), cat

    def test_capability(self):
        pqos, _ = self.make()
        cap = pqos.cap_get()
        assert cap.num_cos == 16
        assert cap.num_ways == 20
        assert cap.way_size_bytes == 2359296

    def test_l3ca_set_get(self):
        pqos, cat = self.make()
        pqos.l3ca_set([PqosL3Ca(cos_id=2, ways_mask=0b111)])
        assert cat.cos_mask(2) == 0b111
        assert pqos.l3ca_get()[2].ways_mask == 0b111
        assert pqos.l3ca_get()[2].num_ways == 3
        assert pqos.l3ca_masks() == tuple(e.ways_mask for e in pqos.l3ca_get())

    def test_l3ca_set_is_all_or_nothing(self):
        pqos, cat = self.make()
        for bad in (PqosL3Ca(cos_id=3, ways_mask=0b101), PqosL3Ca(cos_id=16, ways_mask=1)):
            with pytest.raises(ValueError):
                pqos.l3ca_set([PqosL3Ca(cos_id=2, ways_mask=0b111), bad])
            assert cat.cos_mask(2) == (1 << 20) - 1  # the valid entry never landed

    def test_assoc(self):
        pqos, _ = self.make()
        pqos.alloc_assoc_set(3, 5)
        assert pqos.alloc_assoc_get(3) == 5
        assert pqos.assoc_map()[3] == 5


class TestLayoutPacking:
    def test_simple_pack(self):
        result = pack_contiguous({"a": 3, "b": 2}, num_ways=8)
        assert mask_way_count(result.masks["a"]) == 3
        assert mask_way_count(result.masks["b"]) == 2
        assert result.masks["a"] & result.masks["b"] == 0
        assert mask_way_count(result.free_mask) == 3

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            pack_contiguous({"a": 5, "b": 5}, num_ways=8)

    def test_zero_ways_rejected(self):
        with pytest.raises(ValueError, match="minimum"):
            pack_contiguous({"a": 0}, num_ways=8)

    def test_steady_state_does_not_move(self):
        first = pack_contiguous({"a": 3, "b": 2}, 8)
        second = pack_contiguous({"a": 3, "b": 2}, 8, previous=first.masks)
        assert second.masks == first.masks
        assert second.moved == []

    def test_growth_reports_moves(self):
        first = pack_contiguous({"a": 3, "b": 2}, 8)
        second = pack_contiguous({"a": 4, "b": 2}, 8, previous=first.masks)
        assert mask_way_count(second.masks["a"]) == 4
        assert "b" in second.moved or second.masks["b"] == first.masks["b"]

    def test_new_workloads_pack_after_existing(self):
        first = pack_contiguous({"a": 3}, 8)
        second = pack_contiguous({"a": 3, "b": 2}, 8, previous=first.masks)
        assert second.masks["a"] == first.masks["a"]
        assert "a" not in second.moved

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
        num_ways=st.integers(min_value=8, max_value=20),
    )
    def test_masks_always_disjoint_contiguous_and_sized(self, counts, num_ways):
        demand = {f"w{i}": c for i, c in enumerate(counts)}
        if sum(counts) > num_ways:
            with pytest.raises(ValueError):
                pack_contiguous(demand, num_ways)
            return
        result = pack_contiguous(demand, num_ways)
        union = 0
        for wid, mask in result.masks.items():
            assert is_contiguous(mask)
            assert mask_way_count(mask) == demand[wid]
            assert union & mask == 0
            union |= mask
        assert union | result.free_mask == (1 << num_ways) - 1
