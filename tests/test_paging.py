"""Tests for repro.mem.paging: page tables and translation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.address import MB
from repro.mem.paging import PAGE_2M, PAGE_4K, PageTable
from repro.mem.paging import OutOfPhysicalMemoryError


def small_table(page_size=PAGE_4K, seed=7):
    return PageTable(
        page_size=page_size, phys_bytes=64 * MB, rng=np.random.default_rng(seed)
    )


class TestValidation:
    def test_rejects_odd_page_size(self):
        with pytest.raises(ValueError, match="page_size"):
            PageTable(page_size=8192)

    def test_rejects_non_power_of_two_phys(self):
        with pytest.raises(ValueError, match="power of two"):
            PageTable(phys_bytes=3 * MB)

    def test_rejects_tiny_phys(self):
        with pytest.raises(ValueError, match="too small"):
            PageTable(phys_bytes=2 * MB)

    def test_rejects_empty_buffer(self):
        with pytest.raises(ValueError, match="positive"):
            small_table().map_buffer(0)


class TestMapping:
    def test_map_page_idempotent(self):
        table = small_table()
        frame_a = table.map_page(0x1000)
        frame_b = table.map_page(0x1000)
        assert frame_a == frame_b

    def test_distinct_pages_get_distinct_frames(self):
        table = small_table()
        frames = {table.map_page(i * PAGE_4K) for i in range(512)}
        assert len(frames) == 512

    def test_map_buffer_covers_all_pages(self):
        table = small_table()
        buf = table.map_buffer(10 * PAGE_4K + 1)
        # Translation of the final byte must not fault.
        assert table.translate(buf.vbase + buf.size - 1) >= 0

    def test_buffers_do_not_overlap_virtually(self):
        table = small_table()
        a = table.map_buffer(1 * MB)
        b = table.map_buffer(1 * MB)
        assert a.vbase + a.size <= b.vbase or b.vbase + b.size <= a.vbase

    def test_mapped_bytes_accounting(self):
        table = small_table()
        table.map_buffer(8 * PAGE_4K)
        assert table.mapped_bytes == 8 * PAGE_4K

    def test_frame_exhaustion_raises(self):
        table = PageTable(
            page_size=PAGE_2M, phys_bytes=8 * MB, rng=np.random.default_rng(1)
        )
        table.map_buffer(8 * MB)  # consumes all four 2 MB frames
        with pytest.raises(OutOfPhysicalMemoryError):
            table.map_buffer(2 * MB)


class TestTranslation:
    def test_offset_preserved_within_page(self):
        table = small_table()
        buf = table.map_buffer(PAGE_4K)
        base = table.translate(buf.vbase)
        assert table.translate(buf.vbase + 123) == base + 123

    def test_unmapped_translation_faults(self):
        table = small_table()
        with pytest.raises(KeyError):
            table.translate(0xDEAD000)

    def test_vectorized_matches_scalar(self):
        table = small_table()
        buf = table.map_buffer(64 * PAGE_4K)
        offsets = np.array([0, 5, PAGE_4K, 10 * PAGE_4K + 99, buf.size - 1])
        vec = table.translate_buffer(buf, offsets)
        for off, paddr in zip(offsets, vec):
            assert table.translate(buf.vbase + int(off)) == int(paddr)

    def test_hugepage_contiguity(self):
        table = small_table(page_size=PAGE_2M)
        buf = table.map_buffer(PAGE_2M)
        offsets = np.arange(0, PAGE_2M, 64, dtype=np.int64)
        paddrs = table.translate_buffer(buf, offsets)
        # One huge page is physically contiguous end to end.
        assert np.all(np.diff(paddrs) == 64)

    def test_4k_pages_scatter(self):
        table = small_table()
        buf = table.map_buffer(64 * PAGE_4K)
        lines = table.physical_lines(buf)
        gaps = np.diff(np.sort(lines))
        # With random frames some inter-page gaps must exceed a page.
        assert (gaps > PAGE_4K).any()

    def test_physical_lines_count(self):
        table = small_table()
        buf = table.map_buffer(10 * PAGE_4K)
        assert table.physical_lines(buf, line_size=64).size == 10 * PAGE_4K // 64


class TestDeterminism:
    def test_same_seed_same_layout(self):
        t1, t2 = small_table(seed=42), small_table(seed=42)
        b1, b2 = t1.map_buffer(1 * MB), t2.map_buffer(1 * MB)
        assert np.array_equal(t1.physical_lines(b1), t2.physical_lines(b2))

    def test_different_seed_different_layout(self):
        t1, t2 = small_table(seed=1), small_table(seed=2)
        b1, b2 = t1.map_buffer(1 * MB), t2.map_buffer(1 * MB)
        assert not np.array_equal(t1.physical_lines(b1), t2.physical_lines(b2))


@settings(max_examples=25, deadline=None)
@given(size=st.integers(min_value=1, max_value=4 * MB))
def test_every_line_translates_into_phys_space(size):
    table = PageTable(phys_bytes=128 * MB, rng=np.random.default_rng(3))
    buf = table.map_buffer(size)
    lines = table.physical_lines(buf)
    assert (lines >= 0).all()
    assert (lines < 128 * MB).all()
    assert lines.size == -(-size // 64)
