"""Unit tests for page copies, page tables, and the address space."""

import numpy as np
import pytest

from repro.mem.addressing import AddressSpace
from repro.mem.intervals import WriteNotice
from repro.mem.pages import PageCopy, PageTable
from repro.mem.timestamps import VectorClock


class TestPageCopy:
    def test_defaults_to_zeroed_valid_page(self):
        copy = PageCopy(3, 16)
        assert copy.valid
        assert not copy.dirty
        assert (copy.values == 0).all()

    def test_record_write_and_take_ranges(self):
        copy = PageCopy(0, 32)
        copy.record_write(0, 4)
        copy.record_write(2, 8)
        copy.record_write(16, 20)
        assert copy.dirty
        assert copy.take_written_ranges() == [(0, 8), (16, 20)]
        assert not copy.dirty
        assert copy.take_written_ranges() == []

    def test_record_write_bounds_checked(self):
        copy = PageCopy(0, 8)
        with pytest.raises(ValueError):
            copy.record_write(4, 12)
        with pytest.raises(ValueError):
            copy.record_write(5, 5)

    def test_notices_deduplicated_by_interval(self):
        copy = PageCopy(0, 8)
        vc = VectorClock((1, 0))
        n1 = WriteNotice(page=0, proc=1, index=1, vc=vc)
        assert copy.add_notice(n1)
        assert not copy.add_notice(WriteNotice(page=0, proc=1, index=1,
                                               vc=vc))
        assert copy.pending_notices == [n1]


class TestPageTable:
    def test_install_and_validity(self):
        table = PageTable(words_per_page=8)
        assert not table.has_copy(0)
        table.install(0, values=np.arange(8))
        assert table.get(0).valid
        table.get(0).valid = False
        assert table.has_copy(0)
        assert table.pages() == [0]

    def test_install_existing_updates_values(self):
        table = PageTable(words_per_page=4)
        table.install(1)
        table.install(1, values=np.ones(4))
        assert (table.get(1).values == 1).all()


class TestAddressSpace:
    def test_allocation_is_page_aligned(self):
        space = AddressSpace(words_per_page=8)
        a = space.allocate("a", 10)  # 2 pages
        b = space.allocate("b", 8)   # 1 page
        assert a.first_page == 0 and a.npages == 2
        assert b.first_page == 2 and b.npages == 1
        assert space.allocate("c", 1).first_page == 3

    def test_duplicate_name_rejected(self):
        space = AddressSpace(words_per_page=8)
        space.allocate("x", 1)
        with pytest.raises(ValueError):
            space.allocate("x", 1)

    def test_locate(self):
        """A segment-relative word lands at (page, offset) past the
        segment's base: the one-word piece page_ranges yields."""
        space = AddressSpace(words_per_page=8)
        space.allocate("pad", 8)
        seg = space.allocate("data", 20)
        assert list(seg.page_ranges(0, 1)) == [(1, 0, 1)]
        assert list(seg.page_ranges(9, 10)) == [(2, 1, 2)]
        with pytest.raises(IndexError):
            list(seg.page_ranges(20, 21))

    def test_page_ranges_splits_on_page_boundaries(self):
        space = AddressSpace(words_per_page=8)
        seg = space.allocate("data", 24)
        pieces = list(seg.page_ranges(4, 20))
        assert pieces == [(0, 4, 8), (1, 0, 8), (2, 0, 4)]

    def test_page_ranges_bounds_checked(self):
        space = AddressSpace(words_per_page=8)
        seg = space.allocate("data", 8)
        with pytest.raises(IndexError):
            list(seg.page_ranges(0, 9))

    def test_segment_pages_property(self):
        space = AddressSpace(words_per_page=4)
        seg = space.allocate("s", 9)
        assert list(seg.pages) == [0, 1, 2]
