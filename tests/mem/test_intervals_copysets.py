"""Unit tests for interval logs, diff stores, and copyset tables."""

import numpy as np
import pytest

from repro.mem.copyset import CopysetTable
from repro.mem.diffs import Diff
from repro.mem.intervals import (DiffStore, IntervalLog, IntervalRecord,
                                 WriteNotice)
from repro.mem.timestamps import VectorClock


def record(proc, index, vc, pages):
    return IntervalRecord(proc=proc, index=index,
                          vc=VectorClock(vc), pages=frozenset(pages))


class TestIntervalRecord:
    def test_notices_cover_every_page(self):
        rec = record(1, 3, (0, 3, 1), [5, 2])
        notices = rec.notices()
        assert [(n.page, n.proc, n.index) for n in notices] == \
            [(2, 1, 3), (5, 1, 3)]
        assert all(n.vc == rec.vc for n in notices)
        assert notices[0].interval_id == (1, 3)


class TestIntervalLog:
    def test_add_is_idempotent(self):
        log = IntervalLog()
        rec = record(0, 1, (1, 0, 0), [0])
        log.add(rec)
        log.add(record(0, 1, (9, 9, 9), [7]))  # same id, ignored
        assert len(log) == 1
        assert log.get((0, 1)) is rec

    def test_records_after_filters_by_component(self):
        log = IntervalLog()
        log.add(record(0, 1, (1, 0, 0), [0]))
        log.add(record(0, 2, (2, 0, 0), [0]))
        log.add(record(1, 1, (2, 1, 0), [1]))
        after = log.records_after(VectorClock((1, 0, 0)))
        assert [r.interval_id for r in after] == [(0, 2), (1, 1)]

    def test_records_after_sorted_by_hb1_extension(self):
        log = IntervalLog()
        log.add(record(1, 1, (0, 1, 0), [0]))
        log.add(record(2, 1, (0, 1, 1), [0]))  # after (1,1)
        after = log.records_after(VectorClock.zero(3))
        totals = [r.vc.total() for r in after]
        assert totals == sorted(totals)

    def test_len_and_membership(self):
        log = IntervalLog()
        log.add(record(0, 1, (1, 0, 0), [0]))
        log.add(record(1, 1, (0, 1, 0), [0]))
        assert len(log) == 2
        assert (0, 1) in log
        assert (5, 5) not in log


class TestDiffStore:
    def make_diff(self, page=0):
        return Diff.from_ranges(page, np.arange(8.0), [(0, 2)])

    def test_put_get_has(self):
        store = DiffStore()
        diff = self.make_diff()
        store.put(1, 2, diff)
        assert store.has(1, 2, 0)
        assert store.get(1, 2, 0) is diff
        assert store.get(1, 2, 9) is None
        assert not store.has(0, 0, 0)
        assert len(store) == 1

    def test_put_does_not_overwrite(self):
        store = DiffStore()
        first = self.make_diff()
        store.put(1, 2, first)
        store.put(1, 2, self.make_diff())
        assert store.get(1, 2, 0) is first


class TestCopysetTable:
    def test_add_and_others_exclude_self(self):
        table = CopysetTable(self_proc=2)
        table.add(0, 2)
        table.add(0, 3)
        table.merge(0, 0b1010)
        assert table.mask(0) == 0b1110
        assert table.others_mask(0) == 0b1010
        assert table.mask(7) == table.others_mask(7) == 0

    def test_remove_and_merge(self):
        table = CopysetTable(0)
        table.merge(5, 0b0111)
        table.remove(5, 1)
        assert table.mask(5) == 0b0101
        # merge is a union, never an assignment.
        table.merge(5, 0b1000)
        assert table.mask(5) == 0b1101
        table.merge(5, 0)
        assert table.mask(5) == 0b1101
        table.remove(99, 1)  # unknown page: no-op
        assert table.mask(99) == 0

    def test_believes_cached(self):
        table = CopysetTable(0)
        assert not table.believes_cached(1, 0)
        table.add(1, 4)
        assert table.believes_cached(1, 4)
        assert not table.believes_cached(1, 3)

    def test_wide_masks(self):
        table = CopysetTable(63)
        table.add(9, 63)
        table.add(2, 40)
        table.remove(2, 40)
        assert table.mask(9) == 1 << 63
        assert table.mask(2) == 0
        assert table.others_mask(9) == 0


class TestWriteNotice:
    def test_interval_id(self):
        notice = WriteNotice(page=3, proc=1, index=7,
                             vc=VectorClock((0, 7)))
        assert notice.interval_id == (1, 7)
