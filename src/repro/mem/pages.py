"""Per-node page copies on a flat buffer substrate.

Each node holds, for every shared page it caches, a :class:`PageCopy`
with real word values (so applications compute on genuine data through
the DSM), the word ranges written in the current interval, and the set
of write notices received but not yet reflected in the copy.

Representation (docs/memory.md): a page's words live in one contiguous
``bytearray`` (``buffer``, 8 host bytes per word).  Three views share
that storage with zero copies — ``raw`` (a memoryview, the byte-level
splice target for diff create/apply and page installs) and ``values``
(a float64 numpy view, what applications and the API read and write
through).  A *twin* is a frozen ``bytes`` snapshot of the buffer; no
run takes one — write tracking (``written``) is the only source of
dirty runs.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mem import instrument
from repro.mem.intervals import WriteNotice
from repro.mem.timestamps import VectorClock


class PageCopy:
    """One node's copy of one shared page.

    Two protocol-critical-path invariants (docs/performance.md):
    ``written`` is kept sorted and disjoint *incrementally* by
    :meth:`record_write` (so sealing an interval never re-normalizes),
    and pending write notices carry a parallel id set so
    :meth:`add_notice` deduplicates in O(1) instead of scanning.
    """

    __slots__ = ("page", "words", "buffer", "raw", "values", "twin",
                 "valid", "written", "_pending_notices", "_pending_ids",
                 "vc", "applied")

    def __init__(self, page: int, words: int,
                 values=None,
                 valid: bool = True,
                 vc: Optional[VectorClock] = None) -> None:
        self.page = page
        self.words = words
        self.buffer = bytearray(words * 8)
        self.raw = memoryview(self.buffer)
        self.values = np.frombuffer(self.buffer, dtype=np.float64)
        if values is not None:
            self.set_values(values)
        self.valid = valid
        # Frozen buffer snapshot (see make_twin; no protocol takes one).
        self.twin: Optional[bytes] = None
        # Word ranges written during the current (unsealed) interval;
        # always sorted and pairwise disjoint (record_write merges).
        self.written: List[Tuple[int, int]] = []
        # Write notices received whose modifications are not yet applied.
        self._pending_notices: List[WriteNotice] = []
        self._pending_ids: set = set()
        self.vc = vc
        # Highest interval index per processor whose modification of this
        # page is reflected in ``values`` (coverage map).
        self.applied: Dict[int, int] = {}

    # -- flat-buffer plumbing --------------------------------------------

    def set_values(self, values) -> None:
        """Overwrite the whole page.  ``values`` is a ``bytes`` /
        ``bytearray`` snapshot (one memcpy) or a float64 sequence."""
        if isinstance(values, (bytes, bytearray, memoryview)):
            if len(values) != len(self.buffer):
                raise ValueError("page snapshot size mismatch")
            self.buffer[:] = values
        else:
            if len(values) != self.words:
                raise ValueError("page value size mismatch")
            self.values[:] = values

    def snapshot(self) -> bytes:
        """Immutable copy of the page contents (what PAGE_REPLY and
        the SC/eager page transfers put on the wire)."""
        return bytes(self.buffer)

    # -- twins ------------------------------------------------------------

    def make_twin(self) -> None:
        """Freeze the current contents as the interval's twin (no-op
        if a twin already exists — the twin must keep the values from
        the interval's start)."""
        if self.twin is None:
            self.twin = bytes(self.buffer)
            ins = instrument.active
            if ins is not None:
                ins.twin_snapshots.inc()

    def drop_twin(self) -> None:
        self.twin = None

    # -- interval write tracking ------------------------------------------

    @property
    def pending_notices(self) -> List[WriteNotice]:
        return self._pending_notices

    @pending_notices.setter
    def pending_notices(self, notices: List[WriteNotice]) -> None:
        # Protocols occasionally rebuild the list wholesale (GC prune,
        # refetch); keep the dedup id set in lockstep.
        self._pending_notices = notices
        self._pending_ids = {(n.proc, n.index) for n in notices}

    def remove_notices(self, interval_ids) -> None:
        """Drop the given (proc, index) ids from the pending list,
        preserving order.  Cheaper than reassigning
        ``pending_notices`` (which rebuilds the whole dedup set)."""
        self._pending_notices = [n for n in self._pending_notices
                                 if n.interval_id not in interval_ids]
        self._pending_ids.difference_update(interval_ids)

    def discard_notice(self, interval_id) -> None:
        """Drop one pending notice (no-op if absent).  O(1) when it is
        the tail — the notice just filed — else one filtering pass."""
        pending = self._pending_notices
        if pending and pending[-1].interval_id == interval_id:
            pending.pop()
            self._pending_ids.discard(interval_id)
        elif interval_id in self._pending_ids:
            self.remove_notices({interval_id})

    @property
    def dirty(self) -> bool:
        return bool(self.written)

    def record_write(self, start: int, end: int) -> None:
        """Merge ``[start, end)`` into the sorted, disjoint run list.

        Equivalent to append-then-:func:`normalize_ranges` (the
        property test in tests/perf checks this against that oracle),
        but incremental: the common cases — first write, append past
        the last run, extend/re-hit the last run — are O(1), and the
        rare out-of-order write is a bisect plus one slice splice.
        """
        if start < 0 or end > self.words or start >= end:
            raise ValueError(f"bad write range [{start},{end}) on page "
                             f"of {self.words} words")
        w = self.written
        if not w:
            w.append((start, end))
            return
        last_start, last_end = w[-1]
        if start > last_end:
            w.append((start, end))
            return
        if start >= last_start:
            if end > last_end:
                w[-1] = (last_start, end)
            return
        # Out-of-order write: splice into place, merging any runs the
        # (possibly extended) range now touches.
        lo = bisect_left(w, (start, -1))
        if lo > 0 and w[lo - 1][1] >= start:
            lo -= 1
            start = w[lo][0]
        hi = lo
        n = len(w)
        while hi < n and w[hi][0] <= end:
            if w[hi][1] > end:
                end = w[hi][1]
            hi += 1
        w[lo:hi] = [(start, end)]

    def take_written_ranges(self) -> List[Tuple[int, int]]:
        """Return and clear the current interval's written ranges
        (already normalized — see :meth:`record_write`)."""
        ranges = self.written
        self.written = []
        return ranges

    def is_applied(self, proc: int, index: int) -> bool:
        return self.applied.get(proc, 0) >= index

    def mark_applied(self, proc: int, index: int) -> None:
        if index > self.applied.get(proc, 0):
            self.applied[proc] = index

    def add_notice(self, notice: WriteNotice) -> bool:
        """Record a foreign write notice; returns True if it was new.

        Notices already reflected in the copy (per the ``applied``
        coverage map) and duplicates are ignored.
        """
        if notice.proc < 0:
            raise ValueError("invalid notice")
        if self.is_applied(notice.proc, notice.index):
            return False
        interval_id = notice.interval_id
        if interval_id in self._pending_ids:
            return False
        self._pending_ids.add(interval_id)
        self._pending_notices.append(notice)
        return True

    def __repr__(self) -> str:
        flags = "valid" if self.valid else "INVALID"
        if self.dirty:
            flags += ",dirty"
        return f"<PageCopy page={self.page} {flags}>"


class PageTable:
    """All page copies held by one node."""

    def __init__(self, words_per_page: int) -> None:
        self.words_per_page = words_per_page
        # Exposed: hot loops (API region ops, notice incorporation)
        # hoist ``pagetable.copies.get`` to skip the method wrapper.
        self.copies: Dict[int, PageCopy] = {}

    def get(self, page: int) -> Optional[PageCopy]:
        return self.copies.get(page)

    def has_copy(self, page: int) -> bool:
        return page in self.copies

    def install(self, page: int, values=None,
                valid: bool = True) -> PageCopy:
        copy = self.copies.get(page)
        if copy is None:
            copy = PageCopy(page, self.words_per_page, values=values,
                            valid=valid)
            self.copies[page] = copy
        else:
            if values is not None:
                copy.set_values(values)
            copy.valid = valid
        ins = instrument.active
        if ins is not None:
            ins.page_installs.inc()
        return copy

    def pages(self) -> List[int]:
        return sorted(self.copies)

    def __len__(self) -> int:
        return len(self.copies)
