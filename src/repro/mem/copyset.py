"""Approximate per-page copysets.

Each node keeps, for every page, the set of processors it *believes*
cache the page.  The paper stresses that copysets are approximate: they
are seeded from the owner on page transfer and refreshed by write
notices and diff requests; the eager protocols compensate with extra
flush rounds, and the hybrid uses them as a heuristic for which diffs to
piggyback on lock grants.

Representation (docs/memory.md): one int bitmask per page — bit ``p``
set means "processor ``p`` caches this page".  The mask is the only
currency: membership tests and inserts are single bit ops, a copyset
crosses the wire as its int (FLUSH_ACK, PAGE_REPLY), and the receiver
folds it in with one ``|``.  Callers that need the members walk the
set bits themselves (``low = mask & -mask``).
"""

from __future__ import annotations

from typing import Dict


class CopysetTable:
    """One node's view of who caches each page."""

    def __init__(self, self_proc: int) -> None:
        self.self_proc = self_proc
        self._self_bit = 1 << self_proc
        self._masks: Dict[int, int] = {}

    def mask(self, page: int) -> int:
        """Believed cachers of ``page`` as a bitmask (0 if unknown)."""
        return self._masks.get(page, 0)

    def others_mask(self, page: int) -> int:
        """:meth:`mask` without this node's own bit."""
        return self._masks.get(page, 0) & ~self._self_bit

    def merge(self, page: int, mask: int) -> None:
        """Fold a received copyset mask into ours (union)."""
        self._masks[page] = self._masks.get(page, 0) | mask

    def add(self, page: int, proc: int) -> None:
        self._masks[page] = self._masks.get(page, 0) | (1 << proc)

    def remove(self, page: int, proc: int) -> None:
        mask = self._masks.get(page)
        if mask is not None:
            self._masks[page] = mask & ~(1 << proc)

    def believes_cached(self, page: int, proc: int) -> bool:
        return bool(self._masks.get(page, 0) & (1 << proc))
