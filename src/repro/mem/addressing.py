"""Shared address space: segment allocation and page/word arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple


@dataclass(frozen=True)
class Segment:
    """A named, page-aligned region of the shared address space.

    Addresses are expressed in *words* throughout the simulator; the
    byte-level picture only matters for message sizing, which the diff
    and config layers handle.
    """

    name: str
    base_word: int
    nwords: int
    words_per_page: int

    @property
    def first_page(self) -> int:
        return self.base_word // self.words_per_page

    @property
    def npages(self) -> int:
        last_word = self.base_word + self.nwords - 1
        return last_word // self.words_per_page - self.first_page + 1

    @property
    def pages(self) -> range:
        return range(self.first_page, self.first_page + self.npages)

    def page_ranges(self, start: int, end: int
                    ) -> Iterator[Tuple[int, int, int]]:
        """Split segment-relative [start, end) into per-page pieces.

        Yields (page, page_start_offset, page_end_offset) triples.
        """
        if start < 0 or end > self.nwords or start > end:
            raise IndexError(f"bad range [{start},{end}) in segment "
                             f"{self.name!r}")
        word = self.base_word + start
        last = self.base_word + end
        while word < last:
            page, offset = divmod(word, self.words_per_page)
            chunk = min(self.words_per_page - offset, last - word)
            yield page, offset, offset + chunk
            word += chunk


class AddressSpace:
    """Allocates page-aligned shared segments."""

    def __init__(self, words_per_page: int) -> None:
        if words_per_page < 1:
            raise ValueError("words_per_page must be >= 1")
        self.words_per_page = words_per_page
        self._next_page = 0
        self._segments: Dict[str, Segment] = {}

    def allocate(self, name: str, nwords: int) -> Segment:
        if name in self._segments:
            raise ValueError(f"segment {name!r} already allocated")
        if nwords < 1:
            raise ValueError("segment must have at least one word")
        npages = -(-nwords // self.words_per_page)  # ceil division
        segment = Segment(name=name,
                          base_word=self._next_page * self.words_per_page,
                          nwords=nwords,
                          words_per_page=self.words_per_page)
        self._next_page += npages
        self._segments[name] = segment
        return segment
