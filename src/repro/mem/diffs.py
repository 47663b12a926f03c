"""Run-length encoded page diffs on a flat buffer substrate.

A diff captures the words of one page modified during one interval, as
runs of (start word, values).  Sending diffs instead of pages is what
lets the multiple-writer protocols merge concurrent modifications of a
falsely-shared page.

Representation (docs/memory.md): a diff is three flat pieces — a
``starts`` tuple, a ``counts`` tuple, and one contiguous ``payload``
``bytes`` holding every run's float64 words back to back.  Creating a
diff from a :class:`repro.mem.pages.PageCopy` is a byte-slice per run
off the page's flat buffer (no numpy allocation per run), and applying
one is a single-pass memoryview splice per run — both C-speed
``memcpy``s.  The canonical serialized form lives in
:mod:`repro.mem.wire`; ``size_bytes`` follows that spec's accounting.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.mem.wire import (HOST_WORD_BYTES, RUN_HEADER_BYTES,
                            accounted_size)

__all__ = ["Diff", "RUN_HEADER_BYTES", "normalize_ranges",
           "ranges_word_count"]


def normalize_ranges(ranges: Iterable[Tuple[int, int]]
                     ) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent half-open word ranges, sorted."""
    items = sorted((int(a), int(b)) for a, b in ranges if b > a)
    merged: List[Tuple[int, int]] = []
    for start, end in items:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def ranges_word_count(ranges: Sequence[Tuple[int, int]]) -> int:
    return sum(end - start for start, end in ranges)


class Diff:
    """Modified words of a single page, as run-length runs.

    Immutable once constructed: the flat pieces (``starts``,
    ``counts``, ``payload``) never change, so the derived sizes
    (``word_count``, ``size_bytes`` — consulted per message on the
    protocol critical path) are plain attributes computed once.
    """

    __slots__ = ("page", "starts", "counts", "payload", "word_size",
                 "word_count", "size_bytes", "_runs")

    def __init__(self, page: int,
                 runs: Sequence[Tuple[int, np.ndarray]],
                 word_size: int = 4) -> None:
        starts = []
        counts = []
        parts = []
        for start, values in runs:
            values = np.asarray(values, dtype=np.float64)
            starts.append(int(start))
            counts.append(len(values))
            parts.append(values.tobytes())
        self._init_flat(page, tuple(starts), tuple(counts),
                        b"".join(parts), word_size)

    def _init_flat(self, page: int, starts: Tuple[int, ...],
                   counts: Tuple[int, ...], payload: bytes,
                   word_size: int) -> None:
        self.page = page
        self.starts = starts
        self.counts = counts
        self.payload = payload
        self.word_size = word_size
        self.word_count = len(payload) // HOST_WORD_BYTES
        self.size_bytes = accounted_size(len(starts), self.word_count,
                                         word_size)
        self._runs = None

    @classmethod
    def from_flat(cls, page: int, starts: Tuple[int, ...],
                  counts: Tuple[int, ...], payload: bytes,
                  word_size: int = 4) -> "Diff":
        """Fast constructor from the flat pieces (already validated)."""
        diff = object.__new__(cls)
        diff._init_flat(page, starts, counts, payload, word_size)
        return diff

    @staticmethod
    def from_ranges(page: int, source, ranges: Iterable[Tuple[int, int]],
                    word_size: int = 4,
                    assume_normalized: bool = False) -> "Diff":
        """Snapshot ``source`` over the given word ranges.

        ``source`` is a :class:`repro.mem.pages.PageCopy` (the hot
        path: each run is one byte-slice off the page's flat buffer)
        or a float64 numpy array.  With ``assume_normalized`` the
        caller promises ``ranges`` is already sorted and disjoint
        (e.g. straight out of
        :meth:`repro.mem.pages.PageCopy.take_written_ranges`), skipping
        a redundant :func:`normalize_ranges` pass.
        """
        if not assume_normalized:
            ranges = normalize_ranges(ranges)
        elif not isinstance(ranges, (list, tuple)):
            ranges = list(ranges)
        raw = getattr(source, "raw", None)
        if raw is None:
            raw = memoryview(np.ascontiguousarray(
                source, dtype=np.float64).tobytes())
        if len(ranges) == 1:
            # Single-run diffs dominate (regular apps write whole
            # rows/pages): one slice, no join.
            start, end = ranges[0]
            payload = bytes(raw[start * 8:end * 8])
            return Diff.from_flat(page, (int(start),),
                                  (int(end - start),), payload,
                                  word_size=word_size)
        starts = []
        counts = []
        parts = []
        for start, end in ranges:
            starts.append(int(start))
            counts.append(int(end - start))
            parts.append(raw[start * 8:end * 8])
        return Diff.from_flat(page, tuple(starts), tuple(counts),
                              b"".join(parts), word_size=word_size)

    @property
    def runs(self) -> List[Tuple[int, np.ndarray]]:
        """Compatibility view: ``[(start, float64 values), ...]``.
        Built lazily from the flat payload; the arrays are copies, so
        mutating them never corrupts the diff."""
        built = self._runs
        if built is None:
            words = np.frombuffer(self.payload, dtype=np.float64)
            built = []
            cursor = 0
            for start, count in zip(self.starts, self.counts):
                built.append((start,
                              words[cursor:cursor + count].copy()))
                cursor += count
            self._runs = built
        return built

    def ranges(self) -> List[Tuple[int, int]]:
        return [(start, start + count)
                for start, count in zip(self.starts, self.counts)]

    def apply(self, target) -> None:
        """Write the diff's words into ``target`` in place.

        ``target`` is a :class:`repro.mem.pages.PageCopy` (the hot
        path: one memoryview byte-splice per run — a straight
        ``memcpy``) or a float64 numpy array (tests, analysis code).
        """
        buffer = getattr(target, "buffer", None)
        if buffer is not None:
            size = len(buffer) // 8
            payload = self.payload
            starts = self.starts
            if len(starts) == 1:
                start = starts[0]
                end = start + self.counts[0]
                if end > size:
                    raise ValueError(
                        f"diff run [{start},{end}) exceeds "
                        f"page of {size} words")
                buffer[start * 8:end * 8] = payload
                return
            source = memoryview(payload)
            cursor = 0
            for start, count in zip(starts, self.counts):
                end = start + count
                if end > size:
                    raise ValueError(
                        f"diff run [{start},{end}) exceeds "
                        f"page of {size} words")
                stop = cursor + count * 8
                buffer[start * 8:end * 8] = source[cursor:stop]
                cursor = stop
            return
        size = len(target)
        words = np.frombuffer(self.payload, dtype=np.float64)
        cursor = 0
        for start, count in zip(self.starts, self.counts):
            end = start + count
            if end > size:
                raise ValueError(
                    f"diff run [{start},{end}) exceeds "
                    f"page of {size} words")
            target[start:end] = words[cursor:cursor + count]
            cursor += count

    def overlaps(self, other: "Diff") -> bool:
        mine = normalize_ranges(self.ranges())
        theirs = normalize_ranges(other.ranges())
        i = j = 0
        while i < len(mine) and j < len(theirs):
            a_start, a_end = mine[i]
            b_start, b_end = theirs[j]
            if a_start < b_end and b_start < a_end:
                return True
            if a_end <= b_end:
                i += 1
            else:
                j += 1
        return False

    def __eq__(self, other) -> bool:
        return (isinstance(other, Diff)
                and self.page == other.page
                and self.word_size == other.word_size
                and self.starts == other.starts
                and self.counts == other.counts
                and self.payload == other.payload)

    def __hash__(self) -> int:
        return hash((self.page, self.word_size, self.starts,
                     self.counts, self.payload))

    def __repr__(self) -> str:
        return (f"<Diff page={self.page} runs={len(self.starts)} "
                f"words={self.word_count}>")
