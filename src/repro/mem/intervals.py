"""Intervals, write notices, and the per-machine diff store.

Execution on each processor is divided into *intervals*, delimited by
synchronization events.  A :class:`WriteNotice` announces that a page
was modified during a given interval; the notice carries the interval's
vector time so receivers can order it under happened-before-1.

Both carry ``order = (vc.total(), proc, index)``: the one linear
extension of happened-before-1 every record and notice sort uses
(a strictly later vector time has a strictly larger total; the id
breaks ties).  It is computed once per object, so sorts key on
``attrgetter("order")`` instead of calling back into Python.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.mem.diffs import Diff
from repro.mem.timestamps import VectorClock

IntervalId = Tuple[int, int]  # (proc, interval index)

#: Sort key of records and notices: ascending happened-before-1 order.
BY_ORDER = attrgetter("order")
#: Key of a record's page-ascending notice list.
BY_PAGE = attrgetter("page")


@dataclass(frozen=True, slots=True)
class WriteNotice:
    """'Processor ``proc``, in interval ``index``, modified ``page``.'"""

    page: int
    proc: int
    index: int
    vc: VectorClock
    # Derived once: both are read many times per notice on the
    # dedup/apply paths.  compare=False keeps __eq__/__hash__ on the
    # four fields above.
    interval_id: IntervalId = field(init=False, repr=False,
                                    compare=False)
    order: Tuple[int, int, int] = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval_id",
                           (self.proc, self.index))
        object.__setattr__(self, "order",
                           (self.vc.total(), self.proc, self.index))


@dataclass(slots=True)
class IntervalRecord:
    """One sealed interval: which pages it wrote and its vector time."""

    proc: int
    index: int
    vc: VectorClock
    pages: FrozenSet[int]
    interval_id: IntervalId = field(init=False, repr=False,
                                    compare=False)
    order: Tuple[int, int, int] = field(init=False, repr=False,
                                        compare=False)
    _notices: Optional[List[WriteNotice]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.interval_id = (self.proc, self.index)
        self.order = (self.vc.total(), self.proc, self.index)
        self._notices = None

    def notices(self) -> List[WriteNotice]:
        """The record's write notices (page-ascending).  Cached: a
        record object is shared by every node that receives it, and
        notices are immutable — building them once per record (instead
        of once per receiving node) takes dataclass construction off
        the incorporate hot path.  Callers must not mutate the list."""
        built = self._notices
        if built is None:
            built = [WriteNotice(page=page, proc=self.proc,
                                 index=self.index, vc=self.vc)
                     for page in sorted(self.pages)]
            self._notices = built
        return built

    def notice(self, page: int) -> WriteNotice:
        """The cached notice for ``page``, one of the record's pages."""
        notices = self.notices()
        return notices[bisect_left(notices, page, key=BY_PAGE)]


class IntervalLog:
    """A node's knowledge of intervals (its own and received ones).

    Alongside the flat id->record map, records are indexed per
    processor in ascending interval order, so :meth:`records_after` —
    called on every lock grant and barrier arrival — is a bisect per
    processor instead of a scan of the whole log (which made barrier
    cost grow with run length before GC could prune).
    """

    def __init__(self) -> None:
        self._records: Dict[IntervalId, IntervalRecord] = {}
        # proc -> (ascending interval indices, records in that order).
        self._by_proc: Dict[int, Tuple[List[int],
                                       List[IntervalRecord]]] = {}

    def add(self, record: IntervalRecord) -> None:
        self.add_if_new(record)

    def add_if_new(self, record: IntervalRecord) -> bool:
        """Add ``record`` unless already known; returns True if added.
        Single-lookup variant for the incorporate hot path (which
        otherwise pays a ``in`` check plus ``add``'s own)."""
        interval_id = record.interval_id
        if interval_id in self._records:
            return False
        self._records[interval_id] = record
        indices, records = self._by_proc.setdefault(record.proc,
                                                    ([], []))
        if not indices or record.index > indices[-1]:
            indices.append(record.index)
            records.append(record)
        else:
            position = bisect_left(indices, record.index)
            indices.insert(position, record.index)
            records.insert(position, record)
        return True

    def get(self, interval_id: IntervalId) -> Optional[IntervalRecord]:
        return self._records.get(interval_id)

    def __contains__(self, interval_id: IntervalId) -> bool:
        return interval_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    def records_after(self, vc: VectorClock) -> List[IntervalRecord]:
        """Intervals (q, i) known here with i > vc[q]: exactly the write
        notices a releaser must ship to an acquirer whose clock is
        ``vc``."""
        components = vc.components
        found: List[IntervalRecord] = []
        for proc, (indices, records) in self._by_proc.items():
            # Quick reject: indices are ascending, so when the newest
            # known interval is already covered by ``vc`` the bisect
            # (and the slice) can be skipped for this processor.
            if indices[-1] <= components[proc]:
                continue
            cut = bisect_right(indices, components[proc])
            if cut < len(records):
                found.extend(records[cut:])
        if len(found) > 1:
            found.sort(key=BY_ORDER)
        return found

    def prune_dominated(self, vc: VectorClock) -> List[IntervalId]:
        """Drop every record whose vector time is dominated by ``vc``
        (globally-known history); returns the dropped ids."""
        dropped = [iid for iid, record in self._records.items()
                   if vc.dominates(record.vc)]
        for iid in dropped:
            del self._records[iid]
        if dropped:
            self._by_proc = {}
            for record in self._records.values():
                indices, records = self._by_proc.setdefault(
                    record.proc, ([], []))
                # _records preserves insertion order, but per-proc
                # index order must be rebuilt defensively.
                if indices and record.index <= indices[-1]:
                    position = bisect_left(indices, record.index)
                    indices.insert(position, record.index)
                    records.insert(position, record)
                else:
                    indices.append(record.index)
                    records.append(record)
        return dropped


class DiffStore:
    """Diffs retained by one node, keyed by (proc, interval, page).

    A node stores every diff it creates and every diff it receives; the
    lazy protocols exploit this to fetch, from each concurrent last
    modifier, all diffs that precede that modifier's write (paper
    section 4.2.1/4.2.3).
    """

    def __init__(self) -> None:
        self._diffs: Dict[Tuple[int, int, int], Diff] = {}

    def put(self, proc: int, index: int, diff: Diff) -> None:
        self._diffs.setdefault((proc, index, diff.page), diff)

    def get(self, proc: int, index: int, page: int) -> Optional[Diff]:
        return self._diffs.get((proc, index, page))

    def has(self, proc: int, index: int, page: int) -> bool:
        return (proc, index, page) in self._diffs

    def __len__(self) -> int:
        return len(self._diffs)

    def prune_intervals(self, interval_ids) -> int:
        """Drop every stored diff belonging to the given intervals;
        returns how many were removed."""
        doomed_ids = set(interval_ids)
        doomed = [key for key in self._diffs
                  if (key[0], key[1]) in doomed_ids]
        for key in doomed:
            del self._diffs[key]
        return len(doomed)
