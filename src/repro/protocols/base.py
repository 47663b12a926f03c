"""The protocol skeleton: what every protocol runs, and the hooks.

Every protocol (the paper's five multiple-writer RC protocols, EC and
the SC baseline) differs from the others only at four hook points —
access miss, release, lock grant and barrier (docs/protocols.md).
:class:`BaseProtocol` holds the one access-miss frame, interval
sealing, notice incorporation, invalidation, GC pruning, the barrier
combine, and a "carries nothing" default for each hook; the families
(:mod:`~repro.protocols.lazy`, :mod:`~repro.protocols.eager`,
:mod:`~repro.protocols.sc`) override what they move.

Terminology (paper sections 2-4):

- an *interval* is the span between synchronization events on one
  processor; sealing an interval creates diffs for every page written
  in it and assigns them the interval's vector time;
- a *write notice* announces "processor p modified page g in interval
  i"; its vector time orders it under happened-before-1;
- the *concurrent last modifiers* of a page (w.r.t. one node's pending
  notices) are the processors whose latest modification is not ordered
  before any other known modification; a lazy access miss contacts
  exactly those processors (2m messages, Table 1).

Data-race-freedom assumption: like the original protocols, correctness
of value propagation relies on the program being properly labelled
(conflicting accesses ordered by synchronization).  The simulator's
applications are; the property tests exercise the invariant directly.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import (Callable, Dict, Generator, List, NoReturn, Optional,
                    Sequence, Set, Tuple)

from repro.core.config import WORD_SIZE
from repro.mem.diffs import Diff
from repro.mem.intervals import BY_ORDER, IntervalId, IntervalRecord
from repro.mem.pages import PageCopy
from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.sim.engine import SimulationError


@dataclass(slots=True)
class ConsistencyInfo:
    """Write notices (as interval records) plus optional diffs,
    piggybacked on lock grants."""

    sender_vc: VectorClock
    records: List[IntervalRecord]
    diffs: List[Tuple[IntervalId, Diff]]


class ProtocolError(SimulationError):
    """A protocol invariant was violated."""


class BaseProtocol:
    """Common state and helpers; subclasses pick the policy points."""

    name = "base"
    is_lazy = False

    #: A locally valid page copy satisfies an access with no protocol
    #: action — lets the API layer (repro.core.api) skip the
    #: ensure_valid generator on the no-miss fast path.  SC overrides
    #: the write flag: writing there needs ownership, not validity.
    valid_copy_serves_reads = True
    valid_copy_serves_writes = True

    #: Policy knobs settable through ``configure`` (ablation studies):
    #: knob -> the values it accepts.
    TUNABLES: Dict[str, tuple] = {"price_diffs_as_pages": (False, True)}

    def __init__(self, node) -> None:
        self.node = node
        # Ablation: charge every diff at full page size, modelling a
        # DSM without run-length encoding (data volume only; the
        # multiple-writer merge still needs the word-level content).
        self.price_diffs_as_pages = False
        # Own modifications not yet flushed/pushed to other cachers:
        # interval id -> set of pages still to propagate.
        self.unpropagated: Dict[IntervalId, Set[int]] = {}
        # Pages written since the last seal (superset index: sealing
        # re-checks copy.dirty).  Lets seal_interval visit only written
        # pages instead of scanning the whole page table.
        self._dirty_pages: Set[int] = set()
        # Vector clock reached by the last global barrier.
        self.last_barrier_vc = VectorClock.zero(node.config.nprocs)

    def configure(self, **options) -> None:
        """Set ablation knobs; unknown names and values a knob does
        not accept raise."""
        for name, value in options.items():
            if name not in self.TUNABLES:
                raise ValueError(
                    f"{self.name} has no tunable {name!r}; choose "
                    f"from {sorted(self.TUNABLES)}")
            allowed = self.TUNABLES[name]
            if value not in allowed:
                raise ValueError(
                    f"{self.name} tunable {name!r} takes one of "
                    f"{list(allowed)}, not {value!r}")
            setattr(self, name, value)

    def diff_bytes(self, diff: Diff) -> int:
        """Accounting size of one diff (page-priced under ablation)."""
        if self.price_diffs_as_pages:
            return self.node.config.page_size
        return diff.size_bytes

    # ------------------------------------------------------------------
    # interval sealing
    # ------------------------------------------------------------------

    def seal_interval(self) -> float:
        """End the current interval: create a diff for every dirty page
        and log the interval.  Returns the cycle cost to charge."""
        node = self.node
        dirty_pages = self._dirty_pages
        if not dirty_pages:
            return 0.0
        copies = node.pagetable.copies
        dirty = []
        for page in sorted(dirty_pages):
            copy = copies.get(page)
            if copy is not None and copy.dirty:
                dirty.append((page, copy))
        dirty_pages.clear()
        if not dirty:
            return 0.0
        if node.config.nprocs == 1:
            # Single processor: nobody to merge with, so a real system
            # would never write-fault or diff (this run is the plain
            # sequential baseline used as the speedup denominator).
            for _page, copy in dirty:
                copy.take_written_ranges()
            return 0.0
        node.vc = node.vc.incremented(node.proc)
        index = node.vc[node.proc]
        cost = 0.0
        per_diff_cost = node.diff_creation_cost()
        words_created = 0
        me = node.proc
        # DiffStore.put and PageCopy.mark_applied inlined: the interval
        # is new, so no diff is stored under it and no copy covers it.
        store = node.diff_store._diffs
        for page, copy in dirty:
            ranges = copy.take_written_ranges()
            # record_write keeps the ranges normalized incrementally.
            # One byte-slice per run off the copy's flat buffer.
            diff = Diff.from_ranges(page, copy, ranges,
                                    word_size=WORD_SIZE,
                                    assume_normalized=True)
            store[(me, index, page)] = diff
            copy.applied[me] = index
            words_created += diff.word_count
            cost += per_diff_cost
        created = len(dirty)
        node.ins.diffs_created.value += created
        node.ins.diff_words.value += words_created
        record = IntervalRecord(proc=me, index=index, vc=node.vc,
                                pages=frozenset(page for page, _ in dirty))
        # IntervalLog.add inlined: our newest interval goes at the end
        # of our own index.
        interval_log = node.interval_log
        interval_log._records[record.interval_id] = record
        indices, logged = (interval_log._by_proc.get(me)
                           or interval_log._by_proc.setdefault(
                               me, ([], [])))
        indices.append(index)
        logged.append(record)
        node.ins.notices_created.value += len(record.pages)
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.seal", node=node.proc,
                             interval=index, pages=len(record.pages),
                             cost=cost, vc=list(node.vc.components))
        self.unpropagated[record.interval_id] = set(record.pages)
        return cost

    def seal_from_app(self) -> Generator:
        """Seal now and return the generator that charges the cost in
        application context (``yield from`` it at once)."""
        return self.node.app_charge(self.seal_interval())

    def seal_in_handler(self) -> None:
        self.node.handler_charge(self.seal_interval())

    # ------------------------------------------------------------------
    # notice bookkeeping
    # ------------------------------------------------------------------

    def incorporate_records(self,
                            records: Sequence[IntervalRecord]) -> None:
        """Merge received interval records: log them and attach write
        notices to the affected page copies.  A page this node holds
        no copy of only gains the writer's copyset bit: its notices
        stay in the log, where a lazy cold miss reads them
        (``LazyBase.logged_notices``).

        One frame for the whole batch: IntervalLog.add_if_new,
        PageCopy.add_notice, CopysetTable.add and Node.observe_peer_vc
        are inlined (this runs for every record of every grant,
        departure and miss reply), each with the same effect as the
        method it stands for."""
        node = self.node
        if node.tracer.sink.enabled and records:
            node.tracer.emit("protocol.notices_in", node=node.proc,
                             records=len(records),
                             pages=sum(len(r.pages) for r in records))
        me = node.proc
        interval_log = node.interval_log
        known = interval_log._records
        # Own and already-logged records drop out in one pass: barrier
        # departures broadcast the union to everyone, so most records
        # are known, and a miss's DIFF_REPLY carries only known ones.
        fresh = [record for record in records
                 if record.proc != me and record.interval_id not in known]
        if not fresh:
            return
        get_copy = node.pagetable.copies.get
        masks = node.copysets._masks
        masks_get = masks.get
        by_proc = interval_log._by_proc
        peer_seen = node.peer_seen
        received = 0
        for record in fresh:
            # A batch may name one record twice.
            interval_id = record.interval_id
            if interval_id in known:
                continue
            proc = record.proc
            if proc < 0:
                raise ValueError("invalid notice")
            index = record.index
            known[interval_id] = record
            per_proc = by_proc.get(proc)
            if per_proc is None:
                by_proc[proc] = ([index], [record])
            else:
                indices, logged = per_proc
                if index > indices[-1]:
                    indices.append(index)
                    logged.append(record)
                else:
                    position = bisect_left(indices, index)
                    indices.insert(position, index)
                    logged.insert(position, record)
            received += len(record.pages)
            # The writer's copyset bit is fixed for the whole record.
            bit = 1 << proc
            notices = record._notices
            if notices is None:
                notices = record.notices()
            for notice in notices:
                page = notice.page
                copy = get_copy(page)
                if copy is None:
                    masks[page] = masks_get(page, 0) | bit
                elif (copy.applied.get(proc, 0) < index
                      and interval_id not in copy._pending_ids):
                    copy._pending_ids.add(interval_id)
                    copy._pending_notices.append(notice)
                    masks[page] = masks_get(page, 0) | bit
            # The writer had seen our intervals up to its clock's
            # component for us.
            seen = record.vc.components[me]
            if seen > peer_seen[proc]:
                peer_seen[proc] = seen
        node.ins.notices_received.value += received

    def invalidate_page(self, page: int) -> None:
        copy = self.node.pagetable.copies.get(page)
        if copy is None:
            return
        if copy.dirty:
            raise ProtocolError(
                f"invalidating dirty page {page} on node "
                f"{self.node.proc}: seal the interval first")
        if copy.valid:
            copy.valid = False
            self.node.ins.invalidations.value += 1

    # ------------------------------------------------------------------
    # garbage collection (TreadMarks-style validate-then-prune)
    # ------------------------------------------------------------------

    # Vector time whose history may be pruned at the *next* GC point
    # (set one GC cycle earlier, after global validation: every node
    # has finished fetching anything that old before it could arrive
    # at the barrier that triggers the prune).
    _gc_prunable_vc: Optional[VectorClock] = None

    def collect_garbage(self) -> Generator:
        """Reclaim consistency metadata (called at GC barriers).

        Phase P (prune): drop interval records and stored diffs
        dominated by the vector time validated at the *previous* GC
        barrier — by then every node has validated its copies past
        that point, so nothing that old can be requested again.

        Phase V (validate): bring every local copy up to date with the
        just-departed barrier's knowledge (fetching diffs if needed),
        so the current clock becomes prunable at the next GC barrier.
        Eager protocols are always valid or served whole pages by the
        home, so their validation is free.
        """
        node = self.node
        if self._gc_prunable_vc is not None:
            vc = self._gc_prunable_vc
            dropped = node.interval_log.prune_dominated(vc)
            node.diff_store.prune_intervals(dropped)
        yield from self.validate_all()
        self._gc_prunable_vc = self.last_barrier_vc

    def validate_all(self) -> Generator:
        """Bring every cached page fully up to date (subclasses that
        can hold pending notices override)."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # the access-miss frame
    # ------------------------------------------------------------------

    def ensure_valid(self, page: int, for_write: bool) -> Generator:
        """Make ``page`` serve the access: the one place a miss is
        counted, traced and timed.  A family supplies only its hit test
        (:meth:`is_hit`) and its resolution (:meth:`resolve_miss`)."""
        node = self.node
        copy = node.pagetable.copies.get(page)
        if self.is_hit(page, copy, for_write):
            return
        started = node.sim.now
        if for_write:
            node.ins.write_misses.value += 1
        else:
            node.ins.read_misses.value += 1
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.page_fault", page=page,
                             node=node.proc, write=for_write,
                             cold=copy is None)
        yield from self.resolve_miss(page, for_write)
        waited = node.sim.now - started
        node.ins.miss_wait.observe(waited)
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.fault_done", page=page,
                             node=node.proc, waited=waited)

    def is_hit(self, page: int, copy: Optional[PageCopy],
               for_write: bool) -> bool:
        """Whether the local copy serves the access as it stands."""
        return copy is not None and copy.valid

    def resolve_miss(self, page: int, for_write: bool) -> Generator:
        """Bring the page to a state :meth:`is_hit` accepts."""
        raise NotImplementedError

    def record_write(self, page: int, start: int, end: int) -> None:
        copy = self.node.pagetable.copies.get(page)
        if copy is None or not copy.valid:
            raise ProtocolError(
                f"write to invalid page {page} on node "
                f"{self.node.proc}: ensure_valid must run first")
        copy.record_write(start, end)
        self._dirty_pages.add(page)

    # ------------------------------------------------------------------
    # release, grant and barrier hooks: by default they carry nothing
    # ------------------------------------------------------------------

    def on_release(self) -> Generator:
        return
        yield  # pragma: no cover - makes this a generator

    def grant_payload(self, requester: int,
                      requester_vc: VectorClock,
                      lock_id: Optional[int] = None
                      ) -> Tuple[Optional[ConsistencyInfo], int]:
        """The lock grant's consistency payload and its data bytes."""
        node = self.node
        node.observe_peer_vc(requester, node.vc)
        return None, 0

    def apply_grant(self,
                    info: Optional[ConsistencyInfo]) -> Generator:
        if info is not None:
            raise ProtocolError(f"{self.name} got consistency payload "
                                "on a lock grant")
        return
        yield  # pragma: no cover - makes this a generator

    def pre_barrier(self) -> Generator:
        return
        yield  # pragma: no cover - makes this a generator

    def barrier_arrive_payload(self) -> dict:
        return {"records":
                self.node.interval_log.records_after(self.last_barrier_vc),
                "vc": self.node.vc}

    def master_combine(self, arrivals: Dict[int, dict]) -> Dict[int, dict]:
        """Default master: union every arrival's records and hand the
        union, the pages it names (ascending) and the merged clock to
        everyone — the page list is built here once, not by each
        departing node."""
        merged_vc = self.node.vc
        seen: Dict[IntervalId, IntervalRecord] = {}
        for payload in arrivals.values():
            merged_vc = merged_vc.merged(payload["vc"])
            for record in payload["records"]:
                seen.setdefault(record.interval_id, record)
        records = sorted(seen.values(), key=BY_ORDER)
        pages = sorted({page for record in records
                        for page in record.pages})
        depart = {"records": records, "pages": pages, "vc": merged_vc}
        return {proc: depart for proc in arrivals}

    def apply_depart(self, payload: dict) -> Generator:
        return
        yield  # pragma: no cover - makes this a generator

    def handlers(self) -> Dict[MsgKind, Callable[[Message], None]]:
        """Each message kind this protocol serves, mapped to its bound
        handler (``Node.bind_handlers`` installs the table)."""
        return {}

    def unhandled(self, message: Message) -> NoReturn:
        """The handler of every kind :meth:`handlers` does not map."""
        raise ProtocolError(f"{self.name} cannot handle {message}")
