"""Shared machinery for the five multiple-writer RC protocols.

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

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mem.diffs import Diff
from repro.mem.intervals import (IntervalId, IntervalRecord, WriteNotice)
from repro.mem.pages import PageCopy
from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.sim.engine import SimulationError


@dataclass
class ConsistencyInfo:
    """Write notices (as interval records) plus optional diffs,
    piggybacked on lock grants and barrier departures."""

    sender_vc: VectorClock
    records: List[IntervalRecord] = field(default_factory=list)
    diffs: List[Tuple[IntervalId, Diff]] = field(default_factory=list)


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

    #: Policy knobs settable through ``configure`` (ablation studies).
    TUNABLES = ("price_diffs_as_pages",)

    #: Whether :mod:`repro.mem.checkpoint` can serialize this
    #: protocol's consistency state (the base orphan/own/unpropagated
    #: dicts and the barrier clock).  Subclasses carrying state the
    #: RCKP format does not cover must opt out, which turns node-crash
    #: faults into an explicit configuration error instead of a
    #: silently incomplete restore.
    supports_checkpoint = True

    def __init__(self, node) -> None:
        self.node = node
        # Ablation: charge every diff at full page size, modelling a
        # DSM without run-length encoding (data volume only; the
        # multiple-writer merge still needs the word-level content).
        self.price_diffs_as_pages = False
        # Notices for pages we hold no copy of (merged in at install):
        # page -> {interval id: notice}.  One dict doubles as ordered
        # list (insertion order) and O(1) dedup set.
        self.orphan_notices: Dict[int, Dict[IntervalId,
                                            WriteNotice]] = {}
        # Own intervals that modified each page (indices, ascending).
        self.own_page_intervals: Dict[int, List[int]] = {}
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
        """Set ablation knobs; unknown names raise."""
        for name, value in options.items():
            if name not in self.TUNABLES:
                raise ValueError(
                    f"{self.name} has no tunable {name!r}; choose "
                    f"from {sorted(self.TUNABLES)}")
            setattr(self, name, value)

    def diff_bytes(self, diff: Diff) -> int:
        """Accounting size of one diff (page-priced under ablation)."""
        if self.price_diffs_as_pages:
            return self.node.config.page_size
        return diff.size_bytes

    # ------------------------------------------------------------------
    # interval sealing and diff management
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
        pending_ranges: Dict[int, List[Tuple[int, int]]] = {}
        cost = 0.0
        per_diff_cost = node.diff_creation_cost()
        word_size = node.config.word_size
        words_created = 0
        for page, copy in dirty:
            ranges = copy.take_written_ranges()
            pending_ranges[page] = ranges
            # record_write keeps the ranges normalized incrementally.
            # One byte-slice per run off the copy's flat buffer.
            diff = Diff.from_ranges(page, copy, ranges,
                                    word_size=word_size,
                                    assume_normalized=True)
            node.diff_store.put(node.proc, index, diff)
            copy.mark_applied(node.proc, index)
            self.own_page_intervals.setdefault(page, []).append(index)
            words_created += diff.word_count
            cost += per_diff_cost
        created = len(dirty)
        node.ins.diffs_created.value += created
        node.ins.diff_words.value += words_created
        record = IntervalRecord(proc=node.proc, index=index, vc=node.vc,
                                pages=frozenset(pending_ranges),
                                pending_ranges=pending_ranges)
        node.interval_log.add(record)
        node.ins.notices_created.value += len(record.pages)
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.seal", node=node.proc,
                             interval=index, pages=len(record.pages),
                             cost=cost, vc=list(node.vc.components))
        self.unpropagated[record.interval_id] = set(record.pages)
        return cost

    def mark_propagated(self, interval_id: IntervalId,
                        page: int) -> None:
        """This page's modification has reached whoever needed it."""
        pages = self.unpropagated.get(interval_id)
        if pages is not None:
            pages.discard(page)
            if not pages:
                del self.unpropagated[interval_id]

    def seal_from_app(self) -> Generator:
        yield from self.node.app_charge(self.seal_interval())

    def seal_in_handler(self) -> None:
        self.node.handler_charge(self.seal_interval())

    def _try_get_diff(self, proc: int, index: int,
                      page: int) -> Optional[Diff]:
        """Fetch a diff from the local store.  Diffs are only ever
        served verbatim as sealed — re-deriving one from a live page
        copy could leak later writes into an older interval."""
        return self.node.diff_store.get(proc, index, page)

    def _require_diff(self, proc: int, index: int, page: int) -> Diff:
        diff = self._try_get_diff(proc, index, page)
        if diff is None:
            raise ProtocolError(
                f"node {self.node.proc} asked for diff ({proc},{index}) "
                f"of page {page} it does not hold")
        return diff

    # ------------------------------------------------------------------
    # notice bookkeeping
    # ------------------------------------------------------------------

    def incorporate_records(self,
                            records: Sequence[IntervalRecord]) -> None:
        """Merge received interval records: log them and attach write
        notices to the affected page copies (or the orphan list)."""
        node = self.node
        if node.tracer.sink.enabled and records:
            node.tracer.emit("protocol.notices_in", node=node.proc,
                             records=len(records),
                             pages=sum(len(r.pages) for r in records))
        get_copy = node.pagetable.copies.get
        masks = node.copysets._masks
        masks_get = masks.get
        interval_log = node.interval_log
        known = interval_log._records
        orphans = self.orphan_notices
        notices_received = node.ins.notices_received
        me = node.proc
        # A processor's clock is non-decreasing across its intervals,
        # so its highest-index record's vector time dominates the rest
        # — one observe_peer_vc merge per source proc replaces one per
        # record.
        latest: Dict[int, IntervalRecord] = {}
        for record in records:
            proc = record.proc
            if proc == me:
                continue
            # Duplicate quick-reject on the log's dict before paying
            # the add_if_new call: barrier departures broadcast the
            # union to everyone, so most records are already known.
            if (record.interval_id in known
                    or not interval_log.add_if_new(record)):
                continue
            notices_received.value += len(record.pages)
            # CopysetTable.add inlined (once per notice); the writer's
            # bit is fixed for the whole record.
            bit = 1 << proc
            for notice in record.notices():
                page = notice.page
                copy = get_copy(page)
                if copy is None:
                    # An orphan: a notice for a page this node has
                    # no copy of yet (hot — kept inline).
                    bucket = orphans.get(page)
                    if bucket is None:
                        bucket = orphans[page] = {}
                    interval_id = notice.interval_id
                    if interval_id not in bucket:
                        bucket[interval_id] = notice
                        masks[page] = masks_get(page, 0) | bit
                elif copy.add_notice(notice):
                    masks[page] = masks_get(page, 0) | bit
            current = latest.get(proc)
            if current is None or record.index > current.index:
                latest[proc] = record
        for proc, record in latest.items():
            node.observe_peer_vc(proc, record.vc)

    def store_diffs(self,
                    diffs: Sequence[Tuple[IntervalId, Diff]]) -> None:
        for (proc, index), diff in diffs:
            self.node.diff_store.put(proc, index, diff)
            self.node.ins.diffs_applied.value += 1

    # ------------------------------------------------------------------
    # applying pending modifications
    # ------------------------------------------------------------------

    def due_notices(self, copy: PageCopy) -> List["WriteNotice"]:
        """Pending notices inside this node's causal cone (vector time
        dominated by the node's clock).

        The node's knowledge of intervals is complete below its own
        vector time (grants and departures ship every record above the
        requester's clock), so for a *due* notice every
        happened-before-1 predecessor that modified the page is known —
        applying due notices in vector-time order can never be rolled
        back.  Notices *outside* the cone (delivered by opportunistic
        update pushes) must wait for the acquire that brings them in:
        applying them early could order them before an unknown
        predecessor."""
        pending = copy.pending_notices
        if not pending:
            return []
        # Memoized per copy, incrementally: a node's clock only ever
        # advances, so a notice once due stays due until applied —
        # re-filtering needs to look only at previous strays plus
        # notices appended since the last call, not the whole list.
        # Keys are object identities (clocks are immutable; the pending
        # list only ever grows in place or is swapped wholesale).
        vc = self.node.vc
        cached = copy.due_cache
        # The result must preserve pending-list order (it feeds request
        # construction and hence message ordering), so the incremental
        # path only fires when the prior prefix provably keeps its
        # order: either the clock is unchanged (strays stay strays) or
        # there were no strays (a monotone clock keeps every prior
        # entry due, in place).
        if (cached is not None and cached[1] is pending
                and (cached[0] is vc or not cached[4])):
            seen = cached[2]
            if cached[0] is vc and seen == len(pending):
                return cached[3]
            tail = pending[seen:]
            if not tail:
                copy.due_cache = (vc, pending, seen,
                                  cached[3], cached[4])
                return cached[3]
            due = list(cached[3])
            strays = list(cached[4])
        else:
            tail = pending
            due = []
            strays = []
        # Inlined VectorClock.dominates: this filter runs on every
        # acquire/barrier resolution and every miss — the method-call
        # version dominated whole-run profiles.
        mine = vc.components
        for n in tail:
            for a, b in zip(mine, n.vc.components):
                if a < b:
                    strays.append(n)
                    break
            else:
                due.append(n)
        copy.due_cache = (vc, pending, len(pending), due, strays)
        return due

    def apply_pending(self, copy: PageCopy) -> bool:
        """Apply every due notice's diff, in a happened-before-1 linear
        extension (ascending vector-time totals).  Returns True and
        revalidates the copy on success (not-yet-due pushed notices may
        remain pending — reading around them is release-consistent);
        returns False (no changes) if some due diff is missing."""
        due = self.due_notices(copy)
        if not due:
            # Nothing in the causal cone: trivially applied (pushed
            # strays may remain pending — reading around them is
            # release-consistent).
            copy.valid = True
            return True
        store = self.node.diff_store
        page = copy.page
        for n in due:
            if not store.has(n.proc, n.index, page):
                return False
        notices = sorted(due,
                         key=lambda n: (n.vc.total(), n.proc, n.index))
        get = store.get
        for notice in notices:
            diff = get(notice.proc, notice.index, page)
            diff.apply(copy)
            copy.mark_applied(notice.proc, notice.index)
        copy.remove_notices({n.interval_id for n in due})
        copy.valid = True
        if self.node.tracer.sink.enabled:
            self.node.tracer.emit("protocol.diff_apply",
                                  page=copy.page, node=self.node.proc,
                                  diffs=len(notices))
        return True

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
    # lazy access-miss machinery (shared by LI, LU, LH)
    # ------------------------------------------------------------------

    def concurrent_last_modifiers(
            self, notices: Sequence[WriteNotice]) -> List[int]:
        """Processors whose latest known modification of the page is not
        ordered before any other known modification ('m' in Table 1)."""
        latest: Dict[int, WriteNotice] = {}
        for notice in notices:
            current = latest.get(notice.proc)
            if current is None or notice.index > current.index:
                latest[notice.proc] = notice
        if len(latest) == 1:
            # Single known modifier (the common case in phase-parallel
            # apps): nobody can dominate it.
            return list(latest)
        modifiers = []
        for proc, notice in latest.items():
            dominated = any(
                other.vc.strictly_dominates(notice.vc)
                for other_proc, other in latest.items()
                if other_proc != proc)
            if not dominated:
                modifiers.append(proc)
        return sorted(modifiers)

    def _assign_wanted(self, notices: Sequence[WriteNotice],
                       modifiers: Sequence[int],
                       escalated: Optional[Set[Tuple[int, int]]] = None,
                       all_notices: Optional[
                           Sequence[WriteNotice]] = None
                       ) -> Dict[int, List[WriteNotice]]:
        """Group the wanted notices by the concurrent last modifier
        whose last modification dominates each (it *usually* retains
        the diffs that precede its own write).  Notices in
        ``escalated`` — already requested once and not supplied — go
        straight to their writer, who always retains its own diffs.
        ``all_notices`` (default: ``notices``) supplies the modifiers'
        latest vector times when some are not themselves wanted."""
        if all_notices is None:
            all_notices = notices
        escalated = escalated or set()
        latest_vc: Dict[int, VectorClock] = {}
        for notice in all_notices:
            current = latest_vc.get(notice.proc)
            if current is None or notice.index > current[notice.proc]:
                latest_vc[notice.proc] = notice.vc
        assignment: Dict[int, List[WriteNotice]] = {}
        for notice in notices:
            target = None
            if (notice.proc in modifiers
                    or notice.interval_id in escalated):
                target = notice.proc
            else:
                for modifier in modifiers:
                    vc = latest_vc.get(modifier)
                    if vc is not None and vc.dominates(notice.vc):
                        target = modifier
                        break
            if target is None:
                target = notice.proc  # the writer always has its diff
            assignment.setdefault(target, []).append(notice)
        return assignment

    def lazy_miss(self, page: int) -> Generator:
        """Resolve an access miss the lazy way: contact each concurrent
        last modifier once (2m messages), fetching the page contents
        from the first when we hold no copy at all."""
        node = self.node
        escalated: Set[Tuple[int, int]] = set()
        writer_requested: Set[Tuple[int, int]] = set()
        while True:
            copy = node.pagetable.copies.get(page)
            if copy is not None and copy.valid:
                return
            if copy is not None and self.apply_pending(copy):
                return
            # Only notices inside our causal cone are fetched; pushed
            # strays wait for the acquire that makes them due.
            if copy is not None:
                pending = self.due_notices(copy)
            else:
                mine = node.vc.components
                pending = []
                bucket = self.orphan_notices.get(page)
                if bucket:
                    for n in bucket.values():
                        for a, b in zip(mine, n.vc.components):
                            if a < b:
                                break
                        else:
                            pending.append(n)
            wanted = [n for n in pending
                      if n.proc != node.proc
                      and not node.diff_store.has(n.proc, n.index, page)]
            self._check_escalation(page, wanted, writer_requested)
            modifiers = [m for m in
                         self.concurrent_last_modifiers(pending)
                         if m != node.proc]
            assignment = self._assign_wanted(wanted, modifiers,
                                             escalated,
                                             all_notices=pending)
            escalated.update(n.interval_id for n in wanted)
            self._note_writer_requests(assignment, writer_requested)
            requests = []
            base_source = None
            if copy is None:
                base_source = (modifiers[0] if modifiers
                               else node.page_owner(page))
                if base_source == node.proc:
                    raise ProtocolError(
                        f"node {node.proc} cold-missing page {page} it "
                        "should already hold")
                requests.append((base_source, Message(
                    src=node.proc, dst=base_source, kind=MsgKind.PAGE_REQ,
                    payload={"page": page,
                             "wanted": self._wanted_ids(
                                 assignment.get(base_source, ()))})))
            for modifier, their_notices in assignment.items():
                if modifier == base_source:
                    continue
                requests.append((modifier, Message(
                    src=node.proc, dst=modifier, kind=MsgKind.DIFF_REQ,
                    payload={"page": page,
                             "wanted": self._wanted_ids(their_notices)})))
            if not requests and copy is None:
                # No modifiers known: plain cold miss from the owner.
                raise ProtocolError("unreachable: cold miss builds a "
                                    "request above")
            if not requests:
                # Pending notices but every diff already local: the
                # apply at loop top must have succeeded.
                raise ProtocolError(
                    f"node {node.proc} page {page} pending notices "
                    "unsatisfiable without requests")
            reply_events = []
            for _dst, message in requests:
                reply_events.append(node.expect_reply(message))
                yield from node.app_send(message)
            replies = yield node.sim.all_of(reply_events)
            for reply in replies:
                self._integrate_miss_reply(page, reply)
            # Loop: new notices may have raced in; normally one pass.

    @staticmethod
    def _wanted_ids(notices) -> List[Tuple[int, int]]:
        return [(n.proc, n.index) for n in notices]

    def _check_escalation(self, page: int, wanted,
                          writer_requested) -> None:
        """A diff requested directly from its writer must have arrived;
        anything else is a retention-invariant violation."""
        for notice in wanted:
            if notice.interval_id in writer_requested:
                raise ProtocolError(
                    f"node {self.node.proc}: writer {notice.proc} "
                    f"failed to supply diff {notice.interval_id} "
                    f"for page {page}")

    @staticmethod
    def _note_writer_requests(assignment, writer_requested) -> None:
        for target, notices in assignment.items():
            for notice in notices:
                if target == notice.proc:
                    writer_requested.add(notice.interval_id)

    def _integrate_miss_reply(self, page: int, reply: Message) -> None:
        payload = reply.payload
        node = self.node
        if reply.kind == MsgKind.PAGE_REPLY:
            self._install_base(page, payload)
        self.incorporate_records(payload.get("records", ()))
        self.store_diffs(payload.get("diffs", ()))
        if "copyset" in payload:
            node.copysets.merge(page, payload["copyset"])

    def _install_base(self, page: int, payload: dict) -> None:
        """Install page contents received from a peer, preserving our
        own not-yet-propagated modifications as pending work."""
        node = self.node
        copy = node.pagetable.install(page, values=payload["values"],
                                      valid=False)
        copy.applied = dict(payload["applied"])
        copy.pending_notices = []
        node.ins.page_transfers.value += 1
        # Merge notices parked while we had no copy.
        parked = self.orphan_notices.pop(page, None)
        if parked:
            for notice in parked.values():
                copy.add_notice(notice)
        # Our own sealed intervals the source did not cover must be
        # re-applied on top (their diffs are local).
        for index in self.own_page_intervals.get(page, ()):
            if not copy.is_applied(node.proc, index):
                record = node.interval_log.get((node.proc, index))
                copy.add_notice(WriteNotice(page=page, proc=node.proc,
                                            index=index, vc=record.vc))

    # ------------------------------------------------------------------
    # serving misses and diff requests (shared handlers)
    # ------------------------------------------------------------------

    def _serve_page_request(self, message: Message) -> None:
        """Lazy-protocol PAGE_REQ service: page contents + coverage map
        + our pending notices + any requested diffs."""
        node = self.node
        page = message.payload["page"]
        copy = node.pagetable.copies.get(page)
        if copy is None:
            raise ProtocolError(
                f"node {node.proc} asked for page {page} it never "
                "cached")
        diffs = self._collect_diffs(page, message.payload["wanted"])
        records = self._records_for_notices(copy.pending_notices)
        node.copysets.add(page, message.src)
        reply = Message(
            src=node.proc, dst=message.src, kind=MsgKind.PAGE_REPLY,
            reply_to=message.msg_id,
            payload={"page": page,
                     "values": copy.snapshot(),
                     "applied": dict(copy.applied),
                     "records": records,
                     "diffs": diffs,
                     "copyset": node.copysets.mask(page)},
            data_bytes=node.config.page_size + sum(
                self.diff_bytes(d) for _iid, d in diffs))
        node.handler_send(reply)

    def _serve_diff_request(self, message: Message) -> None:
        node = self.node
        page = message.payload["page"]
        diffs = self._collect_diffs(page, message.payload["wanted"])
        node.copysets.add(page, message.src)
        node.handler_send(Message(
            src=node.proc, dst=message.src, kind=MsgKind.DIFF_REPLY,
            reply_to=message.msg_id,
            payload={"page": page, "diffs": diffs,
                     "records": [node.interval_log.get(iid)
                                 for iid, _d in diffs]},
            data_bytes=sum(self.diff_bytes(d) for _iid, d in diffs)))

    def _collect_diffs(self, page: int,
                       wanted: Sequence[Tuple[int, int]]
                       ) -> List[Tuple[IntervalId, Diff]]:
        """Best effort: diffs we do not hold are simply omitted and the
        requester escalates to their writers (second miss round)."""
        found = []
        for proc, index in wanted:
            diff = self._try_get_diff(proc, index, page)
            if diff is not None:
                found.append(((proc, index), diff))
        return found

    def _records_for_notices(self, notices: Sequence[WriteNotice]
                             ) -> List[IntervalRecord]:
        records = []
        for notice in notices:
            record = self.node.interval_log.get(notice.interval_id)
            if record is not None:
                records.append(record)
        return records

    # ------------------------------------------------------------------
    # update pushes (LH/LU barriers; EU reuses the flush path instead)
    # ------------------------------------------------------------------

    def push_updates(self, wait_acks: bool) -> Generator:
        """Send our unpropagated diffs to every believed cacher of the
        pages we modified: one UPDATE_PUSH per destination ('u' in
        Table 1), optionally acknowledged ('2u')."""
        node = self.node
        bundles: Dict[int, List[Tuple[IntervalRecord,
                                      List[Diff]]]] = {}
        for (proc, index), pages in self.unpropagated.items():
            record = node.interval_log.get((proc, index))
            for dest in range(node.config.nprocs):
                if dest == node.proc:
                    continue
                if node.peer_clock(dest)[node.proc] >= index:
                    continue  # destination already has this interval
                diffs = [node.diff_store.get(proc, index, page)
                         for page in sorted(pages)
                         if node.copysets.believes_cached(page, dest)]
                diffs = [d for d in diffs if d is not None]
                if diffs:
                    bundles.setdefault(dest, []).append((record, diffs))
        self.unpropagated = {}
        if not bundles:
            return
        reply_events = []
        for dest, bundle in sorted(bundles.items()):
            data = sum(self.diff_bytes(d)
                       for _r, ds in bundle for d in ds)
            message = Message(
                src=node.proc, dst=dest, kind=MsgKind.UPDATE_PUSH,
                payload={"bundle": bundle, "ack": wait_acks},
                data_bytes=data)
            if wait_acks:
                reply_events.append(node.expect_reply(message))
            yield from node.app_send(message)
        if reply_events:
            replies = yield node.sim.all_of(reply_events)
            for reply in replies:
                for page in reply.payload.get("not_cached", ()):
                    node.copysets.remove(page, reply.src)

    def _handle_update_push(self, message: Message) -> None:
        """Receive pushed diffs: log records, store diffs, and apply
        them wherever the copy stays fully covered."""
        node = self.node
        not_cached: List[int] = []
        for record, diffs in message.payload["bundle"]:
            self.incorporate_records([record])
            for diff in diffs:
                node.diff_store.put(record.proc, record.index, diff)
                node.ins.diffs_applied.value += 1
                if not node.pagetable.has_copy(diff.page):
                    not_cached.append(diff.page)
        touched = {diff.page
                   for _record, diffs in message.payload["bundle"]
                   for diff in diffs}
        for page in touched:
            copy = node.pagetable.copies.get(page)
            if copy is not None and not copy.dirty:
                self.apply_pending(copy)
        if message.payload["ack"]:
            node.handler_send(Message(
                src=node.proc, dst=message.src, kind=MsgKind.UPDATE_ACK,
                reply_to=message.msg_id,
                payload={"not_cached": sorted(set(not_cached))}))

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

        Phase P (prune): drop interval records, stored diffs, and
        orphan notices dominated by the vector time validated at the
        *previous* GC barrier — by then every node has validated its
        copies past that point, so nothing that old can be requested
        again.

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
            for page in list(self.orphan_notices):
                kept = {iid: n
                        for iid, n in self.orphan_notices[page].items()
                        if not vc.dominates(n.vc)}
                if kept:
                    self.orphan_notices[page] = kept
                else:
                    del self.orphan_notices[page]
            dropped_set = set(dropped)
            for page in list(self.own_page_intervals):
                kept_idx = [i for i in self.own_page_intervals[page]
                            if (node.proc, i) not in dropped_set]
                if kept_idx:
                    self.own_page_intervals[page] = kept_idx
                else:
                    del self.own_page_intervals[page]
        yield from self.validate_all()
        self._gc_prunable_vc = self.last_barrier_vc

    def validate_all(self) -> Generator:
        """Bring every cached page fully up to date (subclasses that
        can hold pending notices override)."""
        return
        yield  # pragma: no cover - makes this a generator

    # ------------------------------------------------------------------
    # policy points (overridden by subclasses)
    # ------------------------------------------------------------------

    def ensure_valid(self, page: int, for_write: bool) -> Generator:
        raise NotImplementedError

    def record_write(self, page: int, start: int, end: int) -> None:
        copy = self.node.pagetable.copies.get(page)
        if copy is None or not copy.valid:
            raise ProtocolError(
                f"write to invalid page {page} on node "
                f"{self.node.proc}: ensure_valid must run first")
        copy.record_write(start, end)
        self._dirty_pages.add(page)

    def on_release(self) -> Generator:
        raise NotImplementedError

    def grant_payload(self, requester: int,
                      requester_vc: VectorClock,
                      lock_id: Optional[int] = None
                      ) -> Tuple[Optional[ConsistencyInfo], int]:
        raise NotImplementedError

    def apply_grant(self,
                    info: Optional[ConsistencyInfo]) -> Generator:
        raise NotImplementedError

    def pre_barrier(self) -> Generator:
        raise NotImplementedError

    def barrier_arrive_payload(self) -> dict:
        return {"records":
                self.node.interval_log.records_after(self.last_barrier_vc),
                "vc": self.node.vc}

    def master_combine(self, arrivals: Dict[int, dict]) -> Dict[int, dict]:
        """Default master: union every arrival's records and hand the
        union (plus the merged clock) to everyone."""
        merged_vc = self.node.vc
        seen: Dict[IntervalId, IntervalRecord] = {}
        for payload in arrivals.values():
            merged_vc = merged_vc.merged(payload["vc"])
            for record in payload["records"]:
                seen.setdefault(record.interval_id, record)
        records = sorted(seen.values(),
                         key=lambda r: (r.vc.total(), r.proc, r.index))
        depart = {"records": records, "vc": merged_vc}
        return {proc: depart for proc in arrivals}

    def apply_depart(self, payload: dict) -> Generator:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def handle(self, message: Message) -> None:
        kind = message.kind
        if kind == MsgKind.PAGE_REQ:
            self._serve_page_request(message)
        elif kind == MsgKind.DIFF_REQ:
            self._serve_diff_request(message)
        elif kind == MsgKind.UPDATE_PUSH:
            self._handle_update_push(message)
        else:
            raise ProtocolError(
                f"{self.name} cannot handle {message}")
