"""Lazy protocols: lazy invalidate (LI), lazy update (LU), and the
paper's new lazy hybrid (LH).

All three *pull* consistency information at acquires: the releaser
piggybacks, on the lock grant (or the barrier master distributes, on
departures), write notices for every interval the acquirer has not yet
seen under happened-before-1.  They differ in what happens to the pages
those notices name:

- **LI** invalidates them; the diffs are fetched on the next access
  miss (from the concurrent last modifiers, 2m messages).
- **LU** never invalidates: the acquire blocks until every named diff
  has been obtained (3 + 2h lock messages).
- **LH** applies the diffs the releaser piggybacked (pages the releaser
  believed the acquirer caches) and invalidates only the rest — a
  single message pair per lock transfer, like LI, with most of LU's
  access-miss savings.

At barriers, LH and LU push their new diffs directly to the believed
cachers before arriving (u and 2u extra messages, Table 1); LI relies
on invalidation alone.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Set, Tuple

from repro.mem.intervals import WriteNotice
from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.protocols.base import (BaseProtocol, ConsistencyInfo,
                                  ProtocolError)


class LazyBase(BaseProtocol):
    """Shared lazy machinery: pull-based misses and grant handling."""

    is_lazy = True
    piggyback_diffs = False   # LH/LU attach diffs to grants
    push_at_barrier = False   # LH/LU push updates before arriving
    push_needs_acks = False   # LU (and EU) wait for push acks

    # -- access misses -------------------------------------------------------

    def ensure_valid(self, page: int, for_write: bool) -> Generator:
        node = self.node
        copy = node.pagetable.copies.get(page)
        if copy is not None and copy.valid:
            return
        started = node.sim.now
        if for_write:
            node.ins.write_misses.value += 1
        else:
            node.ins.read_misses.value += 1
        if copy is None:
            node.ins.cold_misses.value += 1
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.page_fault", page=page,
                             node=node.proc, write=for_write,
                             cold=copy is None)
        yield from self.lazy_miss(page)
        waited = node.sim.now - started
        node.ins.miss_wait.observe(waited)
        if node.tracer.sink.enabled:
            node.tracer.emit("protocol.fault_done", page=page,
                             node=node.proc, waited=waited)

    def fetch_pending(self, page: int) -> Generator:
        """Obtain and apply every pending diff for ``page`` (LU's
        acquire-time pull); works whether the copy is valid or not."""
        node = self.node
        escalated = set()
        writer_requested = set()
        while True:
            copy = node.pagetable.copies.get(page)
            if copy is None or not self.due_notices(copy):
                return
            if self.apply_pending(copy):
                return
            pending = self.due_notices(copy)
            wanted = [n for n in pending
                      if n.proc != node.proc
                      and not node.diff_store.has(n.proc, n.index,
                                                  page)]
            self._check_escalation(page, wanted, writer_requested)
            modifiers = [m for m in
                         self.concurrent_last_modifiers(pending)
                         if m != node.proc]
            assignment = self._assign_wanted(wanted, modifiers,
                                             escalated,
                                             all_notices=pending)
            escalated.update(n.interval_id for n in wanted)
            self._note_writer_requests(assignment, writer_requested)
            reply_events = []
            for modifier, their in sorted(assignment.items()):
                message = Message(
                    src=node.proc, dst=modifier, kind=MsgKind.DIFF_REQ,
                    payload={"page": page,
                             "wanted": self._wanted_ids(their)})
                reply_events.append(node.expect_reply(message))
                yield from node.app_send(message)
            if not reply_events:
                raise ProtocolError(
                    f"node {node.proc}: pending notices on page {page} "
                    "with nobody to fetch from")
            replies = yield node.sim.all_of(reply_events)
            for reply in replies:
                self._integrate_miss_reply(page, reply)

    # -- release / acquire ----------------------------------------------------

    def on_release(self) -> Generator:
        yield from self.seal_from_app()

    #: LH/LU piggyback heuristic (ablation): "copyset" sends diffs only
    #: for pages the requester is believed to cache (the paper's rule);
    #: "always" sends every available diff; "never" degenerates toward
    #: LI's notice-only grants.
    piggyback_policy = "copyset"
    TUNABLES = BaseProtocol.TUNABLES + ("piggyback_policy",)

    def grant_payload(self, requester: int,
                      requester_vc: VectorClock,
                      lock_id=None
                      ) -> Tuple[ConsistencyInfo, int]:
        node = self.node
        records = node.interval_log.records_after(requester_vc)
        diffs = []
        if (self.piggyback_diffs and records
                and self.piggyback_policy != "never"):
            # Batched piggyback assembly: one pass over the records'
            # cached page-ascending notices (no per-grant sort), with
            # the requester's copyset membership resolved once per
            # page — hot pages recur across the granted intervals.
            copyset_rule = self.piggyback_policy == "copyset"
            believes = node.copysets.believes_cached
            get_diff = node.diff_store.get
            cached_ok: Dict[int, bool] = {}
            for record in records:
                proc = record.proc
                index = record.index
                interval_id = record.interval_id
                for notice in record.notices():
                    page = notice.page
                    if copyset_rule:
                        ok = cached_ok.get(page)
                        if ok is None:
                            ok = cached_ok[page] = believes(page,
                                                            requester)
                        if not ok:
                            continue
                    diff = get_diff(proc, index, page)
                    if diff is not None:
                        diffs.append((interval_id, diff))
        info = ConsistencyInfo(sender_vc=node.vc, records=records,
                               diffs=diffs)
        node.advance_peer_clock(requester, node.vc)
        return info, sum(self.diff_bytes(d) for _iid, d in info.diffs)

    def apply_grant(self, info: Optional[ConsistencyInfo]) -> Generator:
        if info is None:
            raise ProtocolError(f"{self.name} grant without payload")
        node = self.node
        self.incorporate_records(info.records)
        self.store_diffs(info.diffs)
        node.vc = node.vc.merged(info.sender_vc)
        affected = sorted({page
                           for record in info.records
                           for page in record.pages})
        yield from self.resolve_pages(affected)

    # -- barriers ----------------------------------------------------------------

    def pre_barrier(self) -> Generator:
        yield from self.seal_from_app()
        if self.push_at_barrier:
            yield from self.push_updates(wait_acks=self.push_needs_acks)

    def apply_depart(self, payload: dict) -> Generator:
        node = self.node
        self.incorporate_records(payload["records"])
        node.vc = node.vc.merged(payload["vc"])
        self.last_barrier_vc = payload["vc"]
        # The master's departure carried all our notices to everyone.
        self.unpropagated = {}
        affected = sorted({page
                           for record in payload["records"]
                           for page in record.pages})
        yield from self.resolve_pages(affected)

    def validate_all(self) -> Generator:
        """GC support: fetch and apply every outstanding due notice so
        the whole page table is current with the latest barrier."""
        node = self.node
        for page in node.pagetable.pages():
            copy = node.pagetable.copies.get(page)
            if copy is None:
                continue
            if self.due_notices(copy):
                yield from self.fetch_pending(page)
            if not copy.valid and not copy.pending_notices:
                copy.valid = True

    def collect_garbage(self) -> Generator:
        """Base prune plus lazy-specific memo release.

        The due/stray partition memos (``PageCopy.due_cache``) and the
        cached per-record notice lists hold references into the
        pruned history; dropping the memos here lets the collected
        records, notices, and their cached RDIF blobs actually be
        freed.  Pure cache invalidation — the partitions are
        recomputed on demand with identical results."""
        yield from super().collect_garbage()
        for copy in self.node.pagetable.copies.values():
            copy.due_cache = None

    # -- the policy point: what to do with noticed pages ---------------------------

    def resolve_pages(self, pages: List[int]) -> Generator:
        raise NotImplementedError

    def _seal_if_any_dirty(self, pages: List[int]) -> Generator:
        node = self.node
        for page in pages:
            copy = node.pagetable.copies.get(page)
            if copy is not None and copy.dirty:
                yield from self.seal_from_app()
                return


class LazyInvalidate(LazyBase):
    """LI: invalidate on notice; fetch diffs at the next miss."""

    name = "li"
    piggyback_diffs = False
    push_at_barrier = False

    def resolve_pages(self, pages: List[int]) -> Generator:
        node = self.node
        yield from self._seal_if_any_dirty(pages)
        for page in pages:
            copy = node.pagetable.copies.get(page)
            if copy is not None and self.due_notices(copy):
                self.invalidate_page(page)


class LazyUpdate(LazyBase):
    """LU: never invalidate; pull every noticed diff at the acquire."""

    name = "lu"
    piggyback_diffs = True
    push_at_barrier = True
    push_needs_acks = True

    def resolve_pages(self, pages: List[int]) -> Generator:
        node = self.node
        for page in pages:
            copy = node.pagetable.copies.get(page)
            if copy is not None and self.due_notices(copy):
                yield from self.fetch_pending(page)


class LazyHybrid(LazyBase):
    """LH: apply piggybacked diffs, invalidate uncovered pages."""

    name = "lh"
    piggyback_diffs = True
    push_at_barrier = True
    push_needs_acks = False

    def resolve_pages(self, pages: List[int]) -> Generator:
        node = self.node
        yield from self._seal_if_any_dirty(pages)
        for page in pages:
            copy = node.pagetable.copies.get(page)
            if copy is None or not self.due_notices(copy):
                continue
            if not copy.dirty and self.apply_pending(copy):
                continue
            if copy.dirty:
                # Racy corner: a write landed between the dirtiness
                # check and here; seal again and retry once.
                yield from self.seal_from_app()
                if self.apply_pending(copy):
                    continue
            self.invalidate_page(page)
