"""Eager protocols: eager invalidate (EI) and eager update (EU).

Both are Munin-style multiple-writer protocols: a processor delays
propagating its modifications until it reaches a release, then *pushes*
consistency information to every other believed cacher of the modified
pages, taking multiple rounds if its (approximate) copysets turn out to
be stale.  The release does not complete until every recipient has
acknowledged.

**EU** pushes the diffs themselves; recipients apply them in place and
every copy stays valid.

**EI** pushes write notices (invalidations).  Concurrent modifications
of a falsely-shared page must still be *merged* somewhere; we use the
page's statically-assigned owner as the merge point (its *home*): at a
release the flusher also sends its diffs to each modified page's home,
which applies them into the never-invalidated home copy, and every
access miss fetches the full merged page from the home (whole-page
transfers are why EI moves the most data in the paper's Figures 9, 15
and 18).  This home-based merge replaces the paper's barrier-time
"winner" election with a winner fixed a priori — the home — which keeps
exactly one merged valid copy per page under arbitrary false sharing
and race interleavings; the message accounting is equivalent (one diff
message per excess modifier, 'v' in Table 1).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, Generator, List, Set, Tuple

from repro.mem.intervals import IntervalRecord
from repro.net.message import Message, MsgKind
from repro.protocols.base import BaseProtocol, ProtocolError


class EagerBase(BaseProtocol):
    """Shared eager machinery: owner-served misses with race poisoning,
    and the acknowledged, multi-round release flush."""

    flush_with_diffs = False  # EU overrides

    def __init__(self, node) -> None:
        super().__init__(node)
        # Pages we are currently fetching.  A flush that arrives for
        # such a page must neither drop us from the flusher's copyset
        # nor be lost: it is parked here and reconciled against the
        # fetched copy (applied if it is a diff, or — for a bare
        # invalidation — the fetch retries until the home reflects it).
        self._miss_in_flight: Set[int] = set()
        self._poison_records: Dict[int, List[Tuple[IntervalRecord,
                                                   object]]] = {}

    # -- access misses ----------------------------------------------------

    def resolve_miss(self, page: int, for_write: bool) -> Generator:
        """Fetch the merged page from its home, laying our unflushed
        writes and any flush that raced the fetch back over it."""
        node = self.node
        owner = node.page_owner(page)
        if owner == node.proc:
            raise ProtocolError(
                f"home {node.proc} of page {page} has an invalid copy")
        while True:
            self._miss_in_flight.add(page)
            reply = yield from node.request_from_app(Message(
                src=node.proc, dst=owner, kind=MsgKind.PAGE_REQ,
                payload={"page": page, "requester": node.proc}))
            self._miss_in_flight.discard(page)
            fresh = node.pagetable.install(page,
                                           values=reply.payload["values"],
                                           valid=True)
            fresh.applied = dict(reply.payload["applied"])
            fresh.pending_notices = []
            node.ins.page_transfers.value += 1
            node.copysets.merge(page, reply.payload["copyset"])
            node.copysets.add(page, node.proc)
            # Our own not-yet-flushed modifications are not at the home
            # yet: lay them back over the fetched copy.
            self._reapply_unpropagated(page, fresh)
            # Reconcile flushes that raced the fetch.
            raced = self._poison_records.pop(page, [])
            unmet = []
            for record, diff in raced:
                if fresh.is_applied(record.proc, record.index):
                    continue
                if diff is not None:
                    diff.apply(fresh)
                    fresh.mark_applied(record.proc, record.index)
                else:
                    unmet.append((record, diff))
            if not unmet:
                return
            # An invalidation we saw is not yet reflected at the home:
            # the reply overtook the flusher's home update.  Retry.
            fresh.valid = False
            self._poison_records.setdefault(page, []).extend(unmet)

    def _reapply_unpropagated(self, page: int, copy) -> None:
        node = self.node
        # Seal order: ascending interval index.
        for (_proc, index), pages in self.unpropagated.items():
            if page in pages:
                diff = node.diff_store.get(node.proc, index, page)
                if diff is None:
                    raise ProtocolError(
                        f"node {node.proc} lost its own diff "
                        f"({node.proc},{index}) of page {page}")
                diff.apply(copy)
                copy.mark_applied(node.proc, index)

    def _serve_eager_page_request(self, message: Message) -> None:
        """Home side of a miss: the home copy is always valid."""
        node = self.node
        page = message.payload["page"]
        requester = message.payload["requester"]
        copy = node.pagetable.copies.get(page)
        if copy is None or not copy.valid:
            raise ProtocolError(
                f"home {node.proc} cannot serve page {page}: copy "
                f"{'missing' if copy is None else 'invalid'}")
        node.copysets.add(page, requester)
        node.handler_send(Message(
            src=node.proc, dst=requester, kind=MsgKind.PAGE_REPLY,
            reply_to=message.msg_id,
            payload={"page": page, "values": copy.snapshot(),
                     "applied": dict(copy.applied),
                     "copyset": node.copysets.mask(page)},
            data_bytes=node.config.page_size))

    # -- the release flush ---------------------------------------------------

    def on_release(self) -> Generator:
        yield from self.seal_from_app()
        yield from self.flush()

    def flush(self) -> Generator:
        """Propagate our sealed-but-unpropagated modifications.

        EU: diffs to every believed cacher, with acks, looping while
        acks reveal cachers we missed.

        EI: diffs to each modified page's home (merged into the home
        copy) plus invalidation notices to the other cachers, same ack
        and round structure.
        """
        if not self.unpropagated:
            return
        node = self.node
        pending: List[Tuple[IntervalRecord, List[int]]] = [
            (node.interval_log.get(iid), sorted(iid_pages))
            for iid, iid_pages in self.unpropagated.items()]
        # Each modified page's home as a bit (0 where we are the home):
        # the home is always a destination, believed cacher or not.
        home_bit: Dict[int, int] = {}
        for _record, record_pages in pending:
            for page in record_pages:
                if page not in home_bit:
                    home = node.page_owner(page)
                    home_bit[page] = 0 if home == node.proc else 1 << home
        # Coverage is per (target, page), kept as one target mask per
        # page: an ack can reveal that a target we already flushed
        # other pages to also caches this page, in which case the next
        # round must still reach it.
        sent: Dict[int, int] = dict.fromkeys(home_bit, 0)
        mask_of = node.copysets.mask
        recheck = node.multithreaded
        as_pages = self.price_diffs_as_pages  # diff_bytes, inlined below
        page_size = node.config.page_size
        while True:
            plan = self._flush_entries(pending, home_bit, sent)
            reply_events = []
            for bit in sorted(plan):
                entries = plan[bit]
                if recheck:
                    # Membership re-check, multithreaded only: another
                    # thread's ack can clear a bit while this round's
                    # earlier sends were paying their overhead.
                    entries = [entry for entry in entries
                               if mask_of(entry[1]) & bit
                               or home_bit[entry[1]] == bit]
                    if not entries:
                        continue
                data = 0
                for _record, _page, diff in entries:
                    if diff is not None:
                        data += page_size if as_pages else diff.size_bytes
                message = Message(
                    src=node.proc, dst=bit.bit_length() - 1,
                    kind=MsgKind.FLUSH,
                    payload={"entries": entries,
                             "update": self.flush_with_diffs},
                    data_bytes=data)
                reply_events.append(node.expect_reply(message))
                yield from node.app_send(message)
            if not reply_events:
                break
            replies = yield node.sim.all_of(reply_events)
            for reply in replies:
                self._absorb_flush_ack(reply)
        # Every page of each flushed interval has reached its cachers.
        for record, _record_pages in pending:
            self.unpropagated.pop(record.interval_id, None)

    def _flush_entries(self, pending, home_bit: Dict[int, int],
                       sent: Dict[int, int]
                       ) -> Dict[int, List[Tuple[IntervalRecord, int,
                                                 object]]]:
        """One flush round's plan: target bit -> (record, page,
        diff-or-None) entries for every (target, page) pair not yet in
        ``sent`` (which is updated), record-major and page-ascending.

        EU sends a diff for every page the target is believed to cache.
        EI sends the diff when the target is the page's home (merge)
        and a bare notice (invalidation) when it is any other cacher.
        """
        node = self.node
        others_mask = node.copysets.others_mask
        uncovered: Dict[int, int] = {}
        for page, home in home_bit.items():
            todo = (others_mask(page) | home) & ~sent[page]
            if todo:
                uncovered[page] = todo
                sent[page] |= todo
        plan: Dict[int, list] = {}
        if not uncovered:
            return plan
        update = self.flush_with_diffs
        get_diff = node.diff_store.get
        for record, record_pages in pending:
            for page in record_pages:
                todo = uncovered.get(page)
                if todo is None:
                    continue
                home = home_bit[page]
                notice = pushed = (record, page, None)
                if update or todo & home:
                    pushed = (record, page,
                              get_diff(record.proc, record.index, page))
                while todo:
                    low = todo & -todo
                    todo ^= low
                    plan.setdefault(low, []).append(
                        pushed if update or low == home else notice)
        return plan

    def _absorb_flush_ack(self, reply: Message) -> None:
        copysets = self.node.copysets
        masks = copysets._masks
        payload = reply.payload
        for page, mask in payload["copysets"].items():
            masks[page] = masks.get(page, 0) | mask
        for page in payload["not_cached"]:
            copysets.remove(page, reply.src)

    def _handle_flush(self, message: Message) -> None:
        node = self.node
        entries = message.payload["entries"]
        src = message.src
        masks = node.copysets._masks
        masks_get = masks.get
        copies = node.pagetable.copies
        known = node.interval_log._records
        by_proc = node.interval_log._by_proc
        me = node.proc
        peer_seen = node.peer_seen
        emit = node.tracer.emit if node.tracer.sink.enabled else None
        # Our copyset of each flushed page as it stood before the
        # flusher was added, returned so a stale flusher learns of
        # cachers it missed.
        ack_masks: Dict[int, int] = {}
        # Insertion-ordered dedup (a page can recur across records).
        not_cached: Dict[int, None] = {}
        received = applied = 0
        if not self.flush_with_diffs:
            # EI's bare notices invalidate: local concurrent writes
            # are sealed first and reach the home at our next release.
            for _record, page, diff in entries:
                if diff is None:
                    copy = copies.get(page)
                    if copy is not None and copy.dirty:
                        self.seal_in_handler()
                        break
        for record, page, diff in entries:
            copy = copies.get(page)
            interval_id = record.interval_id
            proc, index = interval_id
            if (diff is not None and interval_id not in known
                    and len(record.pages) == 1 and copy is not None
                    and copy.valid and page not in self._miss_in_flight
                    and interval_id not in copy._pending_ids):
                # A new one-page record with its diff, in one step:
                # logged, masked, applied and stored (no notice filed).
                if emit:
                    emit("protocol.notices_in", node=node.proc,
                         records=1, pages=1)
                known[interval_id] = record
                indices, logged = (by_proc.get(proc)
                                   or by_proc.setdefault(proc, ([], [])))
                if not indices or index > indices[-1]:
                    indices.append(index)
                    logged.append(record)
                else:
                    position = bisect_left(indices, index)
                    indices.insert(position, index)
                    logged.insert(position, record)
                seen = record.vc.components[me]
                if seen > peer_seen[proc]:
                    peer_seen[proc] = seen
                mask = masks_get(page, 0)
                if copy.applied.get(proc, 0) < index:
                    mask |= 1 << proc
                    copy.applied[proc] = index
                ack_masks[page] = mask
                masks[page] = mask | 1 << src
                diff.apply(copy)
                node.diff_store._diffs.setdefault((proc, index, page), diff)
                received += 1
                applied += 1
                continue
            self.incorporate_records([record])
            mask = ack_masks[page] = masks_get(page, 0)
            masks[page] = mask | 1 << src
            if page in self._miss_in_flight:
                # Reconciled after the racing fetch installs.
                self._poison_records.setdefault(page, []).append(
                    (record, diff))
                continue
            if diff is not None:
                if copy is None or not copy.valid:
                    raise ProtocolError(
                        f"node {node.proc}: flush diff for page {page} "
                        "arrived at a "
                        f"{'missing' if copy is None else 'stale'} copy")
                # EU update, or EI home merge: apply in place, which
                # covers any notice incorporate_records filed for it.
                diff.apply(copy)
                if copy.applied.get(proc, 0) < index:
                    copy.applied[proc] = index
                if interval_id in copy._pending_ids:
                    copy.discard_notice(interval_id)
                node.diff_store._diffs.setdefault((proc, index, page), diff)
                applied += 1
            else:
                # EI invalidation notice.
                if copy is None:
                    not_cached[page] = None
                elif copy.valid:
                    self.invalidate_page(page)
        node.ins.notices_received.value += received
        node.ins.diffs_applied.value += applied
        node.handler_send(Message(
            src=node.proc, dst=src, kind=MsgKind.FLUSH_ACK,
            reply_to=message.msg_id,
            payload={"copysets": ack_masks,
                     "not_cached": list(not_cached)}))

    # -- barriers: an arrival is a release ------------------------------------

    def pre_barrier(self) -> Generator:
        # Consistency information also reaches everyone through the
        # master, but the flush (EU's updates; EI's home merges and the
        # matching invalidations) must be complete before we arrive so
        # departures read a consistent home.
        yield from self.on_release()

    def apply_depart(self, payload: dict) -> Generator:
        node = self.node
        self.incorporate_records(payload["records"])
        node.vc = node.vc.merged(payload["vc"])
        self.last_barrier_vc = payload["vc"]
        return
        yield  # pragma: no cover - makes this a generator

    # -- message dispatch -----------------------------------------------------

    def handlers(self) -> Dict[MsgKind, Callable[[Message], None]]:
        return {MsgKind.PAGE_REQ: self._serve_eager_page_request,
                MsgKind.FLUSH: self._handle_flush}


class EagerInvalidate(EagerBase):
    """EI: invalidations at release, home-merged concurrent writes,
    whole-page misses (Table 1 row 'EI')."""

    name = "ei"
    flush_with_diffs = False

    def apply_depart(self, payload: dict) -> Generator:
        yield from super().apply_depart(payload)
        node = self.node
        modifiers: Dict[int, Set[int]] = {}
        for record in payload["records"]:
            for page in record.pages:
                modifiers.setdefault(page, set()).add(record.proc)
        for page, procs in sorted(modifiers.items()):
            if node.page_owner(page) == node.proc:
                continue  # the home copy holds the merge: keep it
            others = procs - {node.proc}
            copy = node.pagetable.copies.get(page)
            if others and copy is not None and copy.valid \
                    and not copy.dirty:
                self.invalidate_page(page)


class EagerUpdate(EagerBase):
    """EU: diffs pushed to every cacher at each release and barrier
    arrival (Table 1 row 'EU')."""

    name = "eu"
    flush_with_diffs = True
