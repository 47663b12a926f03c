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

from bisect import bisect_left
from typing import (Callable, Dict, Generator, List, Optional, Sequence,
                    Set, Tuple)

from repro.mem.diffs import Diff
from repro.mem.intervals import (BY_ORDER, IntervalId, IntervalRecord,
                                 WriteNotice)
from repro.mem.pages import PageCopy
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

    # -- applying pending modifications ---------------------------------------

    def due_notices(self, copy: PageCopy) -> List["WriteNotice"]:
        """Pending notices inside this node's causal cone (vector time
        dominated by the node's clock), in pending-list order.

        The node's knowledge of intervals is complete below its own
        vector time (grants and departures ship every record above the
        requester's clock), so for a *due* notice every
        happened-before-1 predecessor that modified the page is known —
        applying due notices in vector-time order can never be rolled
        back.  Notices *outside* the cone (delivered by opportunistic
        update pushes) must wait for the acquire that brings them in:
        applying them early could order them before an unknown
        predecessor.

        One component decides: every clock a node holds is a
        processor's clock or a componentwise max of such, so it
        dominates the vector time of interval ``(q, i)`` exactly when
        its ``q`` component is at least ``i`` (docs/protocols.md)."""
        mine = self.node.vc.components
        return [n for n in copy._pending_notices if mine[n.proc] >= n.index]

    def apply_pending(self, copy: PageCopy, due=None) -> bool:
        """Apply every due notice's diff, in a happened-before-1 linear
        extension (ascending vector-time totals).  Returns True and
        revalidates the copy on success (not-yet-due pushed notices may
        remain pending — reading around them is release-consistent);
        returns False (no changes) if some due diff is missing.  A
        caller holding the copy's :meth:`due_notices` passes ``due``."""
        if due is None:
            due = self.due_notices(copy)
        if not due:
            # Nothing in the causal cone: trivially applied (pushed
            # strays may remain pending — reading around them is
            # release-consistent).
            copy.valid = True
            return True
        # One lookup per notice finds each diff; a missing one aborts
        # before anything is applied.
        get = self.node.diff_store.get
        page = copy.page
        notices = sorted(due, key=BY_ORDER) if len(due) > 1 else due
        diffs = []
        for notice in notices:
            diff = get(notice.proc, notice.index, page)
            if diff is None:
                return False
            diffs.append(diff)
        applied = copy.applied
        for notice, diff in zip(notices, diffs):
            diff.apply(copy)
            # PageCopy.mark_applied inlined.
            proc = notice.proc
            if notice.index > applied.get(proc, 0):
                applied[proc] = notice.index
        if len(due) == len(copy._pending_notices):
            # Every pending notice was due (the due list is a subset
            # of the pending list): nothing is left to filter.
            copy._pending_notices = []
            copy._pending_ids.clear()
        else:
            copy.remove_notices({n.interval_id for n in due})
        copy.valid = True
        if self.node.tracer.sink.enabled:
            self.node.tracer.emit("protocol.diff_apply",
                                  page=copy.page, node=self.node.proc,
                                  diffs=len(notices))
        return True

    def store_diffs(self,
                    diffs: Sequence[Tuple[IntervalId, Diff]]) -> None:
        # DiffStore.put inlined: one store lookup, one counter add.
        store = self.node.diff_store._diffs
        for (proc, index), diff in diffs:
            store.setdefault((proc, index, diff.page), diff)
        self.node.ins.diffs_applied.value += len(diffs)

    def logged_notices(self, page: int) -> List[WriteNotice]:
        """Other processors' notices for ``page`` in this node's log,
        in log order: what a node with no copy of the page has been
        told about it.  Page copies are never dropped, so every such
        record arrived while the page had no copy and is still to be
        merged in at the cold miss."""
        me = self.node.proc
        return [record.notice(page)
                for record in self.node.interval_log._records.values()
                if record.proc != me and page in record.pages]

    # -- access misses -------------------------------------------------------

    def resolve_miss(self, page: int, for_write: bool) -> Generator:
        """Resolve an access miss the lazy way: contact each concurrent
        last modifier once (2m messages), fetching the page contents
        from the first when we hold no copy at all.

        A warm pass that has asked for nothing yet, whose due notices
        have distinct writers other than us with no notice's interval
        covered by another's clock, has each writer as its own
        concurrent last modifier: it asks the writer of each missing
        diff directly, in due order, waits in this frame and stores
        the replies' diffs (the general assignment sends exactly
        these requests)."""
        node = self.node
        escalated: Set[Tuple[int, int]] = set()
        writer_requested: Set[Tuple[int, int]] = set()
        while True:
            copy = node.pagetable.copies.get(page)
            if copy is not None and copy.valid:
                return
            # Only notices inside our causal cone are fetched; pushed
            # strays wait for the acquire that makes them due.
            if copy is not None:
                pending = self.due_notices(copy)
                if self.apply_pending(copy, pending):
                    return
                if not escalated and self._writers_concurrent(pending):
                    has = node.diff_store._diffs.__contains__
                    wanted = [notice for notice in pending
                              if not has((notice.proc, notice.index,
                                          page))]
                    # Built before the first is sent: message ids are
                    # drawn in the order the general path draws them.
                    requests = []
                    for notice in wanted:
                        interval_id = notice.interval_id
                        escalated.add(interval_id)
                        writer_requested.add(interval_id)
                        requests.append(Message(
                            src=node.proc, dst=notice.proc,
                            kind=MsgKind.DIFF_REQ,
                            payload={"page": page,
                                     "wanted": [interval_id]}))
                    reply_events = []
                    for message in requests:
                        reply_events.append(node.expect_reply(message))
                        yield from node.app_send(message)
                    replies = yield node.sim.all_of(reply_events)
                    store = node.diff_store._diffs
                    known = node.interval_log._records
                    tracing = node.tracer.sink.enabled
                    stored = 0
                    for reply in replies:
                        payload = reply.payload
                        records = payload["records"]
                        if tracing or any(record.interval_id not in known
                                          for record in records):
                            self.incorporate_records(records)
                        for (proc, index), diff in payload["diffs"]:
                            store.setdefault((proc, index, diff.page),
                                             diff)
                        stored += len(payload["diffs"])
                    node.ins.diffs_applied.value += stored
                    continue
            else:
                mine = node.vc.components
                pending = [n for n in self.logged_notices(page)
                           if mine[n.proc] >= n.index]
            modifiers, assignment = self._assign_requests(
                page, pending, escalated, writer_requested)
            requests = []
            base_source = None
            if copy is None:
                base_source = (modifiers[0] if modifiers
                               else node.page_owner(page))
                if base_source == node.proc:
                    raise ProtocolError(
                        f"node {node.proc} cold-missing page {page} it "
                        "should already hold")
                requests.append(Message(
                    src=node.proc, dst=base_source, kind=MsgKind.PAGE_REQ,
                    payload={"page": page,
                             "wanted": self._wanted_ids(
                                 assignment.get(base_source, ()))}))
            for modifier, their_notices in assignment.items():
                if modifier == base_source:
                    continue
                requests.append(Message(
                    src=node.proc, dst=modifier, kind=MsgKind.DIFF_REQ,
                    payload={"page": page,
                             "wanted": self._wanted_ids(their_notices)}))
            if not requests:
                # Pending notices but every diff already local: the
                # apply at loop top must have succeeded.
                raise ProtocolError(
                    f"node {node.proc} page {page} pending notices "
                    "unsatisfiable without requests")
            yield from self._fetch(page, requests)
            # Loop: new notices may have raced in; normally one pass.

    def _writers_concurrent(self, due: Sequence[WriteNotice]) -> bool:
        """Whether each of the ``due`` notices is its writer's only
        one, the writer is not us, and no other due notice's clock
        covers it: then the concurrent last modifiers are exactly the
        writers, and each wanted diff goes to its writer."""
        me = self.node.proc
        if len(due) == 1:
            return due[0].proc != me
        writers = {notice.proc for notice in due}
        if me in writers or len(writers) < len(due):
            return False
        return not any(other.vc.components[notice.proc] >= notice.index
                       for notice in due for other in due
                       if other is not notice)

    def fetch_pending(self, page: int, due=None) -> Generator:
        """Obtain and apply every pending diff for ``page`` (LU's
        acquire-time pull); works whether the copy is valid or not.  A
        caller holding the copy's :meth:`due_notices` passes ``due``
        for the first pass; later passes filter again."""
        node = self.node
        escalated = set()
        writer_requested = set()
        while True:
            copy = node.pagetable.copies.get(page)
            if due is None and copy is not None:
                due = self.due_notices(copy)
            if not due or self.apply_pending(copy, due):
                return
            _modifiers, assignment = self._assign_requests(
                page, due, escalated, writer_requested)
            if not assignment:
                raise ProtocolError(
                    f"node {node.proc}: pending notices on page {page} "
                    "with nobody to fetch from")
            # Each request is built as it is sent, modifiers ascending.
            yield from self._fetch(page, (
                Message(src=node.proc, dst=modifier, kind=MsgKind.DIFF_REQ,
                        payload={"page": page,
                                 "wanted": self._wanted_ids(their)})
                for modifier, their in sorted(assignment.items())))
            due = None

    def _assign_requests(self, page: int, pending: Sequence[WriteNotice],
                         escalated: Set[Tuple[int, int]],
                         writer_requested: Set[Tuple[int, int]]
                         ) -> Tuple[List[int],
                                    Dict[int, List[WriteNotice]]]:
        """Who to ask for each due diff of ``page`` we lack: returns
        the concurrent last modifiers other than us and the assignment
        of :meth:`_assign_wanted`.  The two sets carry one miss's
        rounds: a diff asked for once goes to its writer next, and a
        diff its writer failed to supply breaks the retention
        invariant."""
        node = self.node
        if len(pending) == 1:
            # One pending notice: its writer is the only concurrent
            # last modifier, so the general assignment reduces to
            # asking the writer, unless it is us or the diff is here.
            notice = pending[0]
            writer = notice.proc
            if writer == node.proc:
                return [], {}
            if node.diff_store.has(writer, notice.index, page):
                return [writer], {}
            interval_id = notice.interval_id
            if interval_id in writer_requested:
                raise ProtocolError(
                    f"node {node.proc}: writer {writer} "
                    f"failed to supply diff {interval_id} "
                    f"for page {page}")
            escalated.add(interval_id)
            writer_requested.add(interval_id)
            return [writer], {writer: [notice]}
        wanted = [n for n in pending
                  if n.proc != node.proc
                  and not node.diff_store.has(n.proc, n.index, page)]
        for notice in wanted:
            if notice.interval_id in writer_requested:
                raise ProtocolError(
                    f"node {node.proc}: writer {notice.proc} "
                    f"failed to supply diff {notice.interval_id} "
                    f"for page {page}")
        modifiers = [m for m in self.concurrent_last_modifiers(pending)
                     if m != node.proc]
        assignment = self._assign_wanted(wanted, modifiers, escalated,
                                         pending)
        escalated.update(n.interval_id for n in wanted)
        for target, notices in assignment.items():
            writer_requested.update(n.interval_id for n in notices
                                    if n.proc == target)
        return modifiers, assignment

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
        # A later modification covers this one when its clock has seen
        # the interval (distinct writers never share a clock).
        modifiers = []
        for proc, notice in latest.items():
            index = notice.index
            dominated = any(
                other.vc.components[proc] >= index
                for other_proc, other in latest.items()
                if other_proc != proc)
            if not dominated:
                modifiers.append(proc)
        return sorted(modifiers)

    def _assign_wanted(self, notices: Sequence[WriteNotice],
                       modifiers: Sequence[int],
                       escalated: Set[Tuple[int, int]],
                       all_notices: Sequence[WriteNotice]
                       ) -> Dict[int, List[WriteNotice]]:
        """Group the wanted notices by the concurrent last modifier
        whose last modification dominates each (it *usually* retains
        the diffs that precede its own write).  Notices in
        ``escalated`` — already requested once and not supplied — go
        straight to their writer, who always retains its own diffs.
        ``all_notices`` supplies the modifiers' latest vector times
        when some are not themselves wanted."""
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
                    if (vc is not None
                            and vc.components[notice.proc] >= notice.index):
                        target = modifier
                        break
            if target is None:
                target = notice.proc  # the writer always has its diff
            assignment.setdefault(target, []).append(notice)
        return assignment

    @staticmethod
    def _wanted_ids(notices) -> List[Tuple[int, int]]:
        return [(n.proc, n.index) for n in notices]

    def _fetch(self, page: int, requests) -> Generator:
        """Send each miss request, wait for every reply, and fold the
        replies in: page contents, records, diffs, copysets."""
        node = self.node
        reply_events = []
        for message in requests:
            reply_events.append(node.expect_reply(message))
            yield from node.app_send(message)
        replies = yield node.sim.all_of(reply_events)
        for reply in replies:
            payload = reply.payload
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
        # Merge the notices logged while we had no copy.
        for notice in self.logged_notices(page):
            copy.add_notice(notice)
        # Our own sealed intervals the source did not cover must be
        # re-applied on top (their diffs are local), ascending.
        me = node.proc
        _indices, own = node.interval_log._by_proc.get(me, ((), ()))
        for record in own:
            if page in record.pages:
                copy.add_notice(record.notice(page))

    # -- serving misses and diff requests ----------------------------------------

    def handlers(self) -> Dict[MsgKind, Callable[[Message], None]]:
        return {MsgKind.PAGE_REQ: self._serve_page_request,
                MsgKind.DIFF_REQ: self._serve_diff_request,
                MsgKind.UPDATE_PUSH: self._handle_update_push}

    def _serve_page_request(self, message: Message) -> None:
        """PAGE_REQ service: page contents + coverage map + our pending
        notices + any requested diffs."""
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
        """DIFF_REQ service: the requested diffs we hold (as
        :meth:`_collect_diffs` finds them), their records and their
        data bytes, built in one pass."""
        node = self.node
        page = message.payload["page"]
        get_diff = node.diff_store._diffs.get
        get_record = node.interval_log._records.get
        as_pages = self.price_diffs_as_pages  # diff_bytes, inlined
        page_size = node.config.page_size
        diffs = []
        records = []
        data_bytes = 0
        for proc, index in message.payload["wanted"]:
            diff = get_diff((proc, index, page))
            if diff is not None:
                interval_id = (proc, index)
                diffs.append((interval_id, diff))
                records.append(get_record(interval_id))
                data_bytes += page_size if as_pages else diff.size_bytes
        # CopysetTable.add inlined.
        masks = node.copysets._masks
        masks[page] = masks.get(page, 0) | (1 << message.src)
        node.handler_send(Message(
            src=node.proc, dst=message.src, kind=MsgKind.DIFF_REPLY,
            reply_to=message.msg_id,
            payload={"page": page, "diffs": diffs, "records": records},
            data_bytes=data_bytes))

    def _collect_diffs(self, page: int,
                       wanted: Sequence[Tuple[int, int]]
                       ) -> List[Tuple[IntervalId, Diff]]:
        """Best effort: diffs we do not hold are simply omitted and the
        requester escalates to their writers (second miss round).
        Diffs are only ever served verbatim as sealed — re-deriving one
        from a live page copy could leak later writes into an older
        interval."""
        get_diff = self.node.diff_store.get
        found = []
        for proc, index in wanted:
            diff = get_diff(proc, index, page)
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

    # -- release / acquire ----------------------------------------------------

    def on_release(self) -> Generator:
        return self.seal_from_app()

    #: LH/LU piggyback heuristic (ablation): "copyset" sends diffs only
    #: for pages the requester is believed to cache (the paper's rule);
    #: "always" sends every available diff; "never" degenerates toward
    #: LI's notice-only grants.  EC's rule, "bound" (the pages bound to
    #: the granted lock), is its class attribute, not a tunable value.
    piggyback_policy = "copyset"
    TUNABLES = {**BaseProtocol.TUNABLES,
                "piggyback_policy": ("copyset", "always", "never")}

    def grant_payload(self, requester: int,
                      requester_vc: VectorClock,
                      lock_id=None
                      ) -> Tuple[ConsistencyInfo, int]:
        node = self.node
        records = node.interval_log.records_after(requester_vc)
        diffs = []
        data_bytes = 0
        policy = self.piggyback_policy
        if self.piggyback_diffs and records and policy != "never":
            # One pass over the records' pages, ascending (no notice
            # objects): the page rule is one bit of the requester's
            # copyset mask (or EC's bound pages), the diff one store
            # lookup, and its bytes are summed as it goes.
            bound = None
            if policy == "bound":
                bound = (node.machine.pages_bound_to(lock_id)
                         if lock_id is not None else frozenset())
            by_copyset = policy == "copyset"
            masks_get = node.copysets._masks.get
            bit = 1 << requester
            get_diff = node.diff_store._diffs.get
            as_pages = self.price_diffs_as_pages  # diff_bytes, inlined
            page_size = node.config.page_size
            for record in records:
                proc = record.proc
                index = record.index
                interval_id = record.interval_id
                pages = record.pages
                if len(pages) > 1:
                    pages = sorted(pages)
                for page in pages:
                    if bound is not None:
                        if page not in bound:
                            continue
                    elif by_copyset and not masks_get(page, 0) & bit:
                        continue
                    diff = get_diff((proc, index, page))
                    if diff is not None:
                        diffs.append((interval_id, diff))
                        data_bytes += (page_size if as_pages
                                       else diff.size_bytes)
        # Node.observe_peer_vc inlined: the requester is granted our
        # intervals up to our own component.
        me = node.proc
        if requester != me:
            seen = node.vc.components[me]
            if seen > node.peer_seen[requester]:
                node.peer_seen[requester] = seen
        return ConsistencyInfo(node.vc, records, diffs), data_bytes

    def apply_grant(self, info: Optional[ConsistencyInfo]) -> Generator:
        if info is None:
            raise ProtocolError(f"{self.name} grant without payload")
        node = self.node
        records = info.records
        if not records:
            # An empty grant (most are: a queue-lock poll that wrote
            # nothing) carries no diffs either, and resolve_pages([])
            # does nothing under every lazy protocol: only the clock
            # moves.
            node.vc = node.vc.merged(info.sender_vc)
            return
        self.incorporate_records(records)
        self.store_diffs(info.diffs)
        node.vc = node.vc.merged(info.sender_vc)
        affected = sorted({page
                           for record in records
                           for page in record.pages})
        yield from self.resolve_pages(affected)

    # -- barriers ----------------------------------------------------------------

    def pre_barrier(self) -> Generator:
        yield from self.seal_from_app()
        if self.push_at_barrier:
            yield from self.push_updates(wait_acks=self.push_needs_acks)

    def push_updates(self, wait_acks: bool) -> Generator:
        """Send our unpropagated diffs to every believed cacher of the
        pages we modified: one UPDATE_PUSH per destination ('u' in
        Table 1), optionally acknowledged ('2u')."""
        if not self.unpropagated:
            return
        node = self.node
        me = node.proc
        # The highest of our intervals each peer is known to have seen:
        # nothing below yields before the bundles are built, so none
        # can change.
        peers = [dest for dest in range(node.config.nprocs)
                 if dest != me]
        seen = node.peer_seen
        believes_cached = node.copysets.believes_cached
        get_diff = node.diff_store.get
        bundles: Dict[int, List[Tuple[IntervalRecord,
                                      List[Diff]]]] = {}
        for (proc, index), pages in self.unpropagated.items():
            record = node.interval_log.get((proc, index))
            page_diffs = [(page, get_diff(proc, index, page))
                          for page in sorted(pages)]
            for dest in peers:
                if seen[dest] >= index:
                    continue  # destination already has this interval
                diffs = [diff for page, diff in page_diffs
                         if diff is not None
                         and believes_cached(page, dest)]
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

    def master_combine(self, arrivals: Dict[int, dict]) -> Dict[int, dict]:
        """The default departure plus one row per record, built here
        once for every departing node: the record, its id, writer,
        index and writer bit, its pages ascending and its clock's
        components (what :meth:`apply_depart` folds)."""
        departures = super().master_combine(arrivals)
        # Every departing node is handed the one departure dict.
        depart = departures[next(iter(departures))]
        depart["rows"] = [
            (record, record.interval_id, record.proc, record.index,
             1 << record.proc, sorted(record.pages), record.vc.components)
            for record in depart["records"]]
        return departures

    def apply_depart(self, payload: dict) -> Generator:
        """Fold the departure's records, merge the clock and resolve
        the pages they name.  The fold is :meth:`incorporate_records`
        over the master's rows (:meth:`master_combine`), in one loop
        that reads no record field: each record is logged (appended,
        or inserted below its writer's last index), and each of its
        pages gains the writer's copyset bit and, when held and not
        yet covered, a pending notice; the writer's clock folds into
        ``peer_seen``."""
        node = self.node
        rows = payload["rows"]
        me = node.proc
        if node.tracer.sink.enabled and rows:
            node.tracer.emit("protocol.notices_in", node=me,
                             records=len(rows),
                             pages=sum(len(row[5]) for row in rows))
        interval_log = node.interval_log
        known = interval_log._records
        by_proc = interval_log._by_proc
        get_copy = node.pagetable.copies.get
        masks = node.copysets._masks
        masks_get = masks.get
        peer_seen = node.peer_seen
        received = 0
        for record, interval_id, proc, index, bit, pages, clock in rows:
            if proc == me or interval_id in known:
                continue
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
            received += len(pages)
            for page in pages:
                copy = get_copy(page)
                if copy is None:
                    masks[page] = masks_get(page, 0) | bit
                elif (copy.applied.get(proc, 0) < index
                      and interval_id not in copy._pending_ids):
                    copy._pending_ids.add(interval_id)
                    copy._pending_notices.append(record.notice(page))
                    masks[page] = masks_get(page, 0) | bit
            if clock[me] > peer_seen[proc]:
                peer_seen[proc] = clock[me]
        node.ins.notices_received.value += received
        node.vc = node.vc.merged(payload["vc"])
        self.last_barrier_vc = payload["vc"]
        # The master's departure carried all our notices to everyone.
        self.unpropagated = {}
        yield from self.resolve_pages(payload["pages"])

    def validate_all(self) -> Generator:
        """GC support: fetch and apply every outstanding due notice so
        the whole page table is current with the latest barrier."""
        node = self.node
        for page in node.pagetable.pages():
            copy = node.pagetable.copies.get(page)
            if copy is None:
                continue
            due = self.due_notices(copy)
            if due:
                yield from self.fetch_pending(page, due)
            if not copy.valid and not copy.pending_notices:
                copy.valid = True

    # -- the policy point: what to do with noticed pages ---------------------------

    def resolve_pages(self, pages: List[int]) -> Generator:
        """Act on the noticed ``pages`` (ascending) this node holds."""
        raise NotImplementedError

    def _held(self, pages: List[int]
              ) -> Generator[PageCopy, None, None]:
        """The copies this node holds of ``pages`` (ascending), in page
        order: a departure names every page written anywhere, a node
        holds a few of them.  Page copies are never dropped, so a page
        table that grew while the caller was suspended between copies
        (a sibling thread's miss installed a page) is the only change
        that matters: the pages still ahead are filtered again, as a
        scan of ``pages`` would find them."""
        copies = self.node.pagetable.copies
        size = len(copies)
        held = [copies[page] for page in pages if page in copies]
        position = 0
        while position < len(held):
            copy = held[position]
            yield copy
            position += 1
            if len(copies) != size:
                size = len(copies)
                page = copy.page
                held[position:] = [copies[later] for later in pages
                                   if later > page and later in copies]

    def _seal_if_any_dirty(self, pages: List[int]) -> Generator:
        for copy in self._held(pages):
            if copy.dirty:
                yield from self.seal_from_app()
                return


class LazyInvalidate(LazyBase):
    """LI: invalidate on notice; fetch diffs at the next miss."""

    name = "li"
    piggyback_diffs = False
    push_at_barrier = False

    def resolve_pages(self, pages: List[int]) -> Generator:
        """Invalidate each valid held copy with a due notice.  The
        held copies are listed once, and again only after a seal (the
        one point that yields, where a sibling thread's miss may
        install a page); a copy is invalidated at its first due
        notice."""
        copies = self.node.pagetable.copies
        held = [copies[page] for page in pages if page in copies]
        if self._dirty_pages and any(copy.dirty for copy in held):
            yield from self.seal_from_app()
            held = [copies[page] for page in pages if page in copies]
        mine = self.node.vc.components
        for copy in held:
            if copy.valid:
                for notice in copy._pending_notices:
                    if mine[notice.proc] >= notice.index:
                        self.invalidate_page(copy.page)
                        break


class LazyUpdate(LazyBase):
    """LU: never invalidate; pull every noticed diff at the acquire."""

    name = "lu"
    piggyback_diffs = True
    push_at_barrier = True
    push_needs_acks = True

    def resolve_pages(self, pages: List[int]) -> Generator:
        for copy in self._held(pages):
            due = self.due_notices(copy)
            if due:
                yield from self.fetch_pending(copy.page, due)


class LazyHybrid(LazyBase):
    """LH: apply piggybacked diffs, invalidate uncovered pages."""

    name = "lh"
    piggyback_diffs = True
    push_at_barrier = True
    push_needs_acks = False

    def apply_grant(self, info: Optional[ConsistencyInfo]):
        """Apply a grant with records in one pass when no copy is dirty
        (no seal can run, nothing yields) and return ``()``; any other
        grant returns :meth:`LazyBase.apply_grant`'s generator.  Either
        way the caller runs the result with ``yield from`` at once.

        The pass leaves exactly what incorporate_records, store_diffs,
        the clock merge and :meth:`resolve_pages` leave.  A fresh
        record for a held copy with nothing pending joins a per-page
        list instead of being filed as a notice; a page whose list is
        all due under the merged clock, with every diff in the store,
        has the diffs applied in list order (records arrive in
        ``BY_ORDER``, as ``records_after`` sorts them), and any other
        page has its list filed and is resolved as
        :meth:`resolve_pages` resolves it."""
        if info is None or not info.records or self._dirty_pages:
            return super().apply_grant(info)
        node = self.node
        records = info.records
        node.vc = vc = node.vc.merged(info.sender_vc)
        mine = vc.components
        me = node.proc
        emit = node.tracer.emit if node.tracer.sink.enabled else None
        if emit:
            emit("protocol.notices_in", node=me, records=len(records),
                 pages=sum(len(r.pages) for r in records))
        # store_diffs inlined.
        store = node.diff_store._diffs
        for (proc, index), diff in info.diffs:
            store.setdefault((proc, index, diff.page), diff)
        node.ins.diffs_applied.value += len(info.diffs)
        # incorporate_records inlined, except that a fresh record for
        # a held copy with nothing pending joins the page's list here
        # instead of being filed as a notice.
        known = node.interval_log._records
        by_proc = node.interval_log._by_proc
        get_copy = node.pagetable.copies.get
        masks = node.copysets._masks
        masks_get = masks.get
        peer_seen = node.peer_seen
        unfiled: Dict[int, List[IntervalRecord]] = {}
        received = 0
        for record in records:
            interval_id = record.interval_id
            proc = record.proc
            if proc == me or interval_id in known:
                continue
            if proc < 0:
                raise ValueError("invalid notice")
            index = record.index
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
            pages = record.pages
            received += len(pages)
            if len(pages) > 1:
                pages = sorted(pages)
            bit = 1 << proc
            for page in pages:
                copy = get_copy(page)
                if copy is None:
                    masks[page] = masks_get(page, 0) | bit
                elif copy.applied.get(proc, 0) < index:
                    listed = unfiled.get(page)
                    if listed is not None:
                        listed.append(record)
                    elif not copy._pending_notices:
                        unfiled[page] = [record]
                    elif interval_id in copy._pending_ids:
                        continue
                    else:
                        copy._pending_ids.add(interval_id)
                        copy._pending_notices.append(record.notice(page))
                    masks[page] = masks_get(page, 0) | bit
            seen = record.vc.components[me]
            if seen > peer_seen[proc]:
                peer_seen[proc] = seen
        node.ins.notices_received.value += received
        # resolve_pages, over every page the grant names (ascending).
        store_get = store.get
        for page in sorted({page for record in records
                            for page in record.pages}):
            copy = get_copy(page)
            if copy is None:
                continue
            listed = unfiled.get(page)
            if listed is not None:
                diffs = []
                for record in listed:
                    proc = record.proc
                    index = record.index
                    if mine[proc] < index:
                        break
                    diff = store_get((proc, index, page))
                    if diff is None:
                        break
                    diffs.append(diff)
                else:
                    # Each listed index is above the copy's coverage of
                    # its writer and a writer's records ascend.
                    applied = copy.applied
                    for record, diff in zip(listed, diffs):
                        diff.apply(copy)
                        applied[record.proc] = record.index
                    copy.valid = True
                    if emit:
                        emit("protocol.diff_apply", page=copy.page,
                             node=me, diffs=len(listed))
                    continue
                # A record not yet due or a diff missing: file the list
                # (the copy's was empty) and resolve the page as below.
                copy._pending_notices = [record.notice(page)
                                         for record in listed]
                copy._pending_ids.update(record.interval_id
                                         for record in listed)
            if copy._pending_notices:
                due = self.due_notices(copy)
                if due and not self.apply_pending(copy, due):
                    self.invalidate_page(page)
        return ()

    def resolve_pages(self, pages: List[int]) -> Generator:
        yield from self._seal_if_any_dirty(pages)
        for copy in self._held(pages):
            due = self.due_notices(copy)
            if not due:
                continue
            if not copy.dirty and self.apply_pending(copy, due):
                continue
            if copy.dirty:
                # Racy corner: a write landed between the dirtiness
                # check and here; seal again and retry once.
                yield from self.seal_from_app()
                if self.apply_pending(copy):
                    continue
            self.invalidate_page(copy.page)
