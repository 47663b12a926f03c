"""Sequentially-consistent single-writer protocol (Ivy-style).

The baseline the release-consistent protocols were invented to beat:
Li & Hudak's manager-based write-invalidate shared virtual memory
(the paper's reference [13]).  One writer at a time per page:

- each page has a static **manager** (its allocation-time owner) that
  tracks the current owning writer and the reader copyset, and
  serializes ownership transactions per page;
- a **read miss** asks the manager, which forwards to the owner, who
  sends the page; the reader joins the copyset in READ state;
- a **write fault** asks the manager for ownership: the manager
  invalidates every reader, collects their acks, has the old owner
  hand the page over, and records the requester as the new owner.

No diffs, no write notices, no multiple writers: two processors
alternately writing different words of the same page ping-pong the
whole 4-KB page between them — the false-sharing catastrophe that
motivates the paper's multiple-writer RC protocols.  Locks and
barriers still synchronize control flow but carry no consistency
payload (they do not need to: every write is globally visible before
the next conflicting access).
"""

from __future__ import annotations

from collections import deque
from typing import (Callable, Deque, Dict, Generator, List, Optional, Set,
                    Tuple)

from repro.net.message import Message, MsgKind
from repro.protocols.base import BaseProtocol, ProtocolError

READ = "read"
WRITE = "write"


class _ManagedPage:
    """Manager-side bookkeeping for one page."""

    __slots__ = ("owner", "copyset", "busy", "pending")

    def __init__(self, owner: int) -> None:
        self.owner = owner
        self.copyset: Set[int] = {owner}
        self.busy = False
        # Queued (requester, for_write) transactions.
        self.pending: Deque[Tuple[int, bool]] = deque()


class SequentialInvalidate(BaseProtocol):
    """'sc': the pre-RC single-writer baseline."""

    name = "sc"
    # A valid copy may be read-only (mode READ): writes must still go
    # through ensure_valid's ownership transaction.
    valid_copy_serves_writes = False

    def __init__(self, node) -> None:
        super().__init__(node)
        # Access mode per locally cached, valid page.
        self.mode: Dict[int, str] = {}
        # Manager state for pages this node manages.
        self.managed: Dict[int, _ManagedPage] = {}
        # In-flight fault completions, keyed by page.
        self._fault_done: Dict[int, object] = {}
        # Pages whose in-flight read grant a later transaction has
        # already invalidated (see _handle_invalidate): the grant
        # installs nothing.
        self._revoked: Set[int] = set()
        # Pages a write grant made ours that no hand-over has taken
        # away, and requests that reached us as owner before that
        # grant did (see _park_early).
        self._owned: Set[int] = set()
        self._early: Dict[int, List[Message]] = {}

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _manager_state(self, page: int) -> _ManagedPage:
        if self.node.page_owner(page) != self.node.proc:
            raise ProtocolError(
                f"node {self.node.proc} is not the manager of page "
                f"{page}")
        state = self.managed.get(page)
        if state is None:
            state = _ManagedPage(owner=self.node.proc)
            self.managed[page] = state
        return state

    def _local_mode(self, page: int) -> Optional[str]:
        copy = self.node.pagetable.copies.get(page)
        if copy is None or not copy.valid:
            return None
        return self.mode.get(page, READ)

    # ------------------------------------------------------------------
    # the application-facing policy points
    # ------------------------------------------------------------------

    def is_hit(self, page: int, copy, for_write: bool) -> bool:
        # A valid copy is readable; writing it needs ownership.
        return (copy is not None and copy.valid
                and (not for_write or self.mode.get(page, READ) == WRITE))

    def resolve_miss(self, page: int, for_write: bool) -> Generator:
        node = self.node
        while True:
            manager = node.page_owner(page)
            if manager == node.proc:
                # We manage this page: run the transaction in place.
                yield from self._local_transaction(page, for_write)
            else:
                done = node.sim.event(f"sc-fault-{page}")
                self._fault_done[page] = done
                yield from node.app_send(Message(
                    src=node.proc, dst=manager, kind=MsgKind.PAGE_REQ,
                    payload={"sc": True, "page": page,
                             "requester": node.proc,
                             "write": for_write}))
                yield done
                self._fault_done.pop(page, None)
            if self.is_hit(page, node.pagetable.copies.get(page),
                           for_write):
                return
            # An interleaved transaction snatched the page back
            # between our grant and our access: fault again.

    def record_write(self, page: int, start: int, end: int) -> None:
        if self._local_mode(page) != WRITE:
            raise ProtocolError(
                f"node {self.node.proc} wrote page {page} without "
                "ownership")
        # Single writer: the write is already in the only live copy.

    # Synchronization carries no consistency information under SC:
    # the hooks keep BaseProtocol's defaults, and with no intervals
    # the barrier payload and GC are empty.

    # ------------------------------------------------------------------
    # manager-side transaction engine
    # ------------------------------------------------------------------

    def _local_transaction(self, page: int,
                           for_write: bool) -> Generator:
        """The manager faults on its own page: queue like anyone else
        and wait for the transaction to complete."""
        done = self.node.sim.event(f"sc-local-{page}")
        self._fault_done[page] = done
        self._enqueue_transaction(page, self.node.proc, for_write)
        yield done
        self._fault_done.pop(page, None)

    def _enqueue_transaction(self, page: int, requester: int,
                             for_write: bool) -> None:
        state = self._manager_state(page)
        state.pending.append((requester, for_write))
        if not state.busy:
            self._start_next_transaction(page, state)

    def _start_next_transaction(self, page: int,
                                state: _ManagedPage) -> None:
        if not state.pending:
            state.busy = False
            return
        state.busy = True
        requester, for_write = state.pending.popleft()
        # The transaction is the manager node's work: a crash of the
        # node freezes it with the node's workers.
        node = self.node
        node.machine.adopt(node.proc, node.sim.spawn(
            self._run_transaction(page, state, requester, for_write),
            name=f"sc-txn-{page}-{requester}"))

    def _run_transaction(self, page: int, state: _ManagedPage,
                         requester: int,
                         for_write: bool) -> Generator:
        node = self.node
        if for_write:
            # Invalidate every plain reader in parallel (the owner's
            # copy is taken care of by the hand-over itself, so it can
            # still source the page transfer).
            readers = sorted(state.copyset
                             - {state.owner, requester, node.proc})
            events = []
            for target in readers:
                message = Message(
                    src=node.proc, dst=target, kind=MsgKind.FLUSH,
                    payload={"sc_invalidate": page})
                events.append(node.expect_reply(message))
                yield from node.app_send(message)
            if (node.proc in state.copyset
                    and node.proc not in (state.owner, requester)):
                self._drop_local(page)
            if events:
                yield node.sim.all_of(events)
        # Ship the page to the requester; on a write hand-over the
        # source relinquishes its own copy.
        yield from self._deliver_page(page, state, requester, for_write)
        if for_write:
            state.owner = requester
            state.copyset = {requester}
        else:
            state.copyset.add(requester)
        self._start_next_transaction(page, state)

    def _deliver_page(self, page: int, state: _ManagedPage,
                      requester: int, for_write: bool) -> Generator:
        node = self.node
        source = state.owner
        if requester == node.proc:
            if self._local_mode(page) is None:
                yield from self._fetch_from(source, page, for_write)
            elif for_write and source != node.proc:
                # Upgrade: the old owner must still relinquish.
                yield from self._fetch_from(source, page, True)
            self.mode[page] = WRITE if for_write else READ
            done = self._fault_done.get(page)
            if done is not None and not done.triggered:
                done.succeed()
            return
        if source == requester:
            # The requester already owns the page (mode upgrade, e.g.
            # READ -> WRITE after the readers were invalidated): just
            # confirm, no page movement.
            yield from node.app_send(Message(
                src=node.proc, dst=requester, kind=MsgKind.PAGE_REPLY,
                payload={"sc_grant": page, "write": for_write,
                         "values": None}))
            return
        # Tell the owner to send its copy (or serve it ourselves).
        if source == node.proc:
            copy = node.pagetable.copies.get(page)
            if copy is None:
                raise ProtocolError(
                    f"sc manager {node.proc} lost page {page}")
            # Snapshot and revoke our own access in the same event
            # step: a local fast-path write sneaking in between would
            # be lost with the outgoing copy.
            values = copy.snapshot()
            if for_write:
                self._drop_local(page)  # ownership leaves this node
            else:
                self.mode[page] = READ  # our writes must fault now
            yield from node.app_send(Message(
                src=node.proc, dst=requester, kind=MsgKind.PAGE_REPLY,
                payload={"sc_grant": page, "write": for_write,
                         "values": values},
                data_bytes=node.config.page_size))
        else:
            message = Message(
                src=node.proc, dst=source, kind=MsgKind.PAGE_FWD,
                payload={"sc": True, "page": page,
                         "requester": requester, "write": for_write})
            ack = node.expect_reply(message)
            yield from node.app_send(message)
            yield ack

    def _fetch_from(self, source: int, page: int,
                    take_ownership: bool) -> Generator:
        node = self.node
        message = Message(
            src=node.proc, dst=source, kind=MsgKind.DIFF_REQ,
            payload={"sc_fetch": page, "relinquish": take_ownership})
        reply = node.expect_reply(message)
        yield from node.app_send(message)
        answer = yield reply
        node.pagetable.install(page, values=answer.payload["values"],
                               valid=True)
        node.ins.page_transfers.inc()

    def _drop_local(self, page: int) -> None:
        copy = self.node.pagetable.copies.get(page)
        if copy is not None and copy.valid:
            copy.valid = False
            self.node.ins.invalidations.inc()
        self.mode.pop(page, None)
        self._owned.discard(page)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------

    def handlers(self) -> Dict[MsgKind, Callable[[Message], None]]:
        return {MsgKind.PAGE_REQ: self._handle_request,
                MsgKind.PAGE_FWD: self._serve_forward,
                MsgKind.PAGE_REPLY: self._receive_grant,
                MsgKind.FLUSH: self._handle_invalidate,
                MsgKind.DIFF_REQ: self._serve_fetch}

    def _handle_request(self, message: Message) -> None:
        payload = message.payload
        if not payload.get("sc"):
            self.unhandled(message)
        self._enqueue_transaction(payload["page"], payload["requester"],
                                  payload["write"])

    def _handle_invalidate(self, message: Message) -> None:
        payload = message.payload
        if "sc_invalidate" not in payload:
            self.unhandled(message)
        page = payload["sc_invalidate"]
        if page in self._fault_done and self._local_mode(page) is None:
            # The manager committed our read before its grant got
            # here (it commits on the owner's ack), and the next
            # write transaction has overtaken that grant.
            self._revoked.add(page)
        self._drop_local(page)
        self.node.handler_send(Message(
            src=self.node.proc, dst=message.src,
            kind=MsgKind.FLUSH_ACK, reply_to=message.msg_id,
            payload={}))

    def _serve_fetch(self, message: Message) -> None:
        """Owner side of the manager's fetch: ship the copy."""
        payload = message.payload
        if "sc_fetch" not in payload:
            self.unhandled(message)
        page = payload["sc_fetch"]
        if self._park_early(page, message):
            return
        copy = self.node.pagetable.copies.get(page)
        if copy is None:
            raise ProtocolError(
                f"sc node {self.node.proc} asked for page {page} "
                "it does not hold")
        self.node.handler_send(Message(
            src=self.node.proc, dst=message.src,
            kind=MsgKind.DIFF_REPLY, reply_to=message.msg_id,
            payload={"values": copy.snapshot()},
            data_bytes=self.node.config.page_size))
        if payload.get("relinquish"):
            self._drop_local(page)
        else:
            self.mode[page] = READ  # our writes must fault now

    def _park_early(self, page: int, message: Message) -> bool:
        """Hold a request that reached us before our own write grant
        did.  The manager commits a write when the old owner acks the
        hand-over, not when the grant lands, so the next transaction's
        forward or fetch can overtake the grant on another stream."""
        if page not in self._fault_done or page in self._owned:
            return False
        self._early.setdefault(page, []).append(message)
        return True

    def _serve_forward(self, message: Message) -> None:
        """Owner side: ship the page to the requester and ack the
        manager so the transaction can commit."""
        node = self.node
        payload = message.payload
        if not payload.get("sc"):
            self.unhandled(message)
        page = payload["page"]
        if self._park_early(page, message):
            return
        copy = node.pagetable.copies.get(page)
        if copy is None or not copy.valid:
            raise ProtocolError(
                f"sc owner {node.proc} lost page {page}")
        node.handler_send(Message(
            src=node.proc, dst=payload["requester"],
            kind=MsgKind.PAGE_REPLY,
            payload={"sc_grant": page, "write": payload["write"],
                     "values": copy.snapshot()},
            data_bytes=node.config.page_size))
        if payload["write"]:
            self._drop_local(page)
        else:
            self.mode[page] = READ
        node.handler_send(Message(
            src=node.proc, dst=message.src, kind=MsgKind.FLUSH_ACK,
            reply_to=message.msg_id, payload={}))

    def _receive_grant(self, message: Message) -> None:
        node = self.node
        payload = message.payload
        if "sc_grant" not in payload:
            self.unhandled(message)
        page = payload["sc_grant"]
        # A revoked read grant is a stale copy: it installs nothing,
        # and the woken fault faults again (resolve_miss).
        stale = page in self._revoked and not payload["write"]
        self._revoked.discard(page)
        if not stale:
            if payload["values"] is not None:
                node.pagetable.install(page, values=payload["values"],
                                       valid=True)
                node.ins.page_transfers.inc()
            if payload["write"]:
                self.mode[page] = WRITE
                self._owned.add(page)
                for early in self._early.pop(page, ()):
                    node.handlers[early.kind](early)
            else:
                self.mode[page] = READ
        done = self._fault_done.get(page)
        if done is not None and not done.triggered:
            if node.tracer.sink.enabled:
                node.tracer.emit("sched.wake", node=node.proc,
                                 kind="sc_grant",
                                 cause=message.msg_id, page=page)
            done.succeed()
