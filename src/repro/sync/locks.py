"""Distributed exclusive locks.

Each lock has a statically assigned owner (``lock_id mod nprocs``).
Acquiring processors send a request to the owner, who forwards it to the
node it last sent the lock token to; requests chain into a distributed
FIFO queue (the owner always forwards to the *latest* requester, so the
token traverses requesters in order).  The grant message carries
whatever consistency payload the protocol attaches (write notices and,
for the hybrid/update protocols, diffs).

A node that releases a lock nobody wants keeps the token, so
re-acquiring the same lock is free of communication — the property the
paper credits the lazy protocols with exploiting heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Tuple

from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.sim.engine import SimulationError
from repro.sim.events import Event


@dataclass
class _LockState:
    """One node's view of one lock."""

    has_token: bool = False
    held: bool = False
    # Requests queued here while we hold the token.
    queue: List[Tuple[int, VectorClock]] = field(default_factory=list)
    # Forwards that arrived before the token did.
    early_forwards: List[Tuple[int, VectorClock]] = field(
        default_factory=list)
    # Where we sent the token when we gave it away.
    last_granted_to: Optional[int] = None
    # Owner only: who we last forwarded a request to (the tail of the
    # distributed queue).
    probable_tail: Optional[int] = None
    # Event the local acquirer is waiting on.
    waiting: Optional[Event] = None
    # Local threads waiting for an intra-node handoff (multithreaded
    # nodes): the lock passes between threads without any messages or
    # consistency actions (same processor, same memory).
    local_waiters: List[Event] = field(default_factory=list)


class LockManager:
    """Per-node lock protocol engine.

    ``broadcast=True`` enables the ablation the paper alludes to in
    its conclusions ("without resorting to broadcast, it appears
    impossible to reduce the number of messages required for lock
    acquisition"): the acquirer broadcasts its request to every other
    node; whoever holds (or is about to hold) the token responds,
    cutting the request path to one hop at the price of n-1 request
    messages on a point-to-point network."""

    def __init__(self, node, broadcast: bool = False) -> None:
        self.node = node
        self.sim = node.sim
        self.broadcast = broadcast
        self._locks: Dict[int, _LockState] = {}

    def _state(self, lock_id: int) -> _LockState:
        state = self._locks.get(lock_id)
        if state is None:
            owner = self.node.machine.lock_owner(lock_id)
            state = _LockState()
            if owner == self.node.proc:
                state.has_token = True
                state.probable_tail = self.node.proc
            self._locks[lock_id] = state
        return state

    # -- application-side operations ------------------------------------

    def acquire(self, lock_id: int) -> Generator:
        """Acquire ``lock_id``; blocks until granted.  Applies the
        protocol's consistency actions before returning."""
        node = self.node
        state = self._state(lock_id)
        if state.held or state.waiting is not None:
            if not node.multithreaded:
                problem = ("re-acquiring held"
                           if state.held else "double-acquiring")
                raise SimulationError(
                    f"proc {node.proc} {problem} lock {lock_id}")
            # Another thread of this node holds (or is fetching) the
            # lock: wait for the intra-node handoff.
            handoff = self.sim.event(f"lock-{lock_id}-handoff")
            state.local_waiters.append(handoff)
            yield handoff
            node.ins.lock_acquires.inc()
            node.ins.lock_local_acquires.inc()
            return
        if state.has_token and not state.queue:
            # Token cached locally and nobody queued: free re-acquire.
            state.held = True
            node.ins.lock_acquires.inc()
            node.ins.lock_local_acquires.inc()
            return
        state.waiting = self.sim.event("lock-grant")
        if self.broadcast:
            if node.tracer.sink.enabled:
                node.tracer.emit("sync.lock_request", lock=lock_id,
                                 node=node.proc, target=None)
            yield from self._broadcast_request(lock_id, state)
        else:
            owner = node.machine.lock_owner(lock_id)
            if owner == node.proc:
                # We are the owner but the token is elsewhere: forward
                # the request straight down the chain.
                target = state.probable_tail
                state.probable_tail = node.proc
                kind = MsgKind.LOCK_FWD
            else:
                target = owner
                kind = MsgKind.LOCK_REQ
            if node.tracer.sink.enabled:
                node.tracer.emit("sync.lock_request", lock=lock_id,
                                 node=node.proc, target=target)
            yield from node.app_send(Message(
                src=node.proc, dst=target, kind=kind,
                payload={"lock": lock_id, "requester": node.proc,
                         "vc": node.vc}))
        grant = yield state.waiting
        state.waiting = None
        # The token has arrived: take ownership *before* running the
        # protocol's (possibly blocking) consistency actions, so
        # forwards arriving meanwhile queue here instead of dead-ending.
        state.has_token = True
        state.held = True
        # Requesters queued behind us travel with the token; forwards
        # that raced ahead of the token chain after them.
        state.queue.extend(grant["queue"])
        state.queue.extend(state.early_forwards)
        state.early_forwards = []
        yield from node.protocol.apply_grant(grant["payload"])
        node.ins.lock_acquires.inc()

    #: Broadcast mode: rebroadcast period if no grant arrived (the
    #: token can be in flight past every copy of the request).
    BROADCAST_RETRY_CYCLES = 100_000.0

    def _broadcast_request(self, lock_id: int,
                           state: _LockState) -> Generator:
        node = self.node
        for target in range(node.config.nprocs):
            if target == node.proc:
                continue
            yield from node.app_send(Message(
                src=node.proc, dst=target, kind=MsgKind.LOCK_REQ,
                payload={"lock": lock_id, "requester": node.proc,
                         "vc": node.vc, "broadcast": True}))
        waiting = state.waiting

        def watchdog():
            while not waiting.triggered:
                yield node.sim.timeout(self.BROADCAST_RETRY_CYCLES)
                if waiting.triggered or state.waiting is not waiting:
                    return
                for target in range(node.config.nprocs):
                    if target != node.proc:
                        node.handler_send(Message(
                            src=node.proc, dst=target,
                            kind=MsgKind.LOCK_REQ,
                            payload={"lock": lock_id,
                                     "requester": node.proc,
                                     "vc": node.vc,
                                     "broadcast": True}))

        node.sim.spawn(watchdog(), name=f"lock-{lock_id}-watchdog")

    def release(self, lock_id: int) -> Generator:
        """Release ``lock_id``: run the protocol's release-side actions
        (seal the interval; eager protocols flush), then pass the token
        to the next queued requester, if any."""
        node = self.node
        state = self._state(lock_id)
        if not state.held:
            raise SimulationError(
                f"proc {node.proc} releasing unheld lock {lock_id}")
        if node.tracer.sink.enabled:
            node.tracer.emit("sync.lock_release", lock=lock_id,
                             node=node.proc)
        if state.local_waiters:
            # Intra-node handoff: the lock stays held by this node and
            # no consistency information needs to move (same memory).
            if node.tracer.sink.enabled:
                node.tracer.emit("sync.lock_handoff", lock=lock_id,
                                 node=node.proc)
            state.local_waiters.pop(0).succeed()
            return
        yield from node.protocol.on_release()
        state.held = False
        if state.queue:
            requester, requester_vc = state.queue.pop(0)
            remainder, state.queue = state.queue, []
            yield from self._grant_from_app(lock_id, state, requester,
                                            requester_vc, remainder)

    def _grant_from_app(self, lock_id: int, state: _LockState,
                        requester: int, requester_vc: VectorClock,
                        remainder: List[Tuple[int, VectorClock]]
                        ) -> Generator:
        payload, data_bytes = self.node.protocol.grant_payload(
            requester, requester_vc, lock_id=lock_id)
        state.has_token = False
        state.last_granted_to = requester
        if self.node.tracer.sink.enabled:
            self.node.tracer.emit("sync.lock_grant", lock=lock_id,
                                  node=self.node.proc, to=requester)
        yield from self.node.app_send(Message(
            src=self.node.proc, dst=requester, kind=MsgKind.LOCK_GRANT,
            payload={"lock": lock_id, "payload": payload,
                     "queue": remainder},
            data_bytes=data_bytes))

    # -- message handlers --------------------------------------------------

    # Node.bind_handlers routes LOCK_REQ, LOCK_FWD and LOCK_GRANT
    # straight to these three.

    def _handle_request(self, message: Message) -> None:
        """Owner-side: route the request to the tail of the queue."""
        node = self.node
        payload = message.payload
        lock_id = payload["lock"]
        requester = payload["requester"]
        node.observe_peer_vc(requester, payload["vc"])
        state = self._state(lock_id)
        if payload.get("broadcast"):
            # Broadcast mode: only the node physically holding the
            # token responds (unique acceptance — a waiter must stay
            # silent or two nodes would queue the same request).  A
            # request that lands while the token is in flight is
            # dropped and recovered by the requester's rebroadcast.
            if state.has_token:
                self._accept_request(lock_id, state, requester,
                                     payload["vc"])
            return
        if node.machine.lock_owner(lock_id) != node.proc:
            raise SimulationError(
                f"proc {node.proc} got LOCK_REQ for lock {lock_id} "
                "it does not own")
        tail = state.probable_tail
        state.probable_tail = requester
        if tail == node.proc:
            self._accept_request(lock_id, state, requester,
                                 payload["vc"])
        else:
            node.handler_send(Message(
                src=node.proc, dst=tail, kind=MsgKind.LOCK_FWD,
                payload=payload))

    def _handle_forward(self, message: Message) -> None:
        node = self.node
        payload = message.payload
        lock_id = payload["lock"]
        requester = payload["requester"]
        node.observe_peer_vc(requester, payload["vc"])
        state = self._state(lock_id)
        if not state.has_token and state.waiting is None:
            # The token already moved on; chase it.
            target = state.last_granted_to
            if target is None:
                raise SimulationError(
                    f"proc {node.proc} cannot route forward for lock "
                    f"{lock_id}")
            node.handler_send(Message(
                src=node.proc, dst=target, kind=MsgKind.LOCK_FWD,
                payload=payload))
            return
        self._accept_request(lock_id, state, requester, payload["vc"])

    def _accept_request(self, lock_id: int, state: _LockState,
                        requester: int,
                        requester_vc: VectorClock) -> None:
        """We are (or will be) the token holder: grant now or queue."""
        node = self.node
        if self.broadcast:
            # Rebroadcasts can duplicate a request we already queued.
            if (any(r == requester for r, _vc in state.queue)
                    or any(r == requester
                           for r, _vc in state.early_forwards)):
                return
        if state.waiting is not None and not state.has_token:
            # We are ourselves waiting for the token; the request must
            # wait until it arrives (it chains behind us).
            state.early_forwards.append((requester, requester_vc))
            return
        if state.held or state.queue:
            state.queue.append((requester, requester_vc))
            return
        # Token idle here: grant immediately from handler context.
        payload, data_bytes = node.protocol.grant_payload(
            requester, requester_vc, lock_id=lock_id)
        state.has_token = False
        state.last_granted_to = requester
        if node.tracer.sink.enabled:
            node.tracer.emit("sync.lock_grant", lock=lock_id,
                             node=node.proc, to=requester)
        node.handler_send(Message(
            src=node.proc, dst=requester, kind=MsgKind.LOCK_GRANT,
            payload={"lock": lock_id, "payload": payload, "queue": []},
            data_bytes=data_bytes))

    def _handle_grant(self, message: Message) -> None:
        payload = message.payload
        state = self._state(payload["lock"])
        if state.waiting is None:
            raise SimulationError(
                f"proc {self.node.proc} got unsolicited grant of lock "
                f"{payload['lock']}")
        if self.node.tracer.sink.enabled:
            self.node.tracer.emit("sched.wake", node=self.node.proc,
                                  kind="lock_grant",
                                  cause=message.msg_id,
                                  lock=payload["lock"])
        state.waiting.succeed(payload)
