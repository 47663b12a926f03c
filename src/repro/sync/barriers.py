"""Global barriers.

Barriers use a statically assigned master that collects arrival
messages and distributes departure messages (2(n-1) messages per
episode).  In consistency terms a barrier arrival is a release and a
departure is an acquire on each of the other processors; the protocol
hooks attached here let each of the five protocols move its consistency
information at the right moments:

- ``pre_barrier``: before sending the arrival (seal the interval; the
  update-style protocols push diffs to cachers here),
- ``barrier_arrive_payload``: consistency info piggybacked to the master,
- ``master_combine``: master-side merge (EI's per-page winner election),
- ``apply_depart``: acquire-side actions on the departure message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional

from repro.net.message import Message, MsgKind
from repro.sim.engine import SimulationError
from repro.sim.events import Event


@dataclass
class _Episode:
    """Master-side state for one barrier episode."""

    arrived: Dict[int, object] = field(default_factory=dict)
    all_arrived: Optional[Event] = None


class BarrierManager:
    """Per-node barrier engine."""

    def __init__(self, node) -> None:
        self.node = node
        self.sim = node.sim
        # Episode counters per barrier id (this node's next episode).
        self._episode: Dict[int, int] = {}
        # Master-side per-(barrier, episode) state.
        self._master: Dict[tuple, _Episode] = {}
        # Worker-side wait events per (barrier, episode).
        self._departures: Dict[tuple, Event] = {}
        # Global barrier episodes this node has completed (for GC).
        self._episodes_completed = 0

    def barrier(self, barrier_id: int) -> Generator:
        """Enter the global barrier; returns when all nodes have."""
        node = self.node
        nprocs = node.config.nprocs
        episode = self._episode.get(barrier_id, 0)
        self._episode[barrier_id] = episode + 1
        arrived_at = self.sim.now

        yield from node.protocol.pre_barrier()
        payload = node.protocol.barrier_arrive_payload()

        if nprocs == 1:
            yield from node.protocol.apply_depart(
                node.protocol.master_combine({0: payload})[0])
            yield from self._maybe_collect_garbage()
            return

        master = node.machine.barrier_master(barrier_id)
        key = (barrier_id, episode)
        if node.tracer.sink.enabled:
            node.tracer.emit("sync.barrier_arrive", barrier=barrier_id,
                             episode=episode, node=node.proc,
                             master=master)
        if master == node.proc:
            state = self._master_state(key)
            state.arrived[node.proc] = payload
            if len(state.arrived) < nprocs:
                state.all_arrived = self.sim.event("barrier")
                yield state.all_arrived
            departures = node.protocol.master_combine(state.arrived)
            del self._master[key]
            if node.tracer.sink.enabled:
                node.tracer.emit("sync.barrier_depart",
                                 barrier=barrier_id, episode=episode,
                                 node=node.proc)
            for proc in range(nprocs):
                if proc == node.proc:
                    continue
                yield from node.app_send(Message(
                    src=node.proc, dst=proc, kind=MsgKind.BARRIER_DEPART,
                    payload={"barrier": barrier_id, "episode": episode,
                             "payload": departures[proc]}))
            self._record_wait(arrived_at, barrier_id)
            yield from node.protocol.apply_depart(departures[node.proc])
            yield from self._maybe_collect_garbage()
        else:
            depart_event = self.sim.event("barrier-depart")
            self._departures[key] = depart_event
            yield from node.app_send(Message(
                src=node.proc, dst=master, kind=MsgKind.BARRIER_ARRIVE,
                payload={"barrier": barrier_id, "episode": episode,
                         "proc": node.proc, "vc": node.vc,
                         "payload": payload}))
            depart_payload = yield depart_event
            del self._departures[key]
            self._record_wait(arrived_at, barrier_id)
            yield from node.protocol.apply_depart(depart_payload)
            yield from self._maybe_collect_garbage()

    def _record_wait(self, arrived_at: float, barrier_id: int) -> None:
        """Account one completed episode: legacy counters plus the
        registry's sync.barrier_* metrics and an optional trace event."""
        node = self.node
        waited = self.sim.now - arrived_at
        node.ins.barrier_waits.value += 1
        node.ins.barrier_wait.observe(waited)
        if node.tracer.sink.enabled:
            node.tracer.emit("sync.barrier_done", barrier=barrier_id,
                             node=node.proc, wait_cycles=waited)

    def _maybe_collect_garbage(self) -> None:
        """Run metadata GC every ``gc_barrier_interval`` episodes (all
        nodes execute the same global barrier sequence, so they reach
        GC points together)."""
        self._episodes_completed += 1
        interval = self.node.config.gc_barrier_interval
        if interval and self._episodes_completed % interval == 0:
            yield from self.node.protocol.collect_garbage()

    def _master_state(self, key: tuple) -> _Episode:
        state = self._master.get(key)
        if state is None:
            state = _Episode()
            self._master[key] = state
        return state

    # -- message handlers ----------------------------------------------

    def handle(self, message: Message) -> None:
        payload = message.payload
        key = (payload["barrier"], payload["episode"])
        if message.kind == MsgKind.BARRIER_ARRIVE:
            node = self.node
            node.observe_peer_vc(payload["proc"], payload["vc"])
            state = self._master_state(key)
            if payload["proc"] in state.arrived:
                raise SimulationError(
                    f"double arrival from {payload['proc']} at {key}")
            state.arrived[payload["proc"]] = payload["payload"]
            if (len(state.arrived) == node.config.nprocs
                    and state.all_arrived is not None):
                if node.tracer.sink.enabled:
                    node.tracer.emit("sched.wake", node=node.proc,
                                     kind="barrier_all_arrived",
                                     cause=message.msg_id,
                                     barrier=payload["barrier"])
                state.all_arrived.succeed()
        elif message.kind == MsgKind.BARRIER_DEPART:
            event = self._departures.get(key)
            if event is None:
                raise SimulationError(
                    f"proc {self.node.proc} got unexpected departure "
                    f"for {key}")
            if self.node.tracer.sink.enabled:
                self.node.tracer.emit("sched.wake",
                                      node=self.node.proc,
                                      kind="barrier_depart",
                                      cause=message.msg_id,
                                      barrier=payload["barrier"])
            event.succeed(payload["payload"])
        else:  # pragma: no cover - dispatch guarantees
            raise SimulationError(f"barrier manager got {message}")
