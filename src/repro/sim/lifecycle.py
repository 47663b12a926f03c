"""Node crash/recovery lifecycle (the robustness layer's fault tier
above packet faults — docs/robustness.md).

Crash model: **crash-stop / crash-recover with checkpoint at the
crash instant**.  When a node's scheduled crash fires, the manager

1. freezes the node's application workers (their deferred resumes are
   queued by :meth:`repro.sim.engine.Process.pause`),
2. snapshots the node's entire DSM state — page copies, twins,
   vector clocks, interval log, stored diffs, copysets, protocol
   queues (:func:`repro.mem.checkpoint.checkpoint_node`) — and the
   sync layer (lock tokens/queues, barrier episodes), and
3. wipes the live state in place, so the node holds nothing the
   checkpoint does not.

While down, the node's NIC is dead: every packet addressed to it is
dropped at the delivery gate (counted in
``faults.crash_dropped_packets_total`` so the conservation invariant
extends to ``received + drops + crash_dropped == sent + dups``), and
the reliable transport neither transmits nor backs off on its behalf.
Messages that had already cleared receive-overhead accounting before
the crash land in the node's receive log instead of dispatching —
pessimistic message logging, replayed in order after restore so no
write notice or grant is lost.  Packets already in flight *from* the
crashed node still deliver (the wire does not know the sender died).

Recovery restores the checkpoint into the same objects (paused worker
continuations hold references to page copies and lock records, so
identity must survive the round trip), charges the whole outage as
stolen interrupt cycles (in-progress computation pays for the
downtime), replays the receive log, resets the transport sessions
touching the node — peers' capped-backoff retransmissions bridge the
outage — and unfreezes the workers.  A crash with no recovery time is
crash-stop: the node stays dark, the run cannot drain, and
``Machine.run`` returns a partial result when its event budget runs
out (an unfinished node's finish time is 0.0).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.mem.checkpoint import checkpoint_node, restore_node, wipe_node
from repro.sim.engine import SimulationError


class NodeLifecycleManager:
    """Schedules the injector's crash plan and coordinates the
    checkpoint/wipe/restore cycle across mem, sync, and transport."""

    def __init__(self, machine, injector, transport, obs) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.config = machine.config
        self.plan = injector.crash_plan
        self.transport = transport
        self.tracer = obs.tracer
        self._down: List[bool] = [False] * machine.config.nprocs
        # proc -> (DSM snapshot, lock snapshot, barrier snapshot).
        self._checkpoints: Dict[int, Tuple[dict, dict, dict]] = {}
        self._crash_time: Dict[int, float] = {}
        if self.plan and not machine.nodes[0].protocol.supports_checkpoint:
            raise SimulationError(
                f"protocol {machine.protocol_name!r} does not support "
                "crash checkpointing (supports_checkpoint is False); "
                "crash faults require one of the interval-based "
                "protocols")
        from repro.obs import ROBUSTNESS_CATALOG, install
        registry = obs.registry
        install(registry, ROBUSTNESS_CATALOG)
        self._obs = {
            "crashes": registry.get("faults.crashes_total").labels(),
            "crash_dropped": registry.get(
                "faults.crash_dropped_packets_total").labels(),
            "recoveries": registry.get(
                "faults.recoveries_total").labels(),
            "outage": registry.get(
                "faults.recovery_outage_cycles").labels(),
            "replayed": registry.get(
                "faults.recovery_replayed_total").labels(),
        }

    def install(self) -> None:
        """Schedule every planned crash (absolute times from t=0)."""
        for ev in self.plan:
            self.sim.schedule(self.config.us_to_cycles(ev.at_us),
                              self._crash, ev)

    def is_down(self, proc: int) -> bool:
        return self._down[proc]

    def gate(self, deliver: Callable) -> Callable:
        """Wrap the network delivery callback: packets addressed to a
        down node die at its NIC (in-flight packets *from* a down node
        still deliver — the wire does not know)."""
        down = self._down
        dropped = self._obs["crash_dropped"]

        def gated(packet) -> None:
            if down[packet.dst]:
                dropped.inc()
                return
            deliver(packet)

        return gated

    # -- crash ----------------------------------------------------------

    def _crash(self, ev) -> None:
        proc = ev.proc
        if self._down[proc]:
            # Overlapping schedule entries (an explicit spec landing
            # inside a drawn outage): the node is already dead; the
            # later event — and its recovery — is ignored.
            return
        node = self.machine.nodes[proc]
        for process in self.machine.worker_processes(proc):
            process.pause()
        self._checkpoints[proc] = (checkpoint_node(node),
                                   node.lock_manager.checkpoint_state(),
                                   node.barrier_manager.checkpoint_state())
        wipe_node(node)
        node._down = True
        self._down[proc] = True
        self._crash_time[proc] = self.sim.now
        self._obs["crashes"].inc()
        down_cycles = (None if ev.down_us is None
                       else self.config.us_to_cycles(ev.down_us))
        if self.tracer.sink.enabled:
            self.tracer.emit("node.crash", node=proc,
                             down_cycles=down_cycles,
                             crash_stop=ev.down_us is None)
        if down_cycles is not None:
            self.sim.schedule(down_cycles, self._recover, proc)

    # -- recovery -------------------------------------------------------

    def _recover(self, proc: int) -> None:
        node = self.machine.nodes[proc]
        snapshot, locks, barriers = self._checkpoints.pop(proc)
        restore_node(node, snapshot)
        node.lock_manager.restore_state(locks)
        node.barrier_manager.restore_state(barriers)
        outage = self.sim.now - self._crash_time.pop(proc)
        # The outage is stolen CPU, like one giant interrupt: any
        # computation straddling the crash repays it through the
        # stolen-cycles loop.  The handler window is NOT pushed —
        # handler_charge maxes against now on the next message anyway,
        # and pushing both would bill the outage twice.
        node._interrupt_cycles += outage
        node._down = False
        self._down[proc] = False
        # Replay the receive log in arrival order (write-notice and
        # grant replay): these messages already paid their receive
        # overhead before the crash, so they re-enter at _dispatch.
        replayed = len(node._crash_rx_log)
        for message in node._crash_rx_log:
            self.sim.schedule(0.0, node._dispatch, message)
        node._crash_rx_log.clear()
        self.transport.on_node_recovered(proc)
        for process in self.machine.worker_processes(proc):
            process.unpause()
        self._obs["recoveries"].inc()
        self._obs["outage"].observe(outage)
        self._obs["replayed"].inc(replayed)
        if self.tracer.sink.enabled:
            self.tracer.emit("node.recover", node=proc,
                             outage_cycles=outage, replayed=replayed)
