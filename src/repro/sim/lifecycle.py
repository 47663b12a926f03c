"""Node crash/recovery lifecycle (the robustness layer's fault tier
above packet faults — docs/robustness.md).

Crash model: **crash-stop / crash-recover, memory intact**.  A crash
is an outage, not a loss of state: the recovered node resumes with
exactly what it held at the crash instant, as if from a checkpoint
taken then.  When a node's scheduled crash fires, the manager freezes
the node's processes — its application workers and the protocol work
it runs beside them (``Machine.adopt``) — whose deferred resumes are
queued by :meth:`repro.sim.engine.Process.pause`, and kills its NIC.
Nothing touches the node's DSM or sync state until it recovers.

While down, every packet addressed to the node is dropped at the
delivery gate (counted in ``faults.crash_dropped_packets_total`` so
the conservation invariant extends to ``received + drops +
crash_dropped == sent + dups``), and the reliable transport neither
transmits nor backs off on its behalf.  Messages that had already
cleared receive-overhead accounting before the crash land in the
node's receive log instead of dispatching — pessimistic message
logging, replayed in order at recovery so no write notice or grant is
lost.  Packets already in flight *from* the crashed node still
deliver (the wire does not know the sender died).

Recovery charges the whole outage as stolen interrupt cycles
(in-progress computation pays for the downtime), replays the receive
log, resets the transport sessions touching the node — peers'
capped-backoff retransmissions bridge the outage — and unfreezes the
processes.  A crash with no recovery time is crash-stop: the node stays
dark, the run cannot drain, and ``Machine.run`` returns a partial
result when its event budget runs out (an unfinished node's finish
time is 0.0).
"""

from __future__ import annotations

from typing import Callable, Dict, List


class NodeLifecycleManager:
    """Schedules the injector's crash plan and takes each crashed node
    off the machine (processes, NIC, receive log) for its outage."""

    def __init__(self, machine, injector, transport, obs) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.config = machine.config
        self.plan = injector.crash_plan
        self.transport = transport
        self.tracer = obs.tracer
        self._down: List[bool] = [False] * machine.config.nprocs
        self._crash_time: Dict[int, float] = {}
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
        for process in self.machine.node_processes(proc):
            process.pause()
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
        for process in self.machine.node_processes(proc):
            process.unpause()
        self._obs["recoveries"].inc()
        self._obs["outage"].observe(outage)
        self._obs["replayed"].inc(replayed)
        if self.tracer.sink.enabled:
            self.tracer.emit("node.recover", node=proc,
                             outage_cycles=outage, replayed=replayed)
