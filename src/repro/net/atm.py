"""ATM crossbar model.

Point-to-point switch: every node has one output port and one input
port.  A message occupies the sender's output port and the receiver's
input port for its wire time, so disjoint source/destination pairs
proceed fully in parallel and interference only arises when senders
target a common destination — the property the paper credits for most
of Jacobi's improvement over Ethernet.

With fault injection attached, a dropped message still occupies both
ports for its wire time: the cells were switched and then lost, so the
loss is only detected end-to-end (by the reliable transport's
timeouts), never by the switch.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.net.base import Network
from repro.net.message import Message
from repro.sim.engine import Simulator


class AtmNetwork(Network):
    """Crossbar with per-port serialization."""

    def __init__(self, sim: Simulator, config: MachineConfig) -> None:
        super().__init__(sim, config)
        nprocs = config.nprocs
        self._out_free = [0.0] * nprocs
        self._in_free = [0.0] * nprocs

    def _schedule(self, message: Message) -> float:
        now = self.sim.now
        size = message.size_bytes
        wire = size * 8.0 / self._wire_bps * self._cycles_per_second
        start = self._out_free[message.src]
        if now > start:
            start = now
        in_free = self._in_free[message.dst]
        if in_free > start:
            start = in_free
        waited = start - now
        end = start + wire
        self._out_free[message.src] = end
        self._in_free[message.dst] = end
        stats = self.stats
        stats.messages_cell.value += 1
        stats.wire_bytes_cell.value += size
        stats.data_bytes_cell.value += message.data_bytes
        stats.contention_cell.value += waited
        hist = stats.wire_hist
        if hist is not None:
            hist.observe(wire)
        tracer = self._tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit("net.xmit", msg=message.msg_id,
                        src=message.src, dst=message.dst,
                        kind=message.kind.value, wire=wire,
                        waited=waited)
        return end + self.latency_cycles
