"""Broadcast Ethernet model.

The whole machine shares one medium: transmissions serialize globally.
With ``collisions`` enabled, a sender that finds the medium busy pays a
binary-exponential-backoff penalty that grows with the number of other
stations currently queued — the paper's observation that identical
processors hitting a barrier together create severe contention (8-way
Jacobi waits >3 ms per barrier for the wire) falls out of this model.
"""

from __future__ import annotations

from repro.core.config import MachineConfig
from repro.core.rng import substream
from repro.net.base import Network
from repro.net.message import Message
from repro.sim.engine import Simulator

BACKOFF_SLOT_US = 51.2  # classic 10 Mbit/s Ethernet slot time


class EthernetNetwork(Network):
    """Single shared medium with optional CSMA/CD backoff penalties.

    With fault injection attached, a dropped frame still occupies the
    medium for its full wire time — on a broadcast Ethernet the bits
    were sent and corrupted/lost, so everyone else still waited.
    """

    MAX_CONTENDERS = 16  # backoff window stops growing past this

    def __init__(self, sim: Simulator, config: MachineConfig) -> None:
        super().__init__(sim, config)
        self.collisions = config.network.collisions
        self.slot_cycles = config.us_to_cycles(BACKOFF_SLOT_US)
        self._free_at = 0.0
        self._queued = 0
        self._rng = substream(config.seed, "ethernet")

    def _schedule(self, message: Message) -> float:
        now = self.sim.now
        size = message.size_bytes
        wire = size * 8.0 / self._wire_bps * self._cycles_per_second
        stats = self.stats
        start = self._free_at
        if now > start:
            start = now
        waited = start - now
        if self.collisions and start > now:
            # The medium was busy: model a CSMA/CD collision episode
            # with a backoff window that grows linearly in the number
            # of stations currently contending (a light-tailed stand-in
            # for truncated binary exponential backoff).  The sender
            # holds a contender slot until its modelled transmission
            # ends, so the window tracks *live* contention instead of
            # ratcheting up across unrelated episodes within a burst.
            self._queued += 1
            window = min(self._queued, self.MAX_CONTENDERS)
            backoff = self._rng.uniform(0.0, window) * self.slot_cycles
            start += backoff
            waited += backoff
            stats.collisions_cell.value += 1
            end = start + wire
            self.sim.schedule(end - now, self._release_slot)
        else:
            backoff = 0.0
            end = start + wire
        self._free_at = end
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
                        waited=waited, backoff=backoff)
        return end + self.latency_cycles

    def _release_slot(self) -> None:
        self._queued -= 1
