"""Ideal network: no wire time, no contention, fixed latency.

Used by unit tests to isolate protocol logic from network modelling,
and as the contention-free limit in ablation studies.
"""

from __future__ import annotations

from repro.net.base import Network
from repro.net.message import Message


class IdealNetwork(Network):
    """Delivers every message after the configured latency.

    Injected drops are free here: the ideal model has no medium to
    occupy, so a lost message consumes neither wire time nor stats —
    useful for isolating pure transport-recovery behaviour from
    contention effects.
    """

    DROP_CONSUMES_WIRE = False

    def _schedule(self, message: Message) -> float:
        # No waiting; adding 0.0 keeps the contention cell a float,
        # which is how every dump holds it.
        stats = self.stats
        stats.messages_cell.value += 1
        stats.wire_bytes_cell.value += message.size_bytes
        stats.data_bytes_cell.value += message.data_bytes
        stats.contention_cell.value += 0.0
        hist = stats.wire_hist
        if hist is not None:
            hist.observe(0.0)
        tracer = self._tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit("net.xmit", msg=message.msg_id,
                        src=message.src, dst=message.dst,
                        kind=message.kind.value, wire=0.0,
                        waited=0.0)
        return self.sim.now + self.latency_cycles
