"""Network interface and shared statistics.

A network's single job is: given a message handed over at the current
simulated time (after the sender has already paid its software
overhead), decide when the message is delivered at the receiver, folding
in wire (serialization) time, propagation latency, and contention.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heappush
from types import SimpleNamespace
from typing import Callable, List, Optional, Sequence

from repro.core.config import MachineConfig
from repro.net.message import Message
from repro.sim.engine import Simulator


class NetworkStats:
    """Aggregate traffic and contention accounting: one set of cells,
    written by the network models.  The cells are the stats' own until
    :meth:`attach_obs` swaps in the registry's ``net.*`` children
    (docs/observability.md); either way the public names are read-only
    views of them."""

    #: cell attribute -> the registry counter that takes its place.
    CELLS = {
        "messages_cell": "net.messages_total",
        "wire_bytes_cell": "net.wire_bytes_total",
        "data_bytes_cell": "net.data_bytes_total",
        "contention_cell": "net.contention_cycles_total",
        "collisions_cell": "net.collisions_total",
    }
    __slots__ = (*CELLS, "wire_hist")

    def __init__(self) -> None:
        for attr in self.CELLS:
            setattr(self, attr, SimpleNamespace(value=0))
        #: ``net.wire_cycles`` histogram child; None until attached.
        self.wire_hist = None

    def attach_obs(self, obs) -> None:
        registry = obs.registry
        for attr, name in self.CELLS.items():
            child = registry.get(name).labels()
            child.value += getattr(self, attr).value
            setattr(self, attr, child)
        self.wire_hist = registry.get("net.wire_cycles").labels()

    messages = property(lambda self: self.messages_cell.value)
    bytes_sent = property(lambda self: self.wire_bytes_cell.value)
    data_bytes_sent = property(lambda self: self.data_bytes_cell.value)
    contention_cycles = property(
        lambda self: float(self.contention_cell.value))
    collisions = property(lambda self: self.collisions_cell.value)


class Network(ABC):
    """Base class for the three contention models.

    Fault injection hook: when an injector is attached (see
    :meth:`attach_faults`), every transmission first gets a verdict —
    drop, duplicate, or extra delay.  Whether a *dropped* frame still
    consumes the medium is model-specific
    (:attr:`DROP_CONSUMES_WIRE`): on Ethernet and the ATM crossbar the
    frame was physically transmitted and lost afterwards, so it
    occupies the wire/ports as usual; the ideal model drops for free.
    """

    #: A dropped frame still pays wire time and contention (the loss
    #: happens after transmission).  IdealNetwork overrides this.
    DROP_CONSUMES_WIRE = True

    def __init__(self, sim: Simulator, config: MachineConfig) -> None:
        self.sim = sim
        self.config = config
        self.stats = NetworkStats()
        self.latency_cycles = config.us_to_cycles(config.network.latency_us)
        # Wire-time constants pre-fetched: each model computes wire
        # time once per transmission, inline, in the exact operation
        # order of MachineConfig.wire_cycles.
        self._wire_bps = config.network.bandwidth_bps
        self._cycles_per_second = config.cycles_per_second
        self._nprocs = config.nprocs
        # Delivery callback per destination; None until attached.
        self._sinks: Optional[List[Callable[[Message], None]]] = None
        self.faults = None
        self._tracer = None

    def attach(self, deliver: Callable[[Message], None]) -> None:
        """Register one delivery callback for every destination (the
        transport, the lifecycle gate, a test harness)."""
        self._sinks = [deliver] * self._nprocs

    def attach_nodes(
            self, delivers: Sequence[Callable[[Message], None]]) -> None:
        """Register one delivery callback per destination processor:
        a delivery is then scheduled straight into the receiving
        node."""
        if len(delivers) != self._nprocs:
            raise ValueError(
                f"{len(delivers)} delivery callbacks for "
                f"{self._nprocs} processors")
        self._sinks = list(delivers)

    def attach_faults(self, injector) -> None:
        """Route every transmission through a fault injector."""
        self.faults = injector

    def attach_obs(self, obs) -> None:
        """Count traffic in the metrics registry from here on."""
        self.stats.attach_obs(obs)
        self._tracer = obs.tracer

    def transmit(self, message: Message) -> float:
        """Accept a message now; schedule delivery.  Returns the
        scheduled delivery time (useful for tests)."""
        sinks = self._sinks
        if sinks is None:
            raise RuntimeError("network not attached to a machine")
        nprocs = self._nprocs
        if not (0 <= message.src < nprocs and 0 <= message.dst < nprocs):
            field = "dst" if 0 <= message.src < nprocs else "src"
            raise ValueError(
                f"message {field} {getattr(message, field)} out of "
                f"range for {nprocs} processors")
        if self.faults is not None:
            decision = self.faults.decide(message)
            if decision is not None:
                return self._transmit_with_faults(message, decision,
                                                  sinks[message.dst])
        delivery_time = self._schedule(message)
        # Simulator.schedule inlined (one call per transmission):
        # identical ``now + delay`` float arithmetic and sequence
        # numbering, including the zero-delay ready-bucket branch for
        # the corner where a tiny wire time rounds away against a
        # large current time.
        sim = self.sim
        now = sim.now
        delay = delivery_time - now
        sim._seq = seq = sim._seq + 1
        deliver = sinks[message.dst]
        if delay == 0.0:
            sim._ready.append((seq, deliver, (message,)))
        else:
            heappush(sim._queue, (now + delay, seq, deliver, (message,)))
        return delivery_time

    def _transmit_with_faults(self, message: Message, decision,
                              deliver) -> float:
        """Transmit ``message`` under the injector's verdict when it is
        not "deliver normally" (that case takes :meth:`transmit`'s
        inline path)."""
        if decision.drop and not self.DROP_CONSUMES_WIRE:
            # Free drop: the model never sees the frame.
            return self.sim.now
        delivery_time = self._schedule(message)
        if decision.drop:
            # Wire time and contention were paid; delivery never
            # happens.  The injector already counted the drop.
            return delivery_time
        delivery_time += decision.extra_delay
        self.sim.schedule(delivery_time - self.sim.now,
                          deliver, message)
        if decision.duplicate:
            # The duplicate appears one latency later, without
            # consuming the medium again (modelled as a switch-side
            # replication, not a second send).
            gap = self.latency_cycles or 1.0
            self.sim.schedule(delivery_time + gap - self.sim.now,
                              deliver, message)
        return delivery_time

    @abstractmethod
    def _schedule(self, message: Message) -> float:
        """Model-specific, one frame: compute the wire time, pick the
        delivery time and write the ``stats`` cells."""
