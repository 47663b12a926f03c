"""A simulated processor node.

A node owns the per-processor DSM state (page table, copysets, interval
log, diff store, vector clock), a CPU cost model, and the message
plumbing between the application process, the protocol handlers, and
the network.

CPU model
---------
Application code and incoming-message handlers share one processor.
Handlers behave like interrupts: they serialize among themselves
(``_handler_busy_until``) and their cycles are *stolen* from any
application computation in progress (``compute`` re-checks the stolen
cycle count until it has paid for interrupts that landed inside its
window).  This reproduces the paper's observation that per-message
software overhead directly slows the application down.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.core.config import (OVERHEAD_FIXED_CYCLES,
                               OVERHEAD_PER_BYTE_CYCLES, MachineConfig)
from repro.mem.copyset import CopysetTable
from repro.mem.intervals import DiffStore, IntervalLog
from repro.mem.pages import PageTable
from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


class Node:
    """One processor of the simulated DSM machine."""

    def __init__(self, machine, proc: int) -> None:
        self.machine = machine
        self.proc = proc
        self.sim: Simulator = machine.sim
        self.config: MachineConfig = machine.config
        # Observability: pre-bound registry children (repro.obs) —
        # the one place this node's facts are counted — and the
        # machine's tracer.
        self.ins = machine.obs.node_instruments(proc)
        self.tracer = machine.obs.tracer

        # DSM state.
        self.pagetable = PageTable(self.config.words_per_page)
        self.copysets = CopysetTable(proc)
        self.interval_log = IntervalLog()
        self.diff_store = DiffStore()
        self.vc = VectorClock.zero(self.config.nprocs)
        # The highest of our own interval indices each peer is known
        # to have seen (for push filtering): all a peer's clock says
        # about our intervals is its component for us.
        self.peer_seen: List[int] = [0] * self.config.nprocs

        # CPU/interrupt model.  The overhead formula's constants are
        # pre-fetched: it runs twice per message (send + receive), and
        # the arithmetic inlined at the three sites keeps the exact
        # operation order of OverheadConfig.message_cycles.
        overhead = self.config.overhead
        self._oh_scale = overhead.scale
        self._oh_fixed = OVERHEAD_FIXED_CYCLES
        self._oh_per_byte = OVERHEAD_PER_BYTE_CYCLES
        self._oh_per_byte_lazy = (OVERHEAD_PER_BYTE_CYCLES
                                  * overhead.lazy_per_byte_factor)
        self._handler_busy_until = 0.0
        self._interrupt_cycles = 0.0
        # Causal id of the message currently being dispatched; stamps
        # handler-context sends so traces can chain request->response
        # hops.  Only maintained while tracing is enabled.
        self._trace_cause: Optional[int] = None
        # Node lifecycle (repro.sim.lifecycle): while down, messages
        # that already cleared receive accounting are logged instead
        # of dispatched, and replayed in order at recovery.
        self._down = False
        self._crash_rx_log: List[Message] = []
        # Multithreading (the paper's future-work extension): several
        # application threads share this node; computation serializes
        # on the CPU while blocked threads overlap their communication.
        self.multithreaded = False
        self.cpu_resource = None

        # Request/reply correlation.
        self._pending_replies: Dict[int, Event] = {}

        # Filled in by the machine; bind_handlers() then builds the
        # dispatch table from them.
        self.protocol = None
        self.lock_manager = None
        self.barrier_manager = None
        self.handlers: Dict[MsgKind, Callable[[Message], None]] = {}

    def bind_handlers(self) -> None:
        """Build the ``{MsgKind: bound handler}`` table ``_dispatch``
        routes through (once, after the machine has set the protocol
        and the sync managers)."""
        locks = self.lock_manager
        table = {**self.protocol.handlers(),
                 MsgKind.LOCK_REQ: locks._handle_request,
                 MsgKind.LOCK_FWD: locks._handle_forward,
                 MsgKind.LOCK_GRANT: locks._handle_grant,
                 MsgKind.BARRIER_ARRIVE: self.barrier_manager.handle,
                 MsgKind.BARRIER_DEPART: self.barrier_manager.handle}
        self.handlers = {kind: table.get(kind, self.protocol.unhandled)
                         for kind in MsgKind}

    # -- identity helpers -------------------------------------------------

    def page_owner(self, page: int) -> int:
        return self.machine.page_owner(page)

    def observe_peer_vc(self, proc: int, vc: VectorClock) -> None:
        """Remember that ``proc`` has seen our intervals up to
        ``vc[self.proc]``."""
        if proc != self.proc:
            seen = vc.components[self.proc]
            if seen > self.peer_seen[proc]:
                self.peer_seen[proc] = seen

    def memory_footprint(self) -> Dict[str, int]:
        """Consistency-metadata sizes (what barrier GC reclaims)."""
        return {
            "interval_records": len(self.interval_log),
            "stored_diffs": len(self.diff_store),
            "page_copies": len(self.pagetable),
        }

    # -- CPU model ---------------------------------------------------------

    def enable_multithreading(self) -> None:
        from repro.sim.resources import Resource
        self.multithreaded = True
        if self.cpu_resource is None:
            self.cpu_resource = Resource(self.sim, capacity=1,
                                         name=f"cpu-{self.proc}")

    def compute(self, cycles: float) -> Generator:
        """Application-context computation of ``cycles`` cycles, slowed
        down by any interrupt (handler) cycles that land inside it.
        On a multithreaded node, threads serialize on the CPU."""
        if not 0 <= cycles < inf:
            raise ValueError(f"cannot compute {cycles!r} cycles: a "
                             "duration is a finite number >= 0")
        self.ins.compute_cycles.value += cycles
        if cycles == 0:
            return
        if self.multithreaded:
            yield self.cpu_resource.request()
        try:
            started = self.sim.now
            stolen_before = self._interrupt_cycles
            # Bare-number yields take the engine's allocation-free
            # delay fast path (same dispatch sequence as a Timeout).
            yield cycles
            paid = 0.0
            while True:
                stolen = self._interrupt_cycles - stolen_before
                if stolen <= paid:
                    break
                extra = stolen - paid
                paid = stolen
                yield extra
            if self.tracer.sink.enabled:
                self.tracer.emit("cpu.compute", node=self.proc,
                                 started=started, cycles=cycles)
        finally:
            if self.multithreaded:
                self.cpu_resource.release()

    def app_charge(self, cycles: float) -> Generator:
        """Application-context protocol work (overhead, diff creation).
        Counted as overhead, not computation."""
        if cycles > 0:
            self.ins.overhead_cycles.value += cycles
            yield cycles

    def handler_charge(self, cycles: float) -> float:
        """Occupy the handler (interrupt) context for ``cycles``;
        returns the completion time."""
        start = max(self.sim.now, self._handler_busy_until)
        end = start + cycles
        self._handler_busy_until = end
        self._interrupt_cycles += cycles
        self.ins.overhead_cycles.value += cycles
        return end

    def stall(self, cycles: float) -> None:
        """Injected CPU stall (repro.faults): the processor is lost
        for ``cycles`` — in-progress computation pays for it like an
        interrupt, and pending handlers are pushed back — but it is
        *not* software overhead, so the paper's cost accounting is
        untouched."""
        if cycles < 0:
            raise ValueError(f"negative stall: {cycles}")
        now = self.sim.now
        self._handler_busy_until = max(now,
                                       self._handler_busy_until) + cycles
        self._interrupt_cycles += cycles

    # -- message costs -----------------------------------------------------

    def diff_creation_cost(self) -> float:
        return self.config.overhead.diff_cycles(self.config.words_per_page)

    # -- sending -----------------------------------------------------------
    # Each send runs in one frame: source check, lazy stamp, the
    # registry count, and the overhead arithmetic
    # (OverheadConfig.message_cycles, operation for operation).

    def app_send(self, message: Message) -> Generator:
        """Send from application context: the sender pays its software
        overhead inline, then hands the message to the network."""
        if message.src != self.proc:
            raise SimulationError(
                f"node {self.proc} sending message with src={message.src}")
        message.lazy = lazy = (self.protocol.is_lazy if self.protocol
                               else False)
        size = message.size_bytes
        ins = self.ins
        ins.messages[message.kind].value += 1
        ins.data_bytes.value += message.data_bytes
        if self.tracer.sink.enabled:
            self.tracer.emit("msg.send", msg=message.msg_id,
                             src=message.src,
                             dst=message.dst, kind=message.kind.value,
                             data_bytes=message.data_bytes,
                             context="app",
                             reply_to=message.reply_to)
        # The > 0 guard: the zero-overhead ablation must not yield, or
        # event counts change.
        cycles = self._oh_scale * (
            self._oh_fixed + size * (self._oh_per_byte_lazy if lazy
                                     else self._oh_per_byte))
        if cycles > 0:
            ins.overhead_cycles.value += cycles
            yield cycles
        self.machine.transmit(message)

    def handler_send(self, message: Message) -> float:
        """Send from handler (interrupt) context: overhead extends the
        handler-busy window and transmission starts when it ends."""
        if message.src != self.proc:
            raise SimulationError(
                f"node {self.proc} sending message with src={message.src}")
        message.lazy = lazy = (self.protocol.is_lazy if self.protocol
                               else False)
        size = message.size_bytes
        ins = self.ins
        ins.messages[message.kind].value += 1
        ins.data_bytes.value += message.data_bytes
        if self.tracer.sink.enabled:
            self.tracer.emit("msg.send", msg=message.msg_id,
                             src=message.src,
                             dst=message.dst, kind=message.kind.value,
                             data_bytes=message.data_bytes,
                             context="handler",
                             reply_to=message.reply_to,
                             cause=self._trace_cause)
        cycles = self._oh_scale * (
            self._oh_fixed + size * (self._oh_per_byte_lazy if lazy
                                     else self._oh_per_byte))
        # handler_charge and Simulator.schedule, in this frame (same
        # ``now + delay`` float arithmetic, same sequence numbering).
        sim = self.sim
        now = sim.now
        busy = self._handler_busy_until
        ready = (now if now > busy else busy) + cycles
        self._handler_busy_until = ready
        self._interrupt_cycles += cycles
        ins.overhead_cycles.value += cycles
        delay = ready - now
        sim._seq = seq = sim._seq + 1
        if delay == 0.0:
            sim._ready.append((seq, self.machine.transmit, (message,)))
        else:
            heappush(sim._queue, (now + delay, seq,
                                  self.machine.transmit, (message,)))
        return ready

    # -- request/reply correlation ------------------------------------------

    def expect_reply(self, request: Message) -> Event:
        """Register interest in a reply correlated to ``request``."""
        # Constant name: one f-string per request/reply pair showed up
        # in whole-run profiles; the correlating id lives in
        # _pending_replies and in the message itself.
        event = Event(self.sim, "reply")
        self._pending_replies[request.msg_id] = event
        return event

    def request_from_app(self, message: Message) -> Generator:
        """Send a request and wait for its reply; returns the reply."""
        reply_event = self.expect_reply(message)
        yield from self.app_send(message)
        reply = yield reply_event
        return reply

    # -- receiving -----------------------------------------------------------

    def deliver(self, message: Message) -> None:
        """Called by the machine when the network delivers a message.
        Charges receive overhead in handler context, then dispatches."""
        if message.dst != self.proc:
            raise SimulationError(
                f"node {self.proc} received message for {message.dst}")
        if self.tracer.sink.enabled:
            self.tracer.emit("msg.recv", msg=message.msg_id,
                             src=message.src,
                             dst=message.dst, kind=message.kind.value,
                             data_bytes=message.data_bytes)
        # Message overhead + handler_charge + schedule inlined: this
        # runs once per received message.  Identical arithmetic and
        # accounting; the queue insert mirrors Simulator.schedule
        # exactly (same ``now + delay`` float arithmetic, same
        # sequence numbering).
        per_byte = (self._oh_per_byte_lazy if message.lazy
                    else self._oh_per_byte)
        cycles = self._oh_scale * (self._oh_fixed
                                   + message.size_bytes * per_byte)
        sim = self.sim
        now = sim.now
        busy = self._handler_busy_until
        start = now if now > busy else busy
        done = start + cycles
        self._handler_busy_until = done
        self._interrupt_cycles += cycles
        self.ins.overhead_cycles.value += cycles
        delay = done - now
        sim._seq = seq = sim._seq + 1
        if delay == 0.0:
            sim._ready.append((seq, self._dispatch, (message,)))
        else:
            heappush(sim._queue,
                     (now + delay, seq, self._dispatch, (message,)))

    def _dispatch(self, message: Message) -> None:
        if self._down:
            self._crash_rx_log.append(message)
            return
        tracing = self.tracer.sink.enabled
        if tracing:
            self._trace_cause = message.msg_id
        if message.reply_to is not None:
            event = self._pending_replies.pop(message.reply_to, None)
            if event is None:
                raise SimulationError(
                    f"unexpected reply {message} (no pending request)")
            if tracing:
                self.tracer.emit("sched.wake", node=self.proc,
                                 kind="reply", cause=message.msg_id)
            event.succeed(message)
            return
        self.handlers[message.kind](message)

    def __repr__(self) -> str:
        return f"<Node {self.proc}>"
