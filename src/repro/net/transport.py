"""Reliable, exactly-once, in-order transport over a lossy network.

The five DSM protocols were written against a perfect network: one
lost message deadlocks a lock chain, a duplicated diff corrupts a
page, a reordered grant breaks the happens-before order.  This layer
sits between the nodes and the network model and restores those
guarantees — like the user-level reliable transports real DSM systems
build over raw interconnect primitives — so that under injected
faults every protocol still terminates with correct application
results, just more slowly.

Mechanism (per directed node pair, TCP-flavoured but simpler):

- **Sequence numbers** — the sender stamps each protocol message with
  a per-destination sequence number.
- **Cumulative acks, piggybacked** — every data packet carries the
  highest in-order sequence number received on the reverse stream;
  when no reverse traffic appears within ``ACK_DELAY_US``, a pure
  ``TRANSPORT_ACK`` packet (header-sized) is sent instead.
- **Timeout retransmission** — the sender re-sends the oldest
  unacknowledged packet when its retransmission timer fires; the
  timeout grows with the packet's wire time, backs off exponentially
  per consecutive expiry, and is stretched by seeded jitter so
  synchronized losers do not retransmit in lockstep.
- **Receiver reassembly** — in-order packets are delivered up
  immediately; out-of-order packets are buffered until the gap fills;
  duplicates (from injected duplication or spurious retransmission)
  are suppressed.

Both timers (retransmission and delayed ack) are flagged heap
entries, not :class:`repro.sim.events.Timer` events: a :class:`_Timer`
record holds only a ``cancelled`` flag, and its scheduled fire
(:meth:`ReliableTransport._fire`) takes exactly the dispatches a
``Timer`` with one callback would — one if cancelled, two if live.

The transport is modelled at NIC level: retransmissions, acks, and
duplicate suppression cost *wire* resources but no node CPU — the
nodes' software-overhead accounting stays exactly the paper's.  When
faults are disabled the machine bypasses this module entirely, so
fault-free runs are bit-for-bit identical to a build without it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.config import MESSAGE_HEADER_BYTES, MachineConfig
from repro.core.rng import substream
from repro.net.message import Message, MsgKind
from repro.sim.engine import Simulator

# Timer tuning.  docs/robustness.md "Transport tuning" gives each
# value's reason, including the sweep behind the 10 ms RTO.
RTO_US = 10_000.0          # base timeout before any RTT sample
RTO_BACKOFF = 2.0          # multiplier per consecutive expiry
MAX_BACKOFF_EXP = 6        # backoff stops growing after 2**6
RTO_MAX_US = 2_000_000.0   # absolute ceiling, applied before jitter
ACK_DELAY_US = 200.0       # wait for reverse data before a pure ack
JITTER_FRAC = 0.1          # each arm stretched by up to 10 %


class Packet:
    """Transport envelope: one protocol message (or a pure ack) plus
    sequencing metadata.  Carries the fields the network models read
    (``src``/``dst``/``size_bytes``/``data_bytes``/``kind``/
    ``msg_id``), copied from the payload at construction; a pure ack
    is header-sized, ``TRANSPORT_ACK``, with ``msg_id`` None.  Only
    ``ack`` and ``attempts`` change after construction.  The transport
    header rides inside the fixed message header."""

    __slots__ = ("src", "dst", "seq", "ack", "payload", "attempts",
                 "first_sent", "size_bytes", "data_bytes", "kind",
                 "msg_id")

    def __init__(self, src: int, dst: int, seq: int, ack: int,
                 payload: Optional[Message],
                 first_sent: float = 0.0) -> None:
        self.src = src
        self.dst = dst
        self.seq = seq            # -1 for pure acks
        self.ack = ack            # cumulative ack for the reverse stream
        self.payload = payload    # None for pure acks
        self.attempts = 0         # retransmissions so far
        self.first_sent = first_sent
        if payload is None:
            self.size_bytes = MESSAGE_HEADER_BYTES
            self.data_bytes = 0
            self.kind = MsgKind.TRANSPORT_ACK
            self.msg_id = None
        else:
            self.size_bytes = payload.size_bytes
            self.data_bytes = payload.data_bytes
            self.kind = payload.kind
            self.msg_id = payload.msg_id

    def __repr__(self) -> str:
        what = "ack" if self.payload is None else repr(self.payload)
        return (f"<Pkt {self.src}->{self.dst} seq={self.seq} "
                f"ack={self.ack} {what}>")


class _Timer:
    """One armed transport timer: the argument its heap entry carries.
    The entry cannot be removed, so cancelling sets ``cancelled`` and
    the scheduled fire becomes a no-op (lazy cancellation)."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False


class _Stream:
    """State of one directed stream ``src -> dst``: the sender side
    lives at ``src``, the receiver side at ``dst`` (the transport
    object is machine-global, so both halves sit in one record)."""

    __slots__ = ("src", "dst",
                 # sender side
                 "next_seq", "unacked", "timer", "backoff_exp",
                 "srtt", "rttvar",
                 # receiver side
                 "expected", "buffer", "ack_pending", "ack_timer")

    def __init__(self, src: int, dst: int) -> None:
        self.src = src
        self.dst = dst
        self.next_seq = 0
        # Insertion-ordered by seq and contiguous: sends append
        # next_seq, cumulative acks remove a prefix.
        self.unacked: Dict[int, Packet] = {}
        self.timer: Optional[_Timer] = None
        self.backoff_exp = 0
        self.srtt = None      # smoothed RTT (cycles), RFC 6298-style
        self.rttvar = 0.0
        self.expected = 0
        self.buffer: Dict[int, Packet] = {}
        self.ack_pending = False
        self.ack_timer: Optional[_Timer] = None


class ReliableTransport:
    """Exactly-once, in-order delivery for all node pairs."""

    def __init__(self, sim: Simulator, config: MachineConfig, network,
                 deliver: Callable[[Message], None],
                 obs=None, tracer=None) -> None:
        self.sim = sim
        self.config = config
        self.network = network
        self._deliver_up = deliver
        self.tracer = tracer
        self.rto_cycles = config.us_to_cycles(RTO_US)
        self.rto_max_cycles = config.us_to_cycles(RTO_MAX_US)
        # Set by the machine when crash faults are enabled; lets the
        # transport idle streams whose sender is down and reset
        # sessions when a peer rejoins.
        self.lifecycle = None
        self.ack_delay = config.us_to_cycles(ACK_DELAY_US)
        fault_seed = config.faults.seed
        seed = fault_seed if fault_seed is not None else config.seed
        self._jitter_rng = substream(seed, "transport.jitter")
        self._streams: Dict[Tuple[int, int], _Stream] = {}
        if obs is None:
            from repro.obs import Observability
            obs = Observability()
        self.attach_obs(obs)

    def attach_obs(self, obs) -> None:
        """Bind the ``transport.*`` cells (all label-free) as
        attributes: the per-packet paths write ``cell.value += 1``."""
        from repro.obs import ROBUSTNESS_CATALOG, install
        registry = obs.registry
        install(registry, ROBUSTNESS_CATALOG)

        def cell(name):
            return registry.get(f"transport.{name}").labels()

        self._sent = cell("packets_sent_total")
        self._received = cell("packets_received_total")
        self._data = cell("data_packets_total")
        self._retx = cell("retransmits_total")
        self._timeouts = cell("timeout_fires_total")
        self._acks = cell("acks_sent_total")
        self._piggyback = cell("acks_piggybacked_total")
        self._dups = cell("duplicates_suppressed_total")
        self._ooo = cell("out_of_order_total")
        self._delivered = cell("delivered_total")
        self._recovery = cell("recovery_cycles")
        self._peer_down = cell("peer_down_timeouts_total")
        self._resets = cell("session_resets_total")

    def _stream(self, src: int, dst: int) -> _Stream:
        """The stream ``src -> dst``.  A stream and its reverse open
        together, so any packet finds both directions of its pair."""
        streams = self._streams
        stream = streams.get((src, dst))
        if stream is None:
            stream = streams[(src, dst)] = _Stream(src, dst)
            streams[(dst, src)] = _Stream(dst, src)
        return stream

    def _cumulative_ack(self, src: int, dst: int) -> int:
        """Highest in-order seq received on stream ``src -> dst``
        (that state lives at ``dst``); -1 when nothing arrived yet."""
        return self._streams[(src, dst)].expected - 1

    # -- timers ---------------------------------------------------------

    def _fire(self, timer: _Timer, stream: _Stream,
              retransmit: bool) -> None:
        """A transport timer's expiry.  A cancelled timer's fire does
        nothing; a live one appends one ready entry that runs the
        handler — the dispatch sequence of ``Event.succeed`` waking one
        callback.  The handler is looked up now, not when the timer was
        armed."""
        if timer.cancelled:
            return
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, self._on_timeout if retransmit
                           else self._flush_ack, (stream, timer)))

    # -- sending --------------------------------------------------------

    def send(self, message: Message) -> None:
        """Entry point for node sends (replaces raw network.transmit)."""
        src = message.src
        dst = message.dst
        streams = self._streams
        stream = streams.get((src, dst))
        if stream is None:
            stream = self._stream(src, dst)
        reverse = streams[(dst, src)]
        # The cumulative ack this packet carries: the highest in-order
        # seq received on the reverse stream (-1: nothing yet).
        seq = stream.next_seq
        packet = Packet(src, dst, seq, reverse.expected - 1, message,
                        self.sim.now)
        stream.next_seq = seq + 1
        stream.unacked[seq] = packet
        self._data.value += 1
        if (self.lifecycle is not None
                and self.lifecycle.is_down(src)):
            # A handler completion scheduled before the crash landed
            # after it: queue the packet but keep the NIC silent.  The
            # session reset on recovery retransmits it.
            return
        # Piggyback: this data packet carries the ack the reverse
        # stream may have owed, so cancel any pending pure ack.
        if reverse.ack_pending:
            reverse.ack_pending = False
            if reverse.ack_timer is not None:
                reverse.ack_timer.cancelled = True
                reverse.ack_timer = None
            self._piggyback.value += 1
        if stream.timer is None:
            self._arm(stream)
        self._sent.value += 1
        self.network.transmit(packet)

    def _transmit(self, packet: Packet) -> None:
        """Retransmit ``packet`` (``send`` and the pure-ack flush
        inline these two lines)."""
        self._sent.value += 1
        self.network.transmit(packet)

    # -- retransmission timer -------------------------------------------

    def _rto(self, stream: _Stream, packet: Packet) -> float:
        """Current retransmission timeout for ``packet``.

        With RTT samples in hand: ``srtt + 4 * rttvar`` plus this
        packet's own round trip of wire time (a page transfer is much
        longer on the wire than the small packets most samples come
        from), floored at the configured base.  Before any sample:
        the base plus two wire round trips — deliberately generous,
        since a spurious retransmission costs real contention on a
        shared medium.  Backoff and jitter are applied on top."""
        wire_round_trip = 2.0 * self.config.wire_cycles(
            packet.size_bytes)
        if stream.srtt is None:
            base = self.rto_cycles + 2.0 * wire_round_trip
        else:
            base = max(self.rto_cycles,
                       stream.srtt + 4.0 * stream.rttvar
                       + wire_round_trip)
        exponent = min(stream.backoff_exp, MAX_BACKOFF_EXP)
        # Absolute ceiling: a long-dead peer must not drive the probe
        # interval unbounded — cap the backed-off base, then jitter on
        # top so capped probes stay de-synchronized across streams.
        delay = min(base * (RTO_BACKOFF ** exponent),
                    self.rto_max_cycles)
        return delay * (1.0 + JITTER_FRAC * self._jitter_rng.random())

    def _arm(self, stream: _Stream) -> None:
        oldest = next(iter(stream.unacked.values()))
        timer = stream.timer = _Timer()
        self.sim.schedule(self._rto(stream, oldest), self._fire,
                          timer, stream, True)

    def _on_timeout(self, stream: _Stream, timer: _Timer) -> None:
        if stream.timer is not timer:
            return  # stale fire (ack re-armed a fresh timer)
        stream.timer = None
        if not stream.unacked:
            return
        if (self.lifecycle is not None
                and self.lifecycle.is_down(stream.src)):
            # Sender is down: its NIC is dead, so no retransmit, no
            # backoff, no counting — just keep the timer chain alive
            # until recovery resets the session.
            self._arm(stream)
            return
        self._timeouts.value += 1
        stream.backoff_exp += 1
        if stream.backoff_exp > MAX_BACKOFF_EXP:
            # Repeated expiries at the backoff cap are the sender's
            # peer-death suspicion signal (probing a silent peer).
            self._peer_down.value += 1
        oldest = next(iter(stream.unacked.values()))
        oldest.attempts += 1
        # Refresh the piggybacked ack to the latest receiver state.
        oldest.ack = self._cumulative_ack(stream.dst, stream.src)
        self._retx.value += 1
        if self.tracer is not None and self.tracer.sink.enabled:
            self.tracer.emit("transport.retx", src=stream.src,
                             dst=stream.dst, seq=oldest.seq,
                             attempt=oldest.attempts)
        self._transmit(oldest)
        self._arm(stream)

    # -- receiving ------------------------------------------------------

    def on_network_delivery(self, packet: Packet) -> None:
        """Attached as the network's delivery callback."""
        self._received.value += 1
        src = packet.src
        dst = packet.dst
        streams = self._streams
        # 1. The piggybacked ack acknowledges the reverse stream.  The
        # packet's send opened both directions of the pair.
        reverse = streams[(dst, src)]
        if reverse.unacked:
            self._process_ack(reverse, packet.ack)
        payload = packet.payload
        if payload is None:
            return
        # 2. Sequence handling for the forward stream.
        stream = streams[(src, dst)]
        seq = packet.seq
        if seq == stream.expected:
            stream.expected += 1
            self._delivered.value += 1
            self._deliver_up(payload)
            buffer = stream.buffer
            while stream.expected in buffer:
                queued = buffer.pop(stream.expected)
                stream.expected += 1
                self._delivered.value += 1
                self._deliver_up(queued.payload)
        elif seq > stream.expected:
            if seq in stream.buffer:
                self._dups.value += 1
            else:
                stream.buffer[seq] = packet
                self._ooo.value += 1
        else:
            # Already delivered: a duplicate (injected, or a
            # retransmission whose ack was lost).  Re-ack so the
            # sender stops retrying.
            self._dups.value += 1
        # 3. Owe the sender an ack, delayed in the hope that reverse
        # data piggybacks it first.
        stream.ack_pending = True
        if stream.ack_timer is None:
            timer = stream.ack_timer = _Timer()
            self.sim.schedule(self.ack_delay, self._fire, timer, stream,
                              False)

    def _process_ack(self, stream: _Stream, ack: int) -> None:
        """Cumulative ack for ``stream`` (which has unacked packets),
        processed at the sender.  RTT samples follow RFC 6298 and
        Karn's rule: a retransmitted packet's ack is ambiguous, so it
        feeds the recovery histogram instead."""
        unacked = stream.unacked
        first = next(iter(unacked))
        if first > ack:
            return
        now = self.sim.now
        for seq in range(first, ack + 1):
            packet = unacked.pop(seq)
            sample = now - packet.first_sent
            if packet.attempts:
                self._recovery.observe(sample)
            elif stream.srtt is None:
                stream.srtt = sample
                stream.rttvar = sample / 2.0
            else:
                stream.rttvar = (0.75 * stream.rttvar
                                 + 0.25 * abs(stream.srtt - sample))
                stream.srtt = 0.875 * stream.srtt + 0.125 * sample
        stream.backoff_exp = 0
        if stream.timer is not None:
            stream.timer.cancelled = True
            stream.timer = None
        if unacked:
            self._arm(stream)

    def _flush_ack(self, stream: _Stream, timer: Optional[_Timer]) -> None:
        if stream.ack_timer is not timer:
            return
        stream.ack_timer = None
        if not stream.ack_pending:
            return
        stream.ack_pending = False
        ack_packet = Packet(stream.dst, stream.src, -1,
                            stream.expected - 1, None)
        self._acks.value += 1
        self._sent.value += 1
        self.network.transmit(ack_packet)

    # -- crash recovery -------------------------------------------------

    def on_node_recovered(self, proc: int) -> None:
        """Session reset when ``proc`` rejoins after a crash.

        Every stream touching ``proc`` restarts its retransmission
        state: backoff returns to zero (the old RTO reflected a dead
        peer, not the path), the oldest unacked packet goes out
        immediately — queued sends from the recovered node, and peers'
        packets dropped at the dead NIC, bridge the outage here — and
        any ack the recovered receiver owed is flushed at once."""
        for stream in self._streams.values():
            if proc not in (stream.src, stream.dst):
                continue
            reset = False
            stream.backoff_exp = 0
            if stream.unacked:
                reset = True
                if stream.timer is not None:
                    stream.timer.cancelled = True
                    stream.timer = None
                oldest = next(iter(stream.unacked.values()))
                oldest.attempts += 1
                oldest.ack = self._cumulative_ack(stream.dst,
                                                  stream.src)
                self._retx.value += 1
                self._transmit(oldest)
                self._arm(stream)
            if stream.dst == proc and stream.ack_pending:
                reset = True
                self._flush_ack(stream, stream.ack_timer)
            if reset:
                self._resets.value += 1

    # -- introspection --------------------------------------------------

    def in_flight(self) -> int:
        """Unacknowledged packets across all streams (tests)."""
        return sum(len(stream.unacked)
                   for stream in self._streams.values())
