"""Unit tests for the reliable transport (repro.net.transport).

A scripted fault stub stands in for the seeded injector so each test
controls exactly which transmission is dropped, duplicated, or
delayed.
"""

import pytest

from repro.core.config import (MESSAGE_HEADER_BYTES, MachineConfig,
                               NetworkConfig)
from repro.faults.injector import Decision
from repro.net import build_network
from repro.net.message import Message, MsgKind
from repro.net.transport import (JITTER_FRAC, Packet, ReliableTransport,
                                 _Timer)
from repro.obs import Observability
from repro.sim import Simulator


class ScriptedFaults:
    """Pops one pre-scripted verdict per transmission; ``None`` past
    the end of the script (deliver normally)."""

    def __init__(self, script):
        self.script = list(script)
        self.decided = 0

    def decide(self, packet):
        self.decided += 1
        if self.script:
            return self.script.pop(0)
        return None


def harness(script=(), network=None, nprocs=4):
    sim = Simulator()
    config = MachineConfig(nprocs=nprocs,
                           network=network or NetworkConfig.ideal())
    net = build_network(sim, config)
    if script is not None:
        net.attach_faults(ScriptedFaults(script))
    delivered = []
    obs = Observability()
    transport = ReliableTransport(sim, config, net,
                                  delivered.append, obs=obs)
    net.attach(transport.on_network_delivery)
    return sim, transport, delivered, obs.registry


def msg(src=0, dst=1, data=0):
    return Message(src=src, dst=dst, kind=MsgKind.PAGE_REPLY,
                   data_bytes=data)


def test_fault_free_messages_arrive_in_order_exactly_once():
    sim, transport, delivered, registry = harness()
    sent = [msg(data=i) for i in (10, 20, 30)]
    for m in sent:
        transport.send(m)
    sim.run()
    assert delivered == sent
    assert transport.in_flight() == 0
    assert registry.total("transport.retransmits_total") == 0
    assert registry.total("transport.delivered_total") == 3
    # With no reverse traffic the receiver owed pure acks.
    assert registry.total("transport.acks_sent_total") >= 1


def test_dropped_packet_is_retransmitted_and_delivered_once():
    sim, transport, delivered, registry = harness(
        script=[Decision(drop=True)])
    message = msg()
    transport.send(message)
    sim.run()
    assert delivered == [message]
    assert transport.in_flight() == 0
    assert registry.total("transport.retransmits_total") == 1
    assert registry.total("transport.timeout_fires_total") == 1
    assert registry.total("faults.drops_total") == 0  # stub, not injector


def test_every_packet_dropped_n_times_still_delivers():
    sim, transport, delivered, registry = harness(
        script=[Decision(drop=True)] * 4)
    message = msg()
    transport.send(message)
    sim.run()
    assert delivered == [message]
    assert registry.total("transport.retransmits_total") == 4
    # Recovery time of the retransmitted packet was observed.
    recovery = registry.get("transport.recovery_cycles").labels()
    assert recovery.count == 1


def test_duplicate_is_suppressed():
    sim, transport, delivered, registry = harness(
        script=[Decision(duplicate=True)])
    message = msg()
    transport.send(message)
    sim.run()
    assert delivered == [message]
    assert registry.total("transport.duplicates_suppressed_total") == 1
    assert registry.total("transport.delivered_total") == 1


def test_reordered_packet_is_buffered_and_released_in_order():
    # First packet held back long enough that the second overtakes it.
    sim, transport, delivered, registry = harness(
        script=[Decision(extra_delay=50_000.0)])
    first, second = msg(data=1), msg(data=2)
    transport.send(first)
    transport.send(second)
    sim.run()
    assert delivered == [first, second]
    assert registry.total("transport.out_of_order_total") == 1


def test_reverse_traffic_piggybacks_the_ack():
    sim, transport, delivered, registry = harness(script=[])
    transport.send(msg(src=0, dst=1))

    # Reply shortly after delivery, well inside the ack delay.
    def reply():
        transport.send(msg(src=1, dst=0))
    sim.schedule(transport.ack_delay / 4, reply)
    sim.run()
    assert registry.total("transport.acks_piggybacked_total") == 1
    assert transport.in_flight() == 0


def test_retransmission_timeout_backs_off_exponentially():
    sim, transport, delivered, registry = harness(
        script=[Decision(drop=True)] * 3)
    transport.send(msg())
    fires = []
    original = ReliableTransport._on_timeout

    def spy(self, stream, timer):
        fires.append(sim.now)
        original(self, stream, timer)

    ReliableTransport._on_timeout = spy
    try:
        sim.run()
    finally:
        ReliableTransport._on_timeout = original
    assert len(fires) == 3
    gaps = [b - a for a, b in zip(fires, fires[1:])]
    # Jitter stretches each arm by at most JITTER_FRAC, far less than
    # the 2x backoff, so consecutive gaps must still grow.
    assert gaps[1] > gaps[0] * 1.5


def test_ack_loss_triggers_retransmit_then_dup_suppression():
    # Script: data arrives (None), its pure ack is dropped; the
    # retransmitted copy is a duplicate at the receiver.
    sim, transport, delivered, registry = harness(
        script=[None, Decision(drop=True)])
    message = msg()
    transport.send(message)
    sim.run()
    assert delivered == [message]
    assert transport.in_flight() == 0
    assert registry.total("transport.retransmits_total") == 1
    assert registry.total("transport.duplicates_suppressed_total") == 1


def test_streams_are_per_directed_pair():
    sim, transport, delivered, registry = harness(script=[])
    transport.send(msg(src=0, dst=1))
    transport.send(msg(src=0, dst=2))
    transport.send(msg(src=3, dst=1))
    sim.run()
    assert len(delivered) == 3
    # Three distinct forward streams, each starting at seq 0.
    assert transport._stream(0, 1).next_seq == 1
    assert transport._stream(0, 2).next_seq == 1
    assert transport._stream(3, 1).next_seq == 1


def test_transport_counts_wire_packets_not_protocol_messages():
    sim, transport, delivered, registry = harness(
        script=[Decision(drop=True)])
    transport.send(msg())
    sim.run()
    sent = registry.total("transport.packets_sent_total")
    received = registry.total("transport.packets_received_total")
    data = registry.total("transport.data_packets_total")
    assert data == 1
    # original + retransmit + final pure ack
    assert sent == 3
    assert received == 2  # the dropped copy never arrived


def test_rto_backoff_is_capped_by_absolute_maximum():
    """A long-dead peer must not drive the retransmit interval
    unbounded: after the exponential ramp, every probe interval stays
    at or below the ceiling (plus jitter)."""
    sim = Simulator()
    config = MachineConfig(nprocs=2, network=NetworkConfig.ideal())
    net = build_network(sim, config)
    net.attach_faults(ScriptedFaults([Decision(drop=True)] * 10))
    delivered = []
    obs = Observability()
    transport = ReliableTransport(sim, config, net, delivered.append,
                                  obs=obs)
    # A 1 ms base under a 4 ms ceiling reaches the cap after two
    # doublings, so the ten drops below spend most probes at it.
    transport.rto_cycles = config.us_to_cycles(1_000.0)
    transport.rto_max_cycles = config.us_to_cycles(4_000.0)
    net.attach(transport.on_network_delivery)
    transport.send(msg())
    fires = []
    original = ReliableTransport._on_timeout

    def spy(self, stream, timer):
        fires.append(sim.now)
        original(self, stream, timer)

    ReliableTransport._on_timeout = spy
    try:
        sim.run()
    finally:
        ReliableTransport._on_timeout = original
    assert delivered  # the 11th attempt finally got through
    gaps = [b - a for a, b in zip(fires, fires[1:])]
    cap = transport.rto_max_cycles * (1.0 + JITTER_FRAC)
    assert max(gaps) <= cap * 1.0001
    # The ramp really hit the ceiling: without the cap, ten doublings
    # of a 1 ms base would dwarf it.
    assert sum(1 for g in gaps if g > cap / 4) >= 3
    # Probes at the cap are the peer-death suspicion signal.
    assert obs.registry.total(
        "transport.peer_down_timeouts_total") > 0


@pytest.mark.parametrize("cancel", [True, False],
                         ids=["cancelled", "live"])
def test_timer_dispatches_like_a_one_callback_timer(cancel):
    """A transport timer is a flagged heap entry, not an Event, yet it
    costs the dispatches the Timer it replaced did: a cancelled one is
    its fire alone, a live one its fire plus the handler hop."""
    reference = Simulator()
    timer = reference.timer(5.0)
    timer.add_callback(lambda _event: None)
    if cancel:
        timer.cancel()
    reference.run()

    sim, transport, _delivered, _registry = harness(script=[])
    stream = transport._stream(0, 1)
    flag = _Timer()
    sim.schedule(5.0, transport._fire, flag, stream, False)
    if cancel:
        flag.cancelled = True
    sim.run()
    assert sim.processed_events == reference.processed_events
    assert sim.processed_events == (1 if cancel else 2)


def test_packet_fields_are_fixed_from_its_payload():
    message = msg(src=2, dst=3, data=100)
    packet = Packet(2, 3, 0, -1, message)
    assert (packet.size_bytes, packet.data_bytes, packet.kind,
            packet.msg_id) == (message.size_bytes, message.data_bytes,
                               message.kind, message.msg_id)
    ack = Packet(3, 2, -1, 0, None)
    assert ack.size_bytes == MESSAGE_HEADER_BYTES
    assert ack.data_bytes == 0
    assert ack.kind is MsgKind.TRANSPORT_ACK
    assert ack.msg_id is None
