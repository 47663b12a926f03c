"""Additional network-model details: port accounting, latency
composition, message sizing."""

import pytest

from repro.core.config import (MESSAGE_HEADER_BYTES, MachineConfig,
                               NetworkConfig)
from repro.net import build_network
from repro.net.message import Message, MsgKind
from repro.sim import Simulator


def make(network_config, nprocs=4):
    sim = Simulator()
    config = MachineConfig(nprocs=nprocs, network=network_config)
    network = build_network(sim, config)
    delivered = []
    network.attach(lambda msg: delivered.append((sim.now, msg)))
    return sim, config, network, delivered


def msg(src, dst, data=0):
    return Message(src=src, dst=dst, kind=MsgKind.UPDATE_PUSH,
                   data_bytes=data)


def test_transmit_requires_attachment():
    sim = Simulator()
    network = build_network(sim, MachineConfig(nprocs=2))
    with pytest.raises(RuntimeError, match="not attached"):
        network.transmit(msg(0, 1))


def test_atm_full_duplex_ports():
    """A->B and B->C proceed concurrently: a node's input and output
    ports are independent (full duplex), so receiving does not block
    sending."""
    sim, config, network, delivered = make(NetworkConfig.atm(100.0))
    network.transmit(msg(0, 1, data=4096))
    network.transmit(msg(1, 2, data=4096))
    sim.run()
    times = sorted(t for t, _m in delivered)
    assert times[0] == pytest.approx(times[1])
    assert network.stats.contention_cycles == 0.0


def test_latency_added_after_serialization():
    sim, config, network, delivered = make(
        NetworkConfig(kind="atm", bandwidth_mbps=100.0,
                      latency_us=50.0))
    network.transmit(msg(0, 1))
    sim.run()
    wire = config.wire_cycles(MESSAGE_HEADER_BYTES)
    latency = config.us_to_cycles(50.0)
    assert delivered[0][0] == pytest.approx(wire + latency)


def test_message_sizing_header_plus_data():
    message = msg(0, 1, data=1000)
    assert message.size_bytes == MESSAGE_HEADER_BYTES + 1000
    with pytest.raises(ValueError):
        Message(src=0, dst=1, kind=MsgKind.FLUSH, data_bytes=-1)


def test_msgkind_sync_classification():
    from repro.obs import SYNC_MSG_TYPES
    assert SYNC_MSG_TYPES == {
        kind.value for kind in MsgKind
        if kind.name.startswith(("LOCK_", "BARRIER_"))}
    assert MsgKind.PAGE_REPLY.value not in SYNC_MSG_TYPES
    assert MsgKind.UPDATE_PUSH.value not in SYNC_MSG_TYPES


def test_ethernet_queue_resets_when_idle():
    """After the medium drains, the next send pays no backoff."""
    sim, config, network, delivered = make(
        NetworkConfig.ethernet(collisions=True))
    network.transmit(msg(0, 1, data=1024))
    network.transmit(msg(1, 2, data=1024))  # collides
    sim.run()
    collisions_before = network.stats.collisions
    network.transmit(msg(2, 3, data=64))  # idle medium now
    sim.run()
    assert network.stats.collisions == collisions_before


def test_ethernet_backoff_window_capped():
    sim, config, network, delivered = make(
        NetworkConfig.ethernet(collisions=True), nprocs=4)
    for i in range(40):
        network.transmit(msg(i % 4, (i + 1) % 4, data=512))
    sim.run()
    # All messages eventually delivered despite heavy contention.
    assert len(delivered) == 40
    assert network.stats.collisions > 0
