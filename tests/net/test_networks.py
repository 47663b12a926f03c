"""Unit tests for the Ethernet, ATM, and ideal network models."""

import pytest

from repro.core.config import (MESSAGE_HEADER_BYTES, MachineConfig,
                               NetworkConfig)
from repro.net import build_network
from repro.net.message import Message, MsgKind
from repro.sim import Simulator


def make(kind_config, nprocs=4, cpu_mhz=40.0):
    sim = Simulator()
    config = MachineConfig(nprocs=nprocs, cpu_mhz=cpu_mhz,
                           network=kind_config)
    network = build_network(sim, config)
    delivered = []
    network.attach(lambda msg: delivered.append((sim.now, msg)))
    return sim, config, network, delivered


def msg(src, dst, data=0):
    return Message(src=src, dst=dst, kind=MsgKind.PAGE_REPLY,
                   data_bytes=data)


def test_build_network_rejects_unknown_kind():
    sim = Simulator()
    config = MachineConfig(nprocs=2,
                           network=NetworkConfig(kind="carrier-pigeon"))
    with pytest.raises(ValueError):
        build_network(sim, config)


def test_message_to_self_rejected():
    with pytest.raises(ValueError):
        msg(1, 1)


def test_destination_out_of_range_rejected():
    sim, config, network, _ = make(NetworkConfig.ideal())
    with pytest.raises(ValueError, match="dst 99"):
        network.transmit(msg(0, 99))


@pytest.mark.parametrize("model", [NetworkConfig.ideal,
                                   NetworkConfig.atm,
                                   NetworkConfig.ethernet])
@pytest.mark.parametrize("src,dst,named", [
    (-1, 0, "src -1"), (4, 0, "src 4"), (0, -1, "dst -1"),
    (0, 4, "dst 4")])
def test_endpoint_out_of_range_rejected(model, src, dst, named):
    """Both ends are checked on every model; a negative source used
    to index the ATM port table from the end and book node
    nprocs-1's output port."""
    sim, config, network, delivered = make(model())
    with pytest.raises(ValueError, match=named):
        network.transmit(msg(src, dst))
    assert network.stats.messages == 0
    sim.run()
    assert delivered == []


def test_transmit_before_attach_rejected():
    sim = Simulator()
    network = build_network(
        sim, MachineConfig(nprocs=2, network=NetworkConfig.atm()))
    with pytest.raises(RuntimeError, match="not attached"):
        network.transmit(msg(0, 1))


def test_attach_nodes_delivers_to_the_destination_callback():
    sim, config, network, shared = make(NetworkConfig.ideal())
    inboxes = [[] for _ in range(config.nprocs)]
    network.attach_nodes([inbox.append for inbox in inboxes])
    first, second = msg(0, 2), msg(3, 1)
    network.transmit(first)
    network.transmit(second)
    sim.run()
    assert inboxes == [[], [second], [first], []]
    assert shared == []
    with pytest.raises(ValueError, match="3 delivery callbacks"):
        network.attach_nodes(inboxes[:3])


def test_stats_counted_before_attach_obs_carry_into_the_registry():
    from repro.obs import Observability
    sim, config, network, _ = make(NetworkConfig.atm())
    network.transmit(msg(0, 1, data=100))
    obs = Observability()
    network.attach_obs(obs)
    network.transmit(msg(1, 2, data=50))
    assert network.stats.messages == 2
    assert obs.registry.total("net.messages_total") == 2
    assert obs.registry.total("net.data_bytes_total") == 150
    with pytest.raises(AttributeError):
        network.stats.messages = 0


def test_ideal_network_fixed_latency_no_contention():
    sim, config, network, delivered = make(
        NetworkConfig(kind="ideal", bandwidth_mbps=1e9, latency_us=1.0))
    latency = config.us_to_cycles(1.0)
    network.transmit(msg(0, 1))
    network.transmit(msg(2, 3))
    sim.run()
    assert [t for t, _m in delivered] == [latency, latency]


class TestAtm:
    def test_wire_time_matches_bandwidth(self):
        sim, config, network, delivered = make(NetworkConfig.atm(100.0))
        message = msg(0, 1, data=4096 - MESSAGE_HEADER_BYTES)
        expected = config.wire_cycles(4096) + network.latency_cycles
        network.transmit(message)
        sim.run()
        assert delivered[0][0] == pytest.approx(expected)

    def test_disjoint_pairs_do_not_contend(self):
        sim, config, network, delivered = make(NetworkConfig.atm(100.0))
        network.transmit(msg(0, 1, data=4096))
        network.transmit(msg(2, 3, data=4096))
        sim.run()
        assert delivered[0][0] == pytest.approx(delivered[1][0])
        assert network.stats.contention_cycles == 0.0

    def test_common_destination_serializes(self):
        sim, config, network, delivered = make(NetworkConfig.atm(100.0))
        wire = config.wire_cycles(msg(0, 1, data=4096).size_bytes)
        network.transmit(msg(0, 1, data=4096))
        network.transmit(msg(2, 1, data=4096))
        sim.run()
        times = sorted(t for t, _m in delivered)
        assert times[1] - times[0] == pytest.approx(wire)
        assert network.stats.contention_cycles == pytest.approx(wire)

    def test_common_source_serializes(self):
        sim, config, network, delivered = make(NetworkConfig.atm(100.0))
        network.transmit(msg(0, 1, data=4096))
        network.transmit(msg(0, 2, data=4096))
        sim.run()
        times = sorted(t for t, _m in delivered)
        assert times[1] > times[0]


class TestEthernet:
    def test_all_transfers_serialize(self):
        sim, config, network, delivered = make(
            NetworkConfig.ethernet(collisions=False))
        network.transmit(msg(0, 1, data=4096))
        network.transmit(msg(2, 3, data=4096))
        sim.run()
        times = sorted(t for t, _m in delivered)
        wire = config.wire_cycles(msg(0, 1, data=4096).size_bytes)
        assert times[1] - times[0] == pytest.approx(wire)
        assert network.stats.contention_cycles > 0

    def test_collisions_add_backoff(self):
        def total_time(collisions):
            sim, config, network, delivered = make(
                NetworkConfig.ethernet(collisions=collisions))
            for i in range(8):
                network.transmit(msg(i % 4, (i + 1) % 4, data=1024))
            sim.run()
            return max(t for t, _m in delivered)

        assert total_time(True) > total_time(False)

    def test_collision_count_recorded(self):
        sim, config, network, delivered = make(
            NetworkConfig.ethernet(collisions=True))
        for i in range(4):
            network.transmit(msg(0, 1, data=1024))
        sim.run()
        assert network.stats.collisions == 3

    def test_backoff_window_tracks_live_contention(self):
        """Regression: the contender count must drop again when a
        modelled transmission ends.  The old code only reset the
        counter on a fully idle medium, so a long burst ratcheted the
        backoff window up monotonically (windows 1,2,3,...) even
        though only one other station was ever actually contending."""
        sim, config, network, delivered = make(
            NetworkConfig.ethernet(collisions=True))
        windows = []

        class Recorder:
            def uniform(self, low, high):
                windows.append(high)
                return 0.0  # no backoff: keeps the timeline exact

        network._rng = Recorder()
        wire = config.wire_cycles(msg(0, 1, data=1024).size_bytes)
        # One send at t=0, then one new arrival during each successive
        # transmission: at any instant at most two stations contend.
        for k in range(1, 4):
            sim.schedule((k - 0.5) * wire, network.transmit,
                         msg(k % 4, (k + 1) % 4, data=1024))
        network.transmit(msg(0, 1, data=1024))
        sim.run()
        assert len(delivered) == 4
        # First waiter sees 1 contender; afterwards the finished
        # sender's slot has been released, so the window stays at 2
        # instead of ratcheting to 3.
        assert windows == [1, 2, 2]
        assert network._queued == 0

    def test_idle_medium_no_penalty(self):
        sim, config, network, delivered = make(
            NetworkConfig.ethernet(collisions=True))
        network.transmit(msg(0, 1))
        sim.run()
        wire = config.wire_cycles(MESSAGE_HEADER_BYTES)
        assert delivered[0][0] == pytest.approx(
            wire + network.latency_cycles)


def test_stats_accumulate_bytes_and_data():
    sim, config, network, delivered = make(NetworkConfig.atm())
    network.transmit(msg(0, 1, data=100))
    network.transmit(msg(1, 2, data=50))
    sim.run()
    assert network.stats.messages == 2
    assert network.stats.data_bytes_sent == 150
    assert network.stats.bytes_sent == 150 + 2 * MESSAGE_HEADER_BYTES


def test_cpu_speed_scales_wire_cycles():
    slow = MachineConfig(nprocs=2, cpu_mhz=20.0)
    fast = MachineConfig(nprocs=2, cpu_mhz=80.0)
    assert fast.wire_cycles(4096) == pytest.approx(
        4 * slow.wire_cycles(4096))
