"""Unit tests for the master-based barrier protocol."""

import pytest

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig
from repro.net.message import MsgKind


def make_machine(nprocs=4, protocol="li"):
    return Machine(MachineConfig(nprocs=nprocs,
                                 network=NetworkConfig.ideal()),
                   protocol=protocol)


def run(machine, worker):
    return machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))


def test_barrier_synchronizes_time():
    """No node proceeds past the barrier before the slowest arrives."""
    machine = make_machine()
    machine.allocate("x", 8)
    after = {}

    def worker(api, proc):
        yield from api.compute(1000 * (proc + 1))
        yield from api.barrier(0)
        after[proc] = api.now

    run(machine, worker)
    slowest_arrival = 4000.0
    assert all(t >= slowest_arrival for t in after.values())


def test_barrier_message_count_is_2n_minus_2():
    machine = make_machine(nprocs=6)
    machine.allocate("x", 8)

    def worker(api, proc):
        yield from api.barrier(0)

    result = run(machine, worker)
    by_kind = result.registry.by_label("dsm.messages_total",
                                       "msg_type")
    assert by_kind[MsgKind.BARRIER_ARRIVE.value] == 5
    assert by_kind[MsgKind.BARRIER_DEPART.value] == 5
    assert result.total_messages == 10


def test_single_processor_barrier_is_free():
    machine = make_machine(nprocs=1)
    machine.allocate("x", 8)

    def worker(api, proc):
        yield from api.barrier(0)
        yield from api.barrier(0)

    result = run(machine, worker)
    assert result.total_messages == 0


def test_same_barrier_reused_across_episodes():
    machine = make_machine(nprocs=3)
    machine.allocate("x", 8)
    ticks = []

    def worker(api, proc):
        for episode in range(4):
            yield from api.compute(100 * (proc + 1))
            yield from api.barrier(7)
            ticks.append((episode, proc, api.now))

    run(machine, worker)
    # Within one episode every node departs at >= the episode's
    # slowest arrival; episodes are totally ordered.
    by_episode = {}
    for episode, _proc, t in ticks:
        by_episode.setdefault(episode, []).append(t)
    previous_max = -1.0
    for episode in range(4):
        times = by_episode[episode]
        assert len(times) == 3
        assert min(times) > previous_max
        previous_max = max(times)


def test_different_barriers_have_different_masters():
    """Barrier ids spread across masters (bid mod nprocs)."""
    machine = make_machine(nprocs=4)
    assert machine.barrier_master(0) == 0
    assert machine.barrier_master(5) == 1
    assert machine.barrier_master(7) == 3


def test_master_can_arrive_first_or_last():
    """Works whether the master (proc 0 for barrier 0) is the first
    or the last to arrive."""
    for master_delay in (1, 10_000):
        machine = make_machine(nprocs=3)
        machine.allocate("x", 8)

        def worker(api, proc, master_delay=master_delay):
            delay = master_delay if proc == 0 else 5_000
            yield from api.compute(delay)
            yield from api.barrier(0)
            return api.now

        result = run(machine, worker)
        times = result.app_result
        assert max(times) - min(times) < 100_000


def test_barrier_wait_time_recorded():
    machine = make_machine(nprocs=2)
    machine.allocate("x", 8)

    def worker(api, proc):
        yield from api.compute(100 if proc == 0 else 100_000)
        yield from api.barrier(0)

    result = run(machine, worker)
    waits = result.registry.by_label("sync.barrier_wait_cycles", "node")
    assert waits["0"] > 90_000
    assert waits["1"] < 20_000
