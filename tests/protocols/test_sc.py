"""The sequentially-consistent single-writer baseline ('sc')."""

import numpy as np
import pytest

from repro.apps import Cholesky, Jacobi, Tsp, Water
from repro.core import (DsmApi, Machine, MachineConfig, NetworkConfig,
                        run_app)


def make_machine(nprocs=4):
    return Machine(MachineConfig(nprocs=nprocs,
                                 network=NetworkConfig.atm()),
                   protocol="sc")


def run(machine, worker):
    return machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))


def test_lock_protected_counter():
    machine = make_machine()
    seg = machine.allocate("counter", 16)

    def worker(api, proc):
        for _ in range(3):
            yield from api.acquire(0)
            value = yield from api.read(seg, 0)
            yield from api.write(seg, 0, value + 1)
            yield from api.release(0)
        yield from api.barrier(0)
        return (yield from api.read(seg, 0))

    result = run(machine, worker)
    assert result.app_result == [12.0] * 4


def test_single_writer_no_stale_reads_without_sync():
    """SC's defining strength: a committed write is visible to the
    very next read anywhere, no synchronization required."""
    machine = make_machine(nprocs=2)
    seg = machine.allocate("flag", 8)
    observed = []

    def worker(api, proc):
        if proc == 0:
            yield from api.write(seg, 0, 42.0)
            yield from api.barrier(0)
        else:
            yield from api.barrier(0)
            value = yield from api.read(seg, 0)
            observed.append(value)

    run(machine, worker)
    assert observed == [42.0]


def test_false_sharing_ping_pong():
    """The RC motivation: two writers of different words of one page
    transfer the whole page back and forth under SC."""
    machine = make_machine(nprocs=2)
    seg = machine.allocate("page", 32, owner=0)
    rounds = 6

    def worker(api, proc):
        for step in range(rounds):
            yield from api.write(seg, proc * 8, float(step))
            yield from api.barrier(0)  # force strict alternation

    result = run(machine, worker)
    # Each round bounces exclusive ownership of the page: at least one
    # whole-page transfer per round after the first.
    transfers = result.registry.total("dsm.page_transfers_total")
    assert transfers >= rounds - 1
    assert result.data_kbytes >= transfers * 4  # whole pages each time


@pytest.mark.parametrize("app_factory", [
    lambda: Jacobi(n=24, iterations=3),
    lambda: Tsp(ncities=7),
    lambda: Water(nmols=12, steps=1),
    lambda: Cholesky(k=3),
])
def test_applications_correct_under_sc(app_factory):
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(app_factory(), config, protocol="sc")
    assert result.elapsed_cycles > 0


def test_sc_moves_more_data_than_lh_on_false_sharing():
    """The headline comparison: multiple-writer RC vs single-writer SC
    on Water's falsely-shared force array."""
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    sc = run_app(Water(nmols=16, steps=1), config, protocol="sc")
    lh = run_app(Water(nmols=16, steps=1), config, protocol="lh")
    assert sc.data_kbytes > 2 * lh.data_kbytes
    assert sc.elapsed_cycles > lh.elapsed_cycles


def test_sc_single_processor_free():
    result = run_app(Jacobi(n=16, iterations=2),
                     MachineConfig(nprocs=1), protocol="sc")
    assert result.total_messages == 0
