"""Tests for the multithreading extension (paper section 8)."""

import pytest

from repro.analysis.extensions import multithreading_study
from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig


def test_threads_share_one_cpu():
    """Two compute-only threads on one node serialize: elapsed equals
    the sum of their compute, not the max."""
    machine = Machine(MachineConfig(nprocs=1,
                                    network=NetworkConfig.ideal()))
    machine.allocate("x", 8)

    def worker(proc, thread):
        api = DsmApi(machine.nodes[proc])

        def body():
            yield from api.compute(10_000)
        return body()

    result = machine.run(worker, threads_per_proc=2)
    assert result.elapsed_cycles == pytest.approx(20_000.0)


def test_intra_node_lock_handoff_is_message_free():
    """Two threads of one node exchanging a lock never touch the
    network."""
    machine = Machine(MachineConfig(nprocs=2,
                                    network=NetworkConfig.ideal()))
    seg = machine.allocate("x", 8)
    counts = []

    def worker(proc, thread):
        api = DsmApi(machine.nodes[proc])

        def body():
            if proc != 0:
                yield from api.compute(1)
                return None
            for _ in range(3):
                yield from api.acquire(0)  # lock 0 owned by proc 0
                value = yield from api.read(seg, 0)
                yield from api.write(seg, 0, value + 1)
                yield from api.release(0)
            return None
        return body()

    result = machine.run(worker, threads_per_proc=2)
    assert result.total_messages == 0
    copy = machine.nodes[0].pagetable.get(seg.first_page)
    assert copy.values[0] == 6.0


def test_bad_thread_count_rejected():
    machine = Machine(MachineConfig(nprocs=1))
    with pytest.raises(ValueError):
        machine.run(lambda p: None, threads_per_proc=0)


def test_multithreading_study_shape():
    study = multithreading_study(nprocs=4, thread_counts=(1, 2),
                                 scale="small")
    assert set(study) == {1, 2}
    for row in study.values():
        assert row["elapsed_cycles"] > 0
        assert row["messages"] > 0
