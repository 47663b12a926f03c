"""API surface details: touch, single-word helpers, read isolation."""

import numpy as np
import pytest

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig


def make_machine(protocol="lh", nprocs=2):
    return Machine(MachineConfig(nprocs=nprocs,
                                 network=NetworkConfig.atm()),
                   protocol=protocol)


def run(machine, worker):
    return machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))


def test_touch_faults_pages_without_reading():
    machine = make_machine()
    words = machine.config.words_per_page
    seg = machine.allocate("x", words * 2, owner=0)

    def worker(api, proc):
        if proc == 1:
            yield from api.touch(seg, 0, words * 2)
        yield from api.compute(1)

    run(machine, worker)
    # Node 1 now holds valid copies of both pages.
    for page in seg.pages:
        assert machine.nodes[1].pagetable.get(page).valid


def test_read_returns_copy_not_view():
    """Mutating the array a read returned must not corrupt the page."""
    machine = make_machine(nprocs=1)
    seg = machine.allocate("x", 16, init=np.arange(16, dtype=float))

    def worker(api, proc):
        data = yield from api.read_region(seg, 0, 16)
        data[:] = -1.0  # caller-side scribble
        again = yield from api.read_region(seg, 0, 16)
        return again.tolist()

    result = run(machine, worker)
    assert result.app_result[0] == list(range(16))


def test_single_word_helpers_round_trip():
    machine = make_machine(nprocs=1)
    seg = machine.allocate("x", 8)

    def worker(api, proc):
        yield from api.write(seg, 3, 2.5)
        value = yield from api.read(seg, 3)
        return value

    result = run(machine, worker)
    assert result.app_result == [2.5]


def test_out_of_segment_access_rejected():
    machine = make_machine(nprocs=1)
    seg = machine.allocate("x", 8)

    def worker(api, proc):
        yield from api.read(seg, 8)

    with pytest.raises(IndexError):
        run(machine, worker)


def test_now_property_tracks_simulated_time():
    machine = make_machine(nprocs=1)
    machine.allocate("x", 8)
    times = []

    def worker(api, proc):
        times.append(api.now)
        yield from api.compute(123.0)
        times.append(api.now)

    run(machine, worker)
    assert times == [0.0, 123.0]


def test_page_values_debug_helper():
    """A node's view of a page is its page table's copy: the owner
    holds the initial values, a node that never touched it none."""
    machine = make_machine(nprocs=2)
    seg = machine.allocate("x", 8, init=np.arange(8, dtype=float),
                           owner=0)
    assert machine.nodes[0].pagetable.get(seg.first_page).values[3] == 3.0
    assert machine.nodes[1].pagetable.get(seg.first_page) is None
