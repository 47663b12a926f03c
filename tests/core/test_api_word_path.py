"""``DsmApi.read`` / ``DsmApi.write`` on one word.

A hit on a valid local copy is served without the region path; every
other case (a miss, an invalidated copy, an SC write, a bad index)
goes through ``read_region`` / ``write_region`` exactly as before, so
it faults through ``ensure_valid`` or raises the region path's
``IndexError``.
"""

import numpy as np
import pytest

from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig


def make_machine(protocol="lh", nprocs=2):
    machine = Machine(MachineConfig(nprocs=nprocs,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    words = machine.config.words_per_page
    seg = machine.allocate("a", 2 * words, init=np.arange(2.0 * words),
                           owner=0)
    return machine, seg


def no_yield(generator):
    """Run an API generator that must complete without blocking."""
    try:
        next(generator)
    except StopIteration as stop:
        return stop.value
    raise AssertionError("the operation blocked")


def spy_ensure_valid(node):
    """Record every ``ensure_valid(page, for_write)`` the node runs."""
    calls = []
    original = node.protocol.ensure_valid

    def ensure_valid(page, for_write):
        calls.append((page, for_write))
        yield from original(page, for_write)

    node.protocol.ensure_valid = ensure_valid
    return calls


def copy_state(machine, proc=0):
    node = machine.nodes[proc]
    return ({page: (bytes(copy.buffer), list(copy.written))
             for page, copy in node.pagetable.copies.items()},
            set(node.protocol._dirty_pages))


# Offsets 3, 1, 2, 3 exercise append, out-of-order splice and re-hit
# of the written-run list; the last two land on the second page.
WRITES = [(3, 1.5), (1, 2), (2, np.float64(-0.0)), (3, 7.25),
          (1024 + 5, -9), (1024 + 6, 1e300)]


def test_word_hits_equal_one_word_region_ops():
    word, region = make_machine(), make_machine()
    word_api = DsmApi(word[0].nodes[0])
    region_api = DsmApi(region[0].nodes[0])
    for index, value in WRITES:
        no_yield(word_api.write(word[1], index, value))
        no_yield(region_api.write_region(region[1], index, index + 1,
                                         np.array([value])))
    assert copy_state(word[0]) == copy_state(region[0])
    for index in [0, 1, 2, 3, 1024 + 5, 1024 + 6, 2047]:
        got = no_yield(word_api.read(word[1], index))
        want = no_yield(region_api.read_region(region[1], index,
                                               index + 1))
        assert type(got) is float and got == float(want[0])


def test_a_hit_builds_no_region_op():
    machine, seg = make_machine()
    api = DsmApi(machine.nodes[0])

    def refuse(*args):
        raise AssertionError("a hit took the region path")

    api.read_region = api.write_region = refuse
    no_yield(api.write(seg, 7, 2.5))
    assert no_yield(api.read(seg, 7)) == 2.5


def test_int_float_and_float64_store_the_same_bits():
    stored = []
    for value in (3, 3.0, np.float64(3.0)):
        machine, seg = make_machine()
        no_yield(DsmApi(machine.nodes[0]).write(seg, 9, value))
        stored.append(copy_state(machine))
    assert stored[0] == stored[1] == stored[2]


@pytest.mark.parametrize("protocol", ["lh", "sc"])
def test_cold_read_and_write_fault_through_ensure_valid(protocol):
    machine, seg = make_machine(protocol)
    calls = spy_ensure_valid(machine.nodes[1])
    first, second = seg.pages
    seen = []

    def worker(api, proc):
        if proc == 1:
            assert not machine.nodes[1].pagetable.copies
            seen.append((yield from api.read(seg, 10)))
            yield from api.write(seg, 1024 + 3, 4.0)
            seen.append((yield from api.read(seg, 1024 + 3)))

    machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert seen == [10.0, 4.0]
    # The read-back after the write is a hit.
    assert calls == [(first, False), (second, True)]


def test_invalidated_page_faults_through_ensure_valid():
    machine, seg = make_machine("li")
    calls = spy_ensure_valid(machine.nodes[1])
    page = seg.first_page
    seen = []

    def worker(api, proc):
        if proc == 1:
            yield from api.read(seg, 0)             # cache the page
        yield from api.barrier(0)
        if proc == 0:
            yield from api.acquire(0)
            yield from api.write(seg, 0, 42.0)
            yield from api.release(0)
        yield from api.barrier(1)
        if proc == 1:
            yield from api.acquire(0)
            assert not machine.nodes[1].pagetable.copies[page].valid
            del calls[:]
            seen.append((yield from api.read(seg, 0)))
            yield from api.release(0)

    machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert seen == [42.0]
    assert calls == [(page, False)]


def test_sc_write_on_a_valid_copy_takes_ownership():
    machine, seg = make_machine("sc")
    calls = spy_ensure_valid(machine.nodes[0])
    page = seg.first_page

    def worker(api, proc):
        if proc == 0:
            assert machine.nodes[0].pagetable.copies[page].valid
            yield from api.write(seg, 5, 6.5)
            return (yield from api.read(seg, 5))

    result = machine.run(lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert result.app_result[0] == 6.5
    assert calls == [(page, True)]


@pytest.mark.parametrize("index", [-1, 2048])
def test_out_of_range_index_raises_the_region_error(index):
    machine, seg = make_machine()
    api = DsmApi(machine.nodes[0])
    message = rf"bad range \[{index},{index + 1}\) in segment 'a'"
    with pytest.raises(IndexError, match=message):
        no_yield(api.read(seg, index))
    with pytest.raises(IndexError, match=message):
        no_yield(api.write(seg, index, 1.0))
