"""The entry-consistency-flavored protocol ('ec', Midway-style)."""

import pytest

from repro.apps import Cholesky, Tsp, Water
from repro.core import (DsmApi, Machine, MachineConfig, NetworkConfig,
                        run_app)


def make_machine(nprocs=4):
    return Machine(MachineConfig(nprocs=nprocs,
                                 network=NetworkConfig.atm()),
                   protocol="ec")


def test_bound_data_travels_with_the_lock():
    """A properly annotated counter migrates on grants: after the
    first fault, reacquisitions cause no access misses."""
    machine = make_machine(nprocs=4)
    seg = machine.allocate("counter", 16)
    machine.bind_lock(0, seg)

    def worker(api, proc):
        for _ in range(4):
            yield from api.acquire(0)
            value = yield from api.read(seg, 0)
            yield from api.write(seg, 0, value + 1)
            yield from api.release(0)
        yield from api.barrier(0)
        return (yield from api.read(seg, 0))

    result = machine.run(
        lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert result.app_result == [16.0] * 4
    # One cold fault per node at most; afterwards grants carry the data.
    assert result.access_misses <= machine.config.nprocs


def test_unbound_data_falls_back_to_invalidation():
    """Without a binding, grants carry notices only: every hop faults
    (the annotation burden the paper notes EC imposes)."""
    machine = make_machine(nprocs=4)
    seg = machine.allocate("counter", 16)  # no bind_lock on purpose

    def worker(api, proc):
        for _ in range(4):
            yield from api.acquire(0)
            value = yield from api.read(seg, 0)
            yield from api.write(seg, 0, value + 1)
            yield from api.release(0)
        yield from api.barrier(0)
        return (yield from api.read(seg, 0))

    result = machine.run(
        lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert result.app_result == [16.0] * 4
    # Faults on most hops.
    assert result.access_misses > machine.config.nprocs


def test_binding_restricts_payload_to_the_locks_data():
    """Lock A's grant must not haul lock B's pages around."""
    machine = make_machine(nprocs=2)
    words = machine.config.words_per_page
    seg_a = machine.allocate("a", words)
    seg_b = machine.allocate("b", words)
    machine.bind_lock(0, seg_a)
    machine.bind_lock(1, seg_b)
    (page_a, _lo, _hi), = seg_a.page_ranges(0, 1)
    (page_b, _lo, _hi), = seg_b.page_ranges(0, 1)
    # Every grant node 0 gives: (lock, records' pages, diffs' pages).
    grants = []
    granter = machine.nodes[0].protocol
    real_grant_payload = granter.grant_payload

    def spy(requester, requester_vc, lock_id=None):
        info, data = real_grant_payload(requester, requester_vc,
                                        lock_id=lock_id)
        grants.append((lock_id,
                       {page for r in info.records for page in r.pages},
                       [diff.page for _iid, diff in info.diffs]))
        return info, data

    granter.grant_payload = spy

    def worker(api, proc):
        if proc == 0:
            yield from api.acquire(0)
            yield from api.write(seg_a, 0, 1.0)
            yield from api.release(0)
            yield from api.acquire(1)
            yield from api.write(seg_b, 0, 2.0)
            yield from api.release(1)
            return None
        # Ask for lock 0 only once node 0 has released both locks, so
        # the grant's records name both pages (no barrier in between
        # to deliver them first).
        yield from api.compute(50_000_000)
        yield from api.acquire(0)  # should carry seg_a data only
        value = yield from api.read(seg_a, 0)
        yield from api.release(0)
        return value

    result = machine.run(
        lambda p: worker(DsmApi(machine.nodes[p]), p))
    assert result.app_result[1] == 1.0
    assert grants == [(0, {page_a, page_b}, [page_a])]


@pytest.mark.parametrize("app_factory", [
    lambda: Tsp(ncities=7),
    lambda: Water(nmols=12, steps=1),
    lambda: Cholesky(k=3),
])
def test_annotated_apps_correct_under_ec(app_factory):
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    result = run_app(app_factory(), config, protocol="ec")
    assert result.elapsed_cycles > 0


def test_ec_beats_lh_on_misses_for_annotated_water():
    """The EC promise: with exact annotations, lock transfers carry
    exactly the right data, so access misses do not exceed LH's
    copyset-heuristic misses."""
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm())
    ec = run_app(Water(nmols=24, steps=2), config, protocol="ec")
    lh = run_app(Water(nmols=24, steps=2), config, protocol="lh")
    assert ec.access_misses <= lh.access_misses * 1.5
    assert ec.data_kbytes <= lh.data_kbytes * 1.2
