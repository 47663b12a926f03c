"""The sequentially-consistent single-writer baseline ('sc')."""

import numpy as np
import pytest

from repro.apps import Cholesky, Jacobi, Tsp, Water, create_app
from repro.core import (DsmApi, Machine, MachineConfig, NetworkConfig,
                        run_app)
from repro.core.config import FaultConfig
from repro.net.message import Message, MsgKind
from repro.protocols.base import ProtocolError


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


# -- grants overtaken by the next transaction ------------------------------
#
# The manager commits a transaction when the old owner acks the
# hand-over, not when the requester has the page, so the next
# transaction's messages can reach the requester before its grant does
# (they travel on the manager's stream, the grant on the old owner's).


def handle(node, message):
    """Dispatch ``message`` on ``node`` as delivery does, through the
    node's handler table."""
    node.handlers[message.kind](message)


def _page_of(machine, value):
    """Page 0 (managed by node 0) and a page image of ``value``."""
    seg = machine.allocate("data", 8, owner=0)
    words = machine.nodes[0].pagetable.words_per_page
    return seg.pages[0], np.full(words, value).tobytes()


def test_an_invalidation_that_overtakes_a_read_grant_revokes_it():
    """A reader whose read grant is still in flight is invalidated by
    the next write transaction: the late grant is a stale copy, so it
    installs nothing and wakes the fault, which faults again."""
    machine = make_machine()
    page, image = _page_of(machine, 3.0)
    reader = machine.nodes[2]
    fault = reader.protocol._fault_done[page] = machine.sim.event("fault")
    handle(reader, Message(
        src=0, dst=2, kind=MsgKind.FLUSH, payload={"sc_invalidate": page}))
    handle(reader, Message(
        src=1, dst=2, kind=MsgKind.PAGE_REPLY,
        payload={"sc_grant": page, "write": False, "values": image}))
    assert reader.pagetable.get(page) is None
    assert page not in reader.protocol.mode
    assert fault.triggered
    # The revocation is spent: the retried fault's grant installs.
    handle(reader, Message(
        src=1, dst=2, kind=MsgKind.PAGE_REPLY,
        payload={"sc_grant": page, "write": False, "values": image}))
    assert reader.pagetable.get(page).valid
    assert reader.protocol.mode[page] == "read"


def test_a_fetch_that_overtakes_a_write_grant_waits_for_it():
    """The new owner still holds its old read copy when the next
    transaction's fetch arrives.  Served then, it would hand over that
    stale copy and the grant would install a second writable one: the
    fetch waits for the grant and ships the granted page."""
    machine = make_machine()
    page, granted = _page_of(machine, 5.0)
    manager, owner = machine.nodes[0], machine.nodes[3]
    owner.pagetable.install(page, valid=True)   # its old read copy
    owner.protocol._fault_done[page] = machine.sim.event("fault")
    fetch = Message(src=0, dst=3, kind=MsgKind.DIFF_REQ,
                    payload={"sc_fetch": page, "relinquish": True})
    reply = manager.expect_reply(fetch)
    handle(owner, fetch)
    machine.sim.run()
    assert not reply.triggered
    assert owner.pagetable.get(page).valid
    handle(owner, Message(
        src=1, dst=3, kind=MsgKind.PAGE_REPLY,
        payload={"sc_grant": page, "write": True, "values": granted}))
    machine.sim.run_until(reply)
    assert reply.value.payload["values"] == granted
    assert not owner.pagetable.get(page).valid
    assert page not in owner.protocol.mode


def test_an_owner_read_down_still_serves_while_it_faults_to_write():
    """An owner whose copy a reader's transaction turned read-only,
    and which now waits to write, is still the owner: the forward of
    the transaction ahead of its own is served at once."""
    machine = make_machine()
    page, granted = _page_of(machine, 7.0)
    manager, owner = machine.nodes[0], machine.nodes[3]
    owner.protocol._fault_done[page] = machine.sim.event("write fault")
    handle(owner, Message(
        src=1, dst=3, kind=MsgKind.PAGE_REPLY,
        payload={"sc_grant": page, "write": True, "values": granted}))
    owner.protocol.mode[page] = "read"          # read down
    owner.protocol._fault_done[page] = machine.sim.event("write fault")
    forward = Message(src=0, dst=3, kind=MsgKind.PAGE_FWD,
                      payload={"sc": True, "page": page, "requester": 2,
                               "write": False})
    acked = manager.expect_reply(forward)
    handle(owner, forward)
    machine.sim.run()
    assert acked.triggered
    assert machine.nodes[2].pagetable.get(page).values[0] == 7.0
    assert owner.pagetable.get(page).valid


# -- a manager's read fetch reads the owner down ------------------------------


def test_a_read_fetch_reads_the_owner_down():
    """The manager's own read fetch leaves the owner a readable copy
    it may no longer write: its next write faults for ownership, as
    after a forwarded read (``_serve_forward``)."""
    machine = make_machine()
    page, image = _page_of(machine, 2.0)
    manager, owner = machine.nodes[0], machine.nodes[3]
    owner.pagetable.install(page, values=image, valid=True)
    owner.protocol.mode[page] = "write"
    owner.protocol._owned.add(page)
    fetch = Message(src=0, dst=3, kind=MsgKind.DIFF_REQ,
                    payload={"sc_fetch": page, "relinquish": False})
    reply = manager.expect_reply(fetch)
    handle(owner, fetch)
    machine.sim.run_until(reply)
    assert reply.value.payload["values"] == image
    copy = owner.pagetable.get(page)
    assert copy.valid and owner.protocol.mode[page] == "read"
    assert owner.protocol.is_hit(page, copy, for_write=False)
    assert not owner.protocol.is_hit(page, copy, for_write=True)
    with pytest.raises(ProtocolError, match="without ownership"):
        owner.protocol.record_write(page, 0, 1)


def test_kvstore_counters_survive_crash_recover_outages():
    """Under these outages node 0, managing key 1's page, fetches it
    for reading from node 2, which owns it and writes key 1 after the
    fetch.  Left writable, node 2's write never reaches node 0's copy,
    so node 0's final read of the counter returns 0 where the schedule
    wants 1 (kvstore's ``finish`` checks every key's counter)."""
    config = MachineConfig(
        nprocs=4, network=NetworkConfig.atm(),
        faults=FaultConfig(seed=7, crash_mttf_us=2000, crash_mttr_us=300,
                           crash_horizon_us=20000))
    app = create_app("kvstore", nkeys=16, value_words=8, shards=4,
                     requests=60)
    result = run_app(app, config, protocol="sc")
    assert all(result.finish_times)
