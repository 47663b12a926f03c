"""Unit tests for the crash checkpoint (repro.mem.checkpoint).

The contract the lifecycle manager depends on: checkpointing is
read-only, ``checkpoint -> wipe -> restore -> checkpoint`` gives an
equal snapshot, the wipe really erases what the snapshot holds, and
restore keeps the identities of objects that frozen worker
continuations still reference.
"""

import pytest

from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.machine import Machine
from repro.mem.checkpoint import checkpoint_node, restore_node, wipe_node
from repro.mem.intervals import IntervalRecord
from repro.mem.timestamps import VectorClock


#: Small runs of the kernels whose checkpoints the round trip covers.
APPS = {"jacobi": dict(n=16, iterations=2),
        "water": dict(nmols=8, steps=1),
        "cholesky": dict(k=3)}

#: Every protocol whose consistency state the checkpoint saves.
CHECKPOINTABLE = ("li", "lu", "lh", "ec", "ei", "eu")


def machine_after_run(protocol="li", nprocs=2, app="jacobi"):
    """A machine that has completed a small run, so every node holds
    real pages, twins, intervals, diffs, and copyset state."""
    machine = Machine(MachineConfig(nprocs=nprocs,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    machine.run_app(create_app(app, **APPS[app]))
    return machine


def logged(node):
    """The node's log in iteration order, object-free."""
    return [(record.interval_id, record.order)
            for record in node.interval_log._records.values()]


def assert_round_trip(node):
    snapshot = checkpoint_node(node)
    assert checkpoint_node(node) == snapshot  # read-only
    live = logged(node)
    wipe_node(node)
    assert checkpoint_node(node) != snapshot  # wipe really erased
    restore_node(node, snapshot)
    assert checkpoint_node(node) == snapshot
    assert logged(node) == live
    return snapshot


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("protocol", CHECKPOINTABLE)
def test_round_trip_is_byte_identical(protocol, app):
    """Every page's bytes and twin, and every clock, notice, record,
    diff and copyset, come back as they were: the re-checkpoint equals
    the snapshot."""
    machine = machine_after_run(protocol=protocol, app=app)
    for node in machine.nodes:
        assert_round_trip(node)


def test_round_trip_after_interval_gc():
    """A GC'd node (pruned log and diff store) round-trips too, and
    still serves acquirers the records it served before the crash."""
    def records_held(gc_interval):
        machine = Machine(MachineConfig(
            nprocs=4, network=NetworkConfig.ideal(),
            gc_barrier_interval=gc_interval), protocol="lh")
        machine.run_app(create_app("jacobi", n=16, iterations=6))
        return machine, sum(len(node.interval_log)
                            for node in machine.nodes)

    machine, pruned = records_held(1)
    assert pruned < records_held(0)[1]  # GC really pruned
    for node in machine.nodes:
        zero = VectorClock.zero(node.config.nprocs)
        served = node.interval_log.records_after(zero)
        assert_round_trip(node)
        assert node.interval_log.records_after(zero) == served


def test_round_trip_keeps_a_log_out_of_hb1_order():
    """A cold miss reads a page's notices in log order, so a restore
    keeps the log's insertion order even where it is not the
    happened-before-1 extension records sort by."""
    machine = Machine(MachineConfig(nprocs=4,
                                    network=NetworkConfig.ideal()),
                      protocol="li")
    node = machine.nodes[0]
    page = 37  # never allocated: node 0 holds no copy
    later = IntervalRecord(proc=2, index=1, vc=VectorClock((0, 1, 1, 0)),
                           pages=frozenset([page]))
    earlier = IntervalRecord(proc=1, index=1,
                             vc=VectorClock((0, 1, 0, 0)),
                             pages=frozenset([page, page + 1]))
    node.protocol.incorporate_records([later, earlier])
    assert later.order > earlier.order
    assert list(node.interval_log._records) == [(2, 1), (1, 1)]
    notices = node.protocol.logged_notices(page)
    assert [n.interval_id for n in notices] == [(2, 1), (1, 1)]
    assert_round_trip(node)  # the log's iteration order included
    assert node.protocol.logged_notices(page) == notices


def test_gc_threshold_is_saved_wiped_and_restored():
    """The vector time a GC barrier validated (pruned at the next one)
    is node state: a crash erases it and only the checkpoint brings
    it back."""
    machine = Machine(MachineConfig(
        nprocs=4, network=NetworkConfig.ideal(), gc_barrier_interval=1),
        protocol="lh")
    machine.run_app(create_app("jacobi", n=16, iterations=6))
    node = machine.nodes[1]
    threshold = node.protocol._gc_prunable_vc
    assert threshold is not None  # past at least one GC barrier
    snapshot = checkpoint_node(node)
    wipe_node(node)
    assert node.protocol._gc_prunable_vc is None
    restore_node(node, snapshot)
    assert node.protocol._gc_prunable_vc is threshold
    assert checkpoint_node(node) == snapshot


def test_eager_fetch_in_flight_is_saved_wiped_and_restored():
    """An eager node fetching a page holds the page in
    ``_miss_in_flight`` and the flushes that raced the fetch in
    ``_poison_records``; both are wiped by a crash and restored from
    the checkpoint."""
    machine = machine_after_run(protocol="eu")
    node = machine.nodes[1]
    protocol = node.protocol
    zero = VectorClock.zero(node.config.nprocs)
    record = next(record for record in node.interval_log.records_after(zero)
                  if record.proc != node.proc)
    page = min(record.pages)
    diff = node.diff_store.get(record.proc, record.index, page)
    protocol._miss_in_flight.add(page)
    protocol._poison_records[page] = [(record, diff), (record, None)]
    in_flight = set(protocol._miss_in_flight)
    parked = {key: list(value)
              for key, value in protocol._poison_records.items()}
    snapshot = checkpoint_node(node)
    wipe_node(node)
    assert not protocol._miss_in_flight
    assert not protocol._poison_records
    restore_node(node, snapshot)
    assert protocol._miss_in_flight == in_flight
    assert protocol._poison_records == parked
    assert checkpoint_node(node) == snapshot


def test_copyset_wider_than_64_procs_survives():
    machine = Machine(MachineConfig(nprocs=72,
                                    network=NetworkConfig.ideal()),
                      protocol="eu")
    node = machine.nodes[0]
    node.copysets.add(5, 71)
    node.copysets.add(5, 3)
    snapshot = checkpoint_node(node)
    wipe_node(node)
    assert node.copysets.mask(5) == 0
    restore_node(node, snapshot)
    assert node.copysets.mask(5) == 1 << 71 | 1 << 3
    assert node.copysets.believes_cached(5, 71)


def test_restore_preserves_object_identities():
    """Paused continuations hold references to page copies across
    yields; restore must refill those objects, not replace them."""
    machine = machine_after_run()
    node = machine.nodes[0]
    before = dict(node.pagetable.copies)
    values_before = {page: copy.values.copy()
                     for page, copy in before.items()}
    snapshot = checkpoint_node(node)
    wipe_node(node)
    for copy in before.values():
        assert not copy.valid  # wiped in place
    restore_node(node, snapshot)
    for page, copy in node.pagetable.copies.items():
        assert copy is before[page]
        assert (copy.values == values_before[page]).all()


def test_sc_protocol_refuses_checkpoints():
    machine = machine_after_run(protocol="sc")
    with pytest.raises(ValueError):
        checkpoint_node(machine.nodes[0])


def test_crash_faults_reject_sc_at_machine_build():
    from repro.core.config import CrashSpec, FaultConfig
    from repro.sim.engine import SimulationError
    config = MachineConfig(
        nprocs=2, network=NetworkConfig.ideal(),
        faults=FaultConfig(crashes=(CrashSpec(proc=1, at_us=100.0,
                                              down_us=100.0),)))
    with pytest.raises(SimulationError):
        Machine(config, protocol="sc")
