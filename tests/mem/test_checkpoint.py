"""Unit tests for the RCKP crash checkpoint (repro.mem.checkpoint).

The contract the lifecycle manager depends on: checkpointing is
read-only, ``checkpoint -> wipe -> restore -> checkpoint`` is
byte-identical, restore keeps the identities of objects that frozen
worker continuations still reference, and corrupt or mismatched blobs
are rejected loudly instead of half-restoring a node.
"""

import pytest

from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.machine import Machine
from repro.mem.checkpoint import (CheckpointError, checkpoint_node,
                                  restore_node, wipe_node)


#: Small runs of the kernels whose checkpoints the round trip covers.
APPS = {"jacobi": dict(n=16, iterations=2),
        "water": dict(nmols=8, steps=1),
        "cholesky": dict(k=3)}

#: Every protocol whose consistency state RCKP serializes.
CHECKPOINTABLE = ("li", "lu", "lh", "ec", "ei", "eu")


def machine_after_run(protocol="li", nprocs=2, app="jacobi"):
    """A machine that has completed a small run, so every node holds
    real pages, twins, intervals, diffs, and copyset state."""
    machine = Machine(MachineConfig(nprocs=nprocs,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    machine.run_app(create_app(app, **APPS[app]))
    return machine


@pytest.mark.parametrize("app", sorted(APPS))
@pytest.mark.parametrize("protocol", CHECKPOINTABLE)
def test_round_trip_is_byte_identical(protocol, app):
    machine = machine_after_run(protocol=protocol, app=app)
    for node in machine.nodes:
        blob = checkpoint_node(node)
        assert checkpoint_node(node) == blob  # read-only
        live = {record.interval_id: record.order
                for record in node.interval_log.all_records()}
        wipe_node(node)
        assert checkpoint_node(node) != blob  # wipe really erased
        restore_node(node, blob)
        assert checkpoint_node(node) == blob
        restored = {record.interval_id: record.order
                    for record in node.interval_log.all_records()}
        assert restored == live


def test_restore_preserves_object_identities():
    """Paused continuations hold references to page copies across
    yields; restore must refill those objects, not replace them."""
    machine = machine_after_run()
    node = machine.nodes[0]
    before = dict(node.pagetable.copies)
    values_before = {page: copy.values.copy()
                     for page, copy in before.items()}
    blob = checkpoint_node(node)
    wipe_node(node)
    for copy in before.values():
        assert not copy.valid  # wiped in place
    restore_node(node, blob)
    for page, copy in node.pagetable.copies.items():
        assert copy is before[page]
        assert (copy.values == values_before[page]).all()


def test_restore_rejects_corrupt_and_mismatched_blobs():
    machine = machine_after_run()
    node = machine.nodes[0]
    blob = checkpoint_node(node)
    with pytest.raises(CheckpointError):
        restore_node(node, b"JUNK" + blob[4:])
    with pytest.raises(CheckpointError):
        restore_node(node, blob[:len(blob) // 2])
    with pytest.raises(CheckpointError):
        restore_node(node, blob + b"\x00")
    # Node identity is part of the header: a peer's blob is rejected.
    with pytest.raises(CheckpointError):
        restore_node(machine.nodes[1], blob)


def test_sc_protocol_refuses_checkpoints():
    machine = machine_after_run(protocol="sc")
    with pytest.raises(CheckpointError):
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
