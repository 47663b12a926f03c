"""The lock grant's consistency hand-off, unit by unit.

Most grants in a lock-heavy run are empty (a queue-lock poll that
wrote nothing): the granter has no interval the requester lacks, so
the grant carries no records and no diffs.  Such a grant must only
move the acquirer's clock — no notice incorporation, no diff store, no
page resolution — under every lazy protocol.  And the granter no
longer folds the requester's clock in on the spot: it *observes* it,
and the fold happens at the next ``peer_clock`` read, which must give
the value the eager merge gave, across a crash checkpoint too.
"""

import random

import pytest

from repro.core import Machine, MachineConfig, NetworkConfig
from repro.mem.checkpoint import checkpoint_node, restore_node, wipe_node
from repro.mem.intervals import WriteNotice
from repro.mem.timestamps import VectorClock
from repro.protocols.base import ConsistencyInfo

NPROCS = 4


def make_machine(protocol):
    machine = Machine(MachineConfig(nprocs=NPROCS,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    # Striped: node 0 holds pages 0 and 4.
    machine.allocate("seg", machine.config.words_per_page * 2 * NPROCS)
    return machine


def _forbid(protocol, *names):
    """Make each named protocol method raise if it is called."""
    def refuse(name):
        def call(*_args, **_kwargs):
            raise AssertionError(f"empty grant called {name}")
        return call
    for name in names:
        setattr(protocol, name, refuse(name))


def _state(node):
    """Everything an empty grant must leave alone on the acquirer."""
    copies = {page: (copy.valid, list(copy.pending_notices),
                     bytes(copy.buffer))
              for page, copy in node.pagetable.copies.items()}
    return (copies, len(node.interval_log), len(node.diff_store),
            {page: dict(bucket) for page, bucket
             in node.protocol.orphan_notices.items()},
            node.ins.diffs_applied.value, node.ins.invalidations.value,
            node.ins.notices_received.value)


@pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec"])
def test_empty_grant_only_merges_the_clock(protocol):
    machine = make_machine(protocol)
    acquirer, granter = machine.nodes[0], machine.nodes[1]
    # The granter's clock is ahead, but it holds no interval the
    # acquirer lacks: its grant carries nothing.
    granter.vc = VectorClock((0, 0, 3, 1))
    info, data = granter.protocol.grant_payload(0, acquirer.vc,
                                                lock_id=0)
    assert (info.records, info.diffs) == ([], [])
    assert data == 0 and type(data) is int
    # A stray notice and an invalid copy: state a page resolution
    # would have acted on.
    stray = WriteNotice(page=0, proc=2, index=5,
                        vc=VectorClock((0, 0, 5, 0)))
    acquirer.pagetable.get(0).add_notice(stray)
    acquirer.pagetable.get(4).valid = False
    before = _state(acquirer)
    acquirer.vc = VectorClock((2, 0, 1, 0))
    _forbid(acquirer.protocol, "incorporate_records", "store_diffs",
            "resolve_pages")
    assert list(acquirer.protocol.apply_grant(info)) == []
    assert acquirer.vc == VectorClock((2, 0, 3, 1))
    assert _state(acquirer) == before


@pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec"])
def test_grant_with_records_still_resolves(protocol):
    """The empty-grant shortcut must not swallow a real grant."""
    machine = make_machine(protocol)
    acquirer, granter = machine.nodes[0], machine.nodes[1]
    copy = granter.pagetable.get(1)
    copy.values[0] = 7.0
    granter.protocol.record_write(1, 0, 1)
    granter.protocol.seal_interval()
    granter.copysets.add(1, 0)
    info, _data = granter.protocol.grant_payload(0, acquirer.vc,
                                                 lock_id=0)
    assert [r.interval_id for r in info.records] == [(1, 1)]
    resolved = []
    real = acquirer.protocol.resolve_pages

    def spy(pages):
        resolved.append(pages)
        return real(pages)

    acquirer.protocol.resolve_pages = spy
    for _ in acquirer.protocol.apply_grant(info):
        pass
    assert resolved == [[1]]
    assert (1, 1) in acquirer.interval_log
    assert acquirer.vc == VectorClock((0, 1, 0, 0))


def test_consistency_info_is_slotted_and_takes_every_field():
    info = ConsistencyInfo(VectorClock.zero(2), [], [])
    assert not hasattr(info, "__dict__")
    with pytest.raises(TypeError):
        ConsistencyInfo(VectorClock.zero(2))


# -- the granter's view of the requester's clock ---------------------------


def _eager(node, proc, vc):
    """The eager merge a grant used to make on the spot."""
    node.peer_vc[proc] = node.peer_clock(proc).merged(vc)


def _random_clock(rng):
    return VectorClock(tuple(rng.randrange(6) for _ in range(NPROCS)))


@pytest.mark.parametrize("count", [1, 5, 63, 64, 150])
def test_deferred_grant_observations_fold_to_the_eager_merge(count):
    """Grants observe the requester's clock; the fold at the next read
    (or at the 64-entry cap) equals merging at every grant."""
    rng = random.Random(count)
    deferred, eager = make_machine("lh"), make_machine("lh")
    granter, mirror = deferred.nodes[1], eager.nodes[1]
    expected = VectorClock.zero(NPROCS)
    for _ in range(count):
        vc = _random_clock(rng)
        granter.vc = mirror.vc = vc
        granter.protocol.grant_payload(0, VectorClock.zero(NPROCS))
        _eager(mirror, 0, vc)
        expected = expected.merged(vc)
        if rng.random() < 0.1:                # an occasional early read
            assert granter.peer_clock(0) == mirror.peer_clock(0)
    assert granter.peer_clock(0) == expected == mirror.peer_clock(0)


def test_deferred_peer_clock_survives_the_crash_checkpoint():
    """A checkpoint taken with grant observations still pending
    carries the eagerly merged clock: restoring it gives the same
    ``peer_clock``, and the snapshot equals an eager-merging node's."""
    rng = random.Random(7)
    deferred, eager = make_machine("lh"), make_machine("lh")
    node, mirror = deferred.nodes[2], eager.nodes[2]
    for _ in range(20):
        requester = rng.choice([0, 1, 3])
        node.vc = mirror.vc = vc = _random_clock(rng)
        node.protocol.grant_payload(requester, VectorClock.zero(NPROCS))
        _eager(mirror, requester, vc)
    assert any(node._peer_vc_pending)          # still deferred
    snapshot = checkpoint_node(node)
    assert snapshot == checkpoint_node(mirror)
    wipe_node(node)
    restore_node(node, snapshot)
    for proc in range(NPROCS):
        assert node.peer_clock(proc) == mirror.peer_clock(proc)
