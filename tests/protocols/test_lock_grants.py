"""The lock grant's consistency hand-off, unit by unit.

Most grants in a lock-heavy run are empty (a queue-lock poll that
wrote nothing): the granter has no interval the requester lacks, so
the grant carries no records and no diffs.  Such a grant must only
move the acquirer's clock — no notice incorporation, no diff store, no
page resolution — under every lazy protocol.  And the granter keeps
one int per peer, not the peer's clock: ``peer_seen[requester]`` is
the highest of the granter's own intervals the requester has been
granted.
"""

import random

import pytest

from repro.core import Machine, MachineConfig, NetworkConfig
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
    """The empty-grant shortcut must not swallow a real grant.  LI and
    LU resolve its pages through ``resolve_pages``; LH and EC apply it
    in one pass, so their cells check the effect: the piggybacked diff
    is applied to the acquirer's copy."""
    machine = make_machine(protocol)
    acquirer, granter = machine.nodes[0], machine.nodes[1]
    copy = granter.pagetable.get(1)
    copy.values[0] = 7.0
    granter.protocol.record_write(1, 0, 1)
    granter.protocol.seal_interval()
    granter.copysets.add(1, 0)
    if protocol == "ec":
        # EC ships exactly the diffs of the lock's bound pages.
        words = machine.config.words_per_page
        machine.bind_lock(0, machine.address_space._segments["seg"],
                          words, 2 * words)
    info, _data = granter.protocol.grant_payload(0, acquirer.vc,
                                                 lock_id=0)
    assert [r.interval_id for r in info.records] == [(1, 1)]
    if protocol in ("lh", "ec"):
        assert [iid for iid, _diff in info.diffs] == [(1, 1)]
        acquirer.pagetable.install(1, valid=True)
        for _ in acquirer.protocol.apply_grant(info):
            pass
        held = acquirer.pagetable.get(1)
        assert held.valid and held.values[0] == 7.0
        assert held.applied[1] == 1
        assert held.pending_notices == []
    else:
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


# -- the granter's knowledge of the requester ------------------------------


def _random_clock(rng):
    return VectorClock(tuple(rng.randrange(6) for _ in range(NPROCS)))


@pytest.mark.parametrize("count", [1, 5, 63, 64, 150])
def test_grants_keep_the_highest_granter_component(count):
    """Each grant observes the granter's clock on the requester's
    behalf: ``peer_seen[requester]`` is the max of ``vc[granter]`` over
    every grant to it, at every read, in the same list."""
    rng = random.Random(count)
    granter = make_machine("lh").nodes[1]
    seen = granter.peer_seen
    expected = [0] * NPROCS
    for _ in range(count):
        requester = rng.choice([0, 2, 3])
        granter.vc = vc = _random_clock(rng).incremented(1)
        granter.protocol.grant_payload(requester,
                                       VectorClock.zero(NPROCS))
        expected[requester] = max(expected[requester], vc[1])
        assert granter.peer_seen == expected
    assert any(expected)
    assert granter.peer_seen is seen
