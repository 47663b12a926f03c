"""Unit tests for protocol building blocks: interval sealing, notice
incorporation, concurrent-last-modifier analysis, copyset upkeep, the
eager release flush and the lazy lock grant driven node by node."""

import json

import numpy as np
import pytest

from repro.apps import create_app
from repro.core import Machine, MachineConfig, NetworkConfig
from repro.mem.diffs import Diff
from repro.mem.intervals import IntervalRecord, WriteNotice
from repro.mem.timestamps import VectorClock
from repro.net.message import Message, MsgKind
from repro.obs import MemorySink, Observability, Tracer
from repro.protocols.base import ConsistencyInfo, ProtocolError


def make_node(protocol="lh", nprocs=4, pages=4):
    machine = Machine(MachineConfig(nprocs=nprocs,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol)
    # Striped: page p is homed at node p % nprocs.
    machine.allocate("seg", machine.config.words_per_page * pages)
    return machine, machine.nodes[0]


def record(proc, index, vc_components, pages, nprocs=4):
    return IntervalRecord(proc=proc, index=index,
                          vc=VectorClock(vc_components),
                          pages=frozenset(pages))


class TestSealing:
    def test_seal_noop_when_clean(self):
        machine, node = make_node()
        assert node.protocol.seal_interval() == 0.0
        assert node.vc == VectorClock.zero(4)

    def test_seal_creates_diff_and_record(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        copy.values[3] = 9.0
        node.protocol.record_write(0, 3, 4)
        cost = node.protocol.seal_interval()
        assert cost == node.diff_creation_cost()
        assert node.vc[0] == 1
        assert node.diff_store.has(0, 1, 0)
        assert (0, 1) in node.interval_log
        rec = node.interval_log.get((0, 1))
        assert rec.pages == {0}
        assert node.protocol.unpropagated[(0, 1)] == {0}
        assert not copy.dirty
        assert copy.is_applied(0, 1)

    def test_seal_covers_multiple_pages_in_one_interval(self):
        machine, node = make_node()
        for page in (0, 1):
            copy = node.pagetable.get(page) or \
                node.pagetable.install(page)
            copy.valid = True
            node.protocol.record_write(page, 0, 2)
        cost = node.protocol.seal_interval()
        assert cost == 2 * node.diff_creation_cost()
        assert node.vc[0] == 1
        assert node.interval_log.get((0, 1)).pages == {0, 1}

    def test_single_proc_seal_skips_diffs(self):
        machine, node = make_node(nprocs=1)
        copy = node.pagetable.get(0)
        node.protocol.record_write(0, 0, 4)
        assert node.protocol.seal_interval() == 0.0
        assert len(node.diff_store) == 0
        assert not copy.dirty


class TestIncorporate:
    def test_new_record_attaches_notices(self):
        machine, node = make_node()
        rec = record(proc=1, index=1, vc_components=(0, 1, 0, 0),
                     pages=[0])
        node.protocol.incorporate_records([rec])
        copy = node.pagetable.get(0)
        assert [n.interval_id for n in copy.pending_notices] == [(1, 1)]
        assert node.copysets.believes_cached(0, 1)

    def test_duplicate_record_ignored(self):
        machine, node = make_node()
        rec = record(1, 1, (0, 1, 0, 0), [0])
        node.protocol.incorporate_records([rec])
        node.protocol.incorporate_records([rec])
        assert len(node.pagetable.get(0).pending_notices) == 1

    def test_own_records_skipped(self):
        machine, node = make_node()
        rec = record(0, 1, (1, 0, 0, 0), [0])
        node.protocol.incorporate_records([rec])
        assert node.pagetable.get(0).pending_notices == []

    def test_uncached_page_notice_stays_in_the_log(self):
        machine, node = make_node()
        # Page 37 was never allocated/cached at node 0.
        rec = record(1, 1, (0, 1, 0, 0), [37])
        node.protocol.incorporate_records([rec])
        assert node.pagetable.get(37) is None
        assert [n.interval_id for n in
                node.protocol.logged_notices(37)] == [(1, 1)]


class TestConcurrentLastModifiers:
    def make(self):
        return make_node()[1].protocol

    def notice(self, proc, index, vc):
        return WriteNotice(page=0, proc=proc, index=index,
                           vc=VectorClock(vc))

    def test_single_writer_chain_collapses_to_latest(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(1, 2, (0, 2, 0, 0)),
                   self.notice(2, 1, (0, 2, 1, 0))]  # saw 1's writes
        assert proto.concurrent_last_modifiers(notices) == [2]

    def test_truly_concurrent_writers_all_reported(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(2, 1, (0, 0, 1, 0)),
                   self.notice(3, 2, (0, 0, 0, 2))]
        assert proto.concurrent_last_modifiers(notices) == [1, 2, 3]

    def test_mixed_chain_and_concurrent(self):
        proto = self.make()
        notices = [self.notice(1, 1, (0, 1, 0, 0)),
                   self.notice(2, 1, (0, 1, 1, 0)),  # after 1's
                   self.notice(3, 1, (0, 0, 0, 1))]  # concurrent
        assert proto.concurrent_last_modifiers(notices) == [2, 3]


class TestDueNotices:
    def test_notice_outside_cone_not_due(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        ahead = WriteNotice(page=0, proc=1, index=3,
                            vc=VectorClock((0, 3, 0, 0)))
        copy.add_notice(ahead)
        assert node.protocol.due_notices(copy) == []
        # Once the acquirer's clock covers it, it becomes due.
        node.vc = node.vc.merged(VectorClock((0, 3, 0, 0)))
        assert node.protocol.due_notices(copy) == [ahead]

    def test_apply_pending_leaves_undue_notices(self):
        machine, node = make_node()
        copy = node.pagetable.get(0)
        ahead = WriteNotice(page=0, proc=1, index=3,
                            vc=VectorClock((0, 3, 0, 0)))
        copy.add_notice(ahead)
        assert node.protocol.apply_pending(copy)  # vacuously succeeds
        assert copy.pending_notices == [ahead]
        assert copy.valid


class TestColdInstall:
    def test_own_interval_the_source_lacks_is_reapplied(self):
        """A cold install lays our own logged intervals that the
        source's ``applied`` map does not cover back over the fetched
        contents, as pending notices ``apply_pending`` applies."""
        machine, node = make_node()
        page = 1  # homed at node 1: node 0 holds no copy
        assert node.pagetable.get(page) is None
        written = np.zeros(machine.config.words_per_page)
        written[3] = 7.0
        node.diff_store.put(0, 1, Diff.from_ranges(page, written,
                                                   [(3, 4)]))
        node.vc = VectorClock((1, 0, 0, 0))
        node.interval_log.add(record(0, 1, (1, 0, 0, 0), [page, 2]))
        node.protocol._install_base(page, {
            "values": bytes(8 * machine.config.words_per_page),
            "applied": {1: 4}})
        copy = node.pagetable.get(page)
        assert [(n.page, n.interval_id)
                for n in copy.pending_notices] == [(page, (0, 1))]
        assert not copy.valid
        assert node.protocol.apply_pending(copy)
        assert copy.valid and copy.pending_notices == []
        assert copy.values[3] == 7.0
        assert copy.applied == {0: 1, 1: 4}

    def test_own_interval_the_source_covers_is_not_pending(self):
        machine, node = make_node()
        node.vc = VectorClock((1, 0, 0, 0))
        node.interval_log.add(record(0, 1, (1, 0, 0, 0), [1]))
        node.protocol._install_base(1, {
            "values": bytes(8 * machine.config.words_per_page),
            "applied": {0: 1}})
        assert node.pagetable.get(1).pending_notices == []


class TestInvalidation:
    def test_invalidate_dirty_page_rejected(self):
        machine, node = make_node()
        node.protocol.record_write(0, 0, 1)
        with pytest.raises(ProtocolError, match="dirty"):
            node.protocol.invalidate_page(0)

    def test_invalidate_counts_metric(self):
        machine, node = make_node()
        node.protocol.invalidate_page(0)
        assert not node.pagetable.get(0).valid
        invalidations = machine.obs.registry.get(
            "dsm.invalidations_total")
        assert invalidations.by_label("node")[str(node.proc)] == 1
        node.protocol.invalidate_page(0)  # idempotent
        assert invalidations.by_label("node")[str(node.proc)] == 1


class TestGrantPayload:
    def test_lazy_grant_ships_unknown_records_only(self):
        machine, node = make_node("li")
        copy = node.pagetable.get(0)
        copy.values[0] = 5.0
        node.protocol.record_write(0, 0, 1)
        node.protocol.seal_interval()
        node.protocol.record_write(0, 1, 2)
        node.protocol.seal_interval()
        # Requester already knows interval (0, 1).
        info, data = node.protocol.grant_payload(
            1, VectorClock((1, 0, 0, 0)))
        assert [r.interval_id for r in info.records] == [(0, 2)]
        assert info.diffs == []
        assert data == 0

    def test_hybrid_grant_attaches_diffs_for_believed_cachers(self):
        machine, node = make_node("lh")
        copy = node.pagetable.get(0)
        copy.values[0] = 5.0
        node.protocol.record_write(0, 0, 1)
        node.protocol.seal_interval()
        node.copysets.add(0, 1)  # we believe proc 1 caches page 0
        info, data = node.protocol.grant_payload(
            1, VectorClock.zero(4))
        assert [iid for iid, _d in info.diffs] == [(0, 1)]
        assert data > 0
        # A requester we do NOT believe caches the page gets notices
        # only.
        info2, data2 = node.protocol.grant_payload(
            2, VectorClock.zero(4))
        assert info2.diffs == []
        assert data2 == 0

    def test_eager_grant_is_empty(self):
        machine, node = make_node("eu")
        payload, data = node.protocol.grant_payload(
            1, VectorClock.zero(4))
        assert payload is None
        assert data == 0


# -- message dispatch ----------------------------------------------------

#: protocol -> {kind: name of the protocol method that serves it}.
SERVED = {
    **dict.fromkeys(["ei", "eu"], {
        MsgKind.PAGE_REQ: "_serve_eager_page_request",
        MsgKind.FLUSH: "_handle_flush"}),
    **dict.fromkeys(["li", "lu", "lh", "ec"], {
        MsgKind.PAGE_REQ: "_serve_page_request",
        MsgKind.DIFF_REQ: "_serve_diff_request",
        MsgKind.UPDATE_PUSH: "_handle_update_push"}),
    "sc": {MsgKind.PAGE_REQ: "_handle_request",
           MsgKind.PAGE_FWD: "_serve_forward",
           MsgKind.PAGE_REPLY: "_receive_grant",
           MsgKind.FLUSH: "_handle_invalidate",
           MsgKind.DIFF_REQ: "_serve_fetch"},
}


@pytest.mark.parametrize("protocol", sorted(SERVED))
def test_every_message_kind_reaches_its_handler_in_one_hop(protocol):
    """The node's table maps each kind a protocol serves to the bound
    method that serves it, the sync kinds to the lock and barrier
    managers, and every other kind to the protocol's raiser."""
    _machine, node = make_node(protocol)
    served = {kind: getattr(node.protocol, name)
              for kind, name in SERVED[protocol].items()}
    locks, barriers = node.lock_manager, node.barrier_manager
    sync = {MsgKind.LOCK_REQ: locks._handle_request,
            MsgKind.LOCK_FWD: locks._handle_forward,
            MsgKind.LOCK_GRANT: locks._handle_grant,
            MsgKind.BARRIER_ARRIVE: barriers.handle,
            MsgKind.BARRIER_DEPART: barriers.handle}
    assert set(node.handlers) == set(MsgKind)
    for kind in MsgKind:
        handler = node.handlers[kind]
        if kind in served or kind in sync:
            assert handler == {**served, **sync}[kind], kind
            continue
        message = Message(src=1, dst=0, kind=kind, payload={})
        with pytest.raises(ProtocolError) as raised:
            handler(message)
        assert str(raised.value) == f"{protocol} cannot handle {message}"


# -- eager flush mechanics (copysets travel as int masks) ------------------

def make_machine(protocol):
    return make_node(protocol, pages=8)[0]


def tap(machine):
    """Record every message handed to the network, in send order."""
    sent = []
    real = machine.transmit

    def transmit(message):
        sent.append(message)
        real(message)
    machine.transmit = transmit
    return sent


def drive(machine, generator):
    machine.sim.run_process(machine.sim.spawn(generator))


def write_and_seal(node, page, value):
    return seal_pages(node, [page], value)


def flushes(sent):
    return [(m.dst, [page for _r, page, _d in m.payload["entries"]])
            for m in sent if m.kind == MsgKind.FLUSH]


def receiver_state(node):
    """Everything a FLUSH or a lock grant may change on its receiver,
    object-free."""
    def ids(records):
        return [record.interval_id for record in records]
    return {
        "log": sorted(node.interval_log._records),
        "by_proc": {proc: (list(indices), ids(logged))
                    for proc, (indices, logged)
                    in node.interval_log._by_proc.items()},
        "copies": {page: (copy.valid, bytes(copy.buffer),
                          dict(copy.applied),
                          [(n.page, n.interval_id)
                           for n in copy.pending_notices])
                   for page, copy in node.pagetable.copies.items()},
        "poisoned": {page: [(r.interval_id, d is not None)
                            for r, d in raced]
                     for page, raced
                     in getattr(node.protocol, "_poison_records",
                                {}).items()},
        "masks": dict(node.copysets._masks),
        "diffs": sorted(node.diff_store._diffs),
        "peer_seen": list(node.peer_seen),
        "notices_received": node.ins.notices_received.value,
        "diffs_applied": node.ins.diffs_applied.value,
    }


def _reference_handle_flush(self, message):
    """The FLUSH handler as it was before the one-page fast path:
    every entry goes through incorporate_records, and a diff applied
    in place then discards the notice that call filed."""
    node = self.node
    entries = message.payload["entries"]
    src = message.src
    copysets = node.copysets
    copies = node.pagetable.copies
    ack_masks = {}
    not_cached = {}
    for _record, page, diff in entries:
        if diff is None:
            copy = copies.get(page)
            if copy is not None and copy.dirty:
                self.seal_in_handler()
                break
    for record, page, diff in entries:
        self.incorporate_records([record])
        ack_masks[page] = copysets.mask(page)
        copysets.add(page, src)
        if page in self._miss_in_flight:
            self._poison_records.setdefault(page, []).append(
                (record, diff))
            continue
        copy = copies.get(page)
        if diff is not None:
            if copy is None or not copy.valid:
                raise ProtocolError(
                    f"node {node.proc}: flush diff for page {page} "
                    "arrived at a "
                    f"{'missing' if copy is None else 'stale'} copy")
            diff.apply(copy)
            copy.mark_applied(record.proc, record.index)
            copy.discard_notice(record.interval_id)
            node.diff_store.put(record.proc, record.index, diff)
            node.ins.diffs_applied.inc()
        else:
            if copy is None:
                not_cached[page] = None
            elif copy.valid:
                self.invalidate_page(page)
    node.handler_send(Message(
        src=node.proc, dst=src, kind=MsgKind.FLUSH_ACK,
        reply_to=message.msg_id,
        payload={"copysets": ack_masks,
                 "not_cached": list(not_cached)}))


def seal_pages(node, pages, value):
    """One interval writing word 0 of each page; returns its record."""
    for page in pages:
        copy = node.pagetable.get(page) or node.pagetable.install(
            page, valid=True)
        copy.values[0] = value
        node.protocol.record_write(page, 0, 1)
    node.protocol.seal_interval()
    return node.interval_log.get((node.proc, node.vc[node.proc]))


def pushed(node, record, pages, diffs=True):
    """FLUSH entries for ``pages`` of ``record``, as the flusher
    plans them (a diff each, or bare notices)."""
    return [(record, page,
             node.diff_store.get(record.proc, record.index, page)
             if diffs else None)
            for page in pages]


def _valid(receiver, *pages):
    for page in pages:
        receiver.pagetable.install(page, valid=True)


def _one_page(flusher, receiver):
    _valid(receiver, 1)
    receiver.copysets.add(1, 3)
    first = write_and_seal(flusher, 1, 3.0)
    second = write_and_seal(flusher, 1, 4.0)
    return [pushed(flusher, first, [1]) + pushed(flusher, second, [1])]


def _two_pages_one_flush(flusher, receiver):
    _valid(receiver, 1, 5)
    record = seal_pages(flusher, [1, 5], 6.0)
    return [pushed(flusher, record, [1, 5])]


def _two_pages_two_rounds(flusher, receiver):
    _valid(receiver, 1, 5)
    record = seal_pages(flusher, [1, 5], 6.0)
    return [pushed(flusher, record, [1]), pushed(flusher, record, [5])]


def _known_from_a_departure(flusher, receiver):
    _valid(receiver, 1, 5)
    departed = write_and_seal(flusher, 1, 2.0)
    receiver.protocol.incorporate_records([departed])
    fresh = write_and_seal(flusher, 5, 8.0)
    return [pushed(flusher, departed, [1]) + pushed(flusher, fresh, [5])]


def _miss_in_flight(flusher, receiver):
    _valid(receiver, 5)
    receiver.protocol._miss_in_flight.add(1)
    record = write_and_seal(flusher, 1, 3.0)
    other = write_and_seal(flusher, 5, 4.0)
    return [pushed(flusher, record, [1]) + pushed(flusher, other, [5])]


def _already_applied(flusher, receiver):
    _valid(receiver, 1)
    record = write_and_seal(flusher, 1, 3.0)
    receiver.pagetable.get(1).mark_applied(0, record.index)
    return [pushed(flusher, record, [1])]


def _pending_but_unlogged(flusher, receiver):
    # A notice filed on the copy for a record the log does not hold.
    _valid(receiver, 1)
    record = write_and_seal(flusher, 1, 3.0)
    receiver.pagetable.get(1).add_notice(record.notices()[0])
    return [pushed(flusher, record, [1])]


def _out_of_order(flusher, receiver):
    # The later interval arrives first: the earlier one is logged
    # below the last index held from its writer (a bisect, not an
    # append).
    _valid(receiver, 1, 5)
    first = write_and_seal(flusher, 1, 3.0)
    second = write_and_seal(flusher, 5, 4.0)
    return [pushed(flusher, second, [5]), pushed(flusher, first, [1])]


def _ei_bare_notices(flusher, receiver):
    _valid(receiver, 1)         # page 5 is never cached here
    record = seal_pages(flusher, [1, 5], 6.0)
    return [pushed(flusher, record, [1, 5], diffs=False)]


#: shape -> (protocol, setup(flusher, receiver) -> one entry list per
#: FLUSH round), for the differential test of the receive path.
FLUSH_SHAPES = {
    "one-page": ("eu", _one_page),
    "two-pages-one-flush": ("eu", _two_pages_one_flush),
    "two-pages-two-rounds": ("eu", _two_pages_two_rounds),
    "known-from-a-departure": ("eu", _known_from_a_departure),
    "miss-in-flight": ("eu", _miss_in_flight),
    "already-applied": ("eu", _already_applied),
    "pending-but-unlogged": ("eu", _pending_but_unlogged),
    "out-of-order": ("eu", _out_of_order),
    "ei-bare-notices": ("ei", _ei_bare_notices),
}


class TestEagerFlush:
    def test_stale_copyset_second_round_reaches_only_uncovered_pair(self):
        machine = make_machine("eu")
        flusher, one, two = machine.nodes[:3]
        for node in (one, two):
            for page in (0, 4):
                node.pagetable.install(page, valid=True)
        # Flusher's view: page 0 cached by {1}, page 4 by {1, 2}.
        # Node 1 knows better: node 2 caches page 0 too.
        flusher.copysets.add(0, 1)
        flusher.copysets.merge(4, 0b0110)
        one.copysets.add(0, 2)
        write_and_seal(flusher, 0, 7.0)
        write_and_seal(flusher, 4, 9.0)
        sent = tap(machine)
        drive(machine, flusher.protocol.flush())
        # Round 1 covers (1,0) (1,4) (2,4); node 1's ack mask reveals
        # (2,0); round 2 sends exactly that and re-sends nothing.
        assert flushes(sent) == [(1, [0, 4]), (2, [4]), (2, [0])]
        acks = [m for m in sent if m.kind == MsgKind.FLUSH_ACK]
        assert all(isinstance(mask, int)
                   for ack in acks
                   for mask in ack.payload["copysets"].values())
        assert acks[0].payload["copysets"][0] & 0b0100
        assert flusher.copysets.believes_cached(0, 2)
        assert two.pagetable.get(0).values[0] == 7.0
        assert two.pagetable.get(4).values[0] == 9.0
        assert flusher.protocol.unpropagated == {}

    def test_flush_with_nothing_unpropagated_sends_nothing(self):
        machine = make_machine("eu")
        sent = tap(machine)
        drive(machine, machine.nodes[0].protocol.flush())
        assert sent == []

    def test_ei_not_cached_clears_the_ackers_bit(self):
        machine = make_machine("ei")
        flusher, one = machine.nodes[:2]
        flusher.copysets.add(0, 1)   # stale: node 1 holds no copy
        write_and_seal(flusher, 0, 1.0)
        write_and_seal(flusher, 0, 2.0)
        sent = tap(machine)
        drive(machine, flusher.protocol.flush())
        assert flushes(sent) == [(1, [0, 0])]
        (ack,) = [m for m in sent if m.kind == MsgKind.FLUSH_ACK]
        assert ack.payload["not_cached"] == [0]   # deduplicated
        assert not flusher.copysets.believes_cached(0, 1)
        assert one.copysets.believes_cached(0, 0)

    def test_ei_home_gets_diff_and_other_cachers_bare_notices(self):
        machine = make_machine("ei")
        flusher, home, other = machine.nodes[:3]
        other.pagetable.install(1, valid=True)
        flusher.copysets.add(1, 2)
        write_and_seal(flusher, 1, 5.0)
        sent = tap(machine)
        drive(machine, flusher.protocol.flush())
        by_dst = {m.dst: m.payload["entries"] for m in sent
                  if m.kind == MsgKind.FLUSH}
        assert sorted(by_dst) == [1, 2]
        assert by_dst[1][0][2] is not None    # home: merge the diff
        assert by_dst[2][0][2] is None        # cacher: invalidation
        assert home.pagetable.get(1).values[0] == 5.0
        assert not other.pagetable.get(1).valid

    def test_flush_racing_a_miss_is_parked_and_reconciled(self):
        machine = make_machine("eu")
        flusher, home, misser = machine.nodes[:3]
        record = write_and_seal(flusher, 1, 3.0)
        diff = flusher.diff_store.get(0, record.index, 1)
        misser.protocol._miss_in_flight.add(1)
        flush = Message(src=0, dst=2, kind=MsgKind.FLUSH,
                        payload={"entries": [(record, 1, diff)],
                                 "update": True},
                        data_bytes=diff.size_bytes)
        acked = flusher.expect_reply(flush)
        sent = tap(machine)
        misser.handlers[flush.kind](flush)
        assert misser.protocol._poison_records[1] == [(record, diff)]
        assert misser.copysets.believes_cached(1, 0)
        machine.sim.run_until(acked)
        # The ack must not tell the flusher to drop us.
        assert sent[0].payload["not_cached"] == []
        misser.protocol._miss_in_flight.discard(1)
        # The home never saw the flush: only the parked diff can
        # supply the value once the fetched copy is installed.
        drive(machine, misser.protocol.ensure_valid(1, False))
        assert misser.pagetable.get(1).values[0] == 3.0
        assert misser.pagetable.get(1).is_applied(0, record.index)
        assert 1 not in misser.protocol._poison_records

    @pytest.mark.parametrize("protocol", ["eu", "ei"])
    def test_refetch_reapplies_only_unflushed_own_writes_of_the_page(
            self, protocol):
        """A miss on a page we wrote but have not flushed fetches the
        home's copy, which lacks our write: the unpropagated intervals
        that wrote the page are laid back over it, in seal order, and
        no other interval's diff is."""
        machine = make_machine(protocol)
        misser = machine.nodes[2]
        first = write_and_seal(misser, 1, 9.0)
        last = write_and_seal(misser, 1, 7.0)
        write_and_seal(misser, 5, 4.0)    # page 5's diff, not page 1's
        assert list(misser.protocol.unpropagated) == [
            (2, first.index), (2, last.index), (2, last.index + 1)]
        misser.pagetable.get(1).valid = False
        drive(machine, misser.protocol.ensure_valid(1, False))
        copy = misser.pagetable.get(1)
        assert copy.valid and copy.values[0] == 7.0
        assert copy.applied[2] == last.index
        assert machine.nodes[1].pagetable.get(1).values[0] == 0.0

    @pytest.mark.parametrize("protocol", ["eu", "li"])
    def test_page_reply_copyset_mask_is_merged_not_assigned(
            self, protocol):
        machine = make_machine(protocol)
        home, misser = machine.nodes[1], machine.nodes[2]
        misser.copysets.add(1, 3)    # prior belief the home lacks
        home.copysets.add(1, 0)      # home knowledge the misser lacks
        sent = tap(machine)
        drive(machine, misser.protocol.ensure_valid(1, False))
        (reply,) = [m for m in sent if m.kind == MsgKind.PAGE_REPLY]
        assert reply.payload["copyset"] == 0b0111
        assert misser.copysets.mask(1) == 0b1111

    @pytest.mark.parametrize("protocol,app,params,threads", [
        pytest.param("eu", "water", dict(nmols=20, steps=1), 1,
                     id="eu-water"),
        pytest.param("ei", "water", dict(nmols=20, steps=1), 1,
                     id="ei-water"),
        pytest.param("eu", "tsp", dict(ncities=8), 1, id="eu-tsp"),
        pytest.param("eu", "cholesky", dict(k=4), 2, id="eu-cholesky-t2"),
        pytest.param("ei", "cholesky", dict(k=4), 2, id="ei-cholesky-t2"),
    ])
    def test_applied_flush_leaves_no_covered_notice_pending(
            self, protocol, app, params, threads):
        """A one-page record whose diff arrives with it never files a
        notice; a filed one (the pages of a multi-page record, in the
        same FLUSH or a later round, or a record already known) is
        retired when its diff is applied.  Either way no copy ends a
        run holding a pending notice its own coverage map already
        covers."""
        machine = Machine(MachineConfig(nprocs=4,
                                        network=NetworkConfig.atm()),
                          protocol=protocol)
        machine.run_app(create_app(app, **params),
                        threads_per_proc=threads)
        covered = [(node.proc, notice.page, notice.interval_id)
                   for node in machine.nodes
                   for copy in node.pagetable.copies.values()
                   for notice in copy.pending_notices
                   if copy.is_applied(notice.proc, notice.index)]
        assert covered == []

    @pytest.mark.parametrize("state", ["missing", "stale"])
    def test_flush_diff_at_an_invalid_copy_is_a_protocol_error(
            self, state):
        machine = make_machine("eu")
        flusher, receiver = machine.nodes[0], machine.nodes[2]
        if state == "stale":
            receiver.pagetable.install(1, valid=False)
        record = write_and_seal(flusher, 1, 3.0)
        diff = flusher.diff_store.get(0, record.index, 1)
        with pytest.raises(ProtocolError,
                           match=f"flush diff for page 1 arrived at a "
                                 f"{state} copy"):
            flush = Message(
                src=0, dst=2, kind=MsgKind.FLUSH,
                payload={"entries": [(record, 1, diff)], "update": True},
                data_bytes=diff.size_bytes)
            receiver.handlers[flush.kind](flush)
        assert receiver.ins.diffs_applied.value == 0
        assert not receiver.diff_store.has(0, record.index, 1)
        copy = receiver.pagetable.copies.get(1)
        if copy is not None:
            assert not copy.is_applied(0, record.index)
            assert copy.values[0] == 0.0

    @pytest.mark.parametrize("shape", list(FLUSH_SHAPES))
    def test_flush_receive_matches_the_reference_handler(self, shape):
        """The FLUSH handler leaves the receiver in exactly the state
        the straightforward one (every entry through
        incorporate_records, then a discard of the notice it filed)
        does, and acks with the same payload."""
        protocol, setup = FLUSH_SHAPES[shape]
        results = []
        for handle in (_reference_handle_flush,
                       lambda proto, message:
                       proto.node.handlers[message.kind](message)):
            machine = make_machine(protocol)
            flusher, receiver = machine.nodes[0], machine.nodes[2]
            sent = tap(machine)
            states = []
            for entries in setup(flusher, receiver):
                flush = Message(src=0, dst=2, kind=MsgKind.FLUSH,
                                payload={"entries": entries,
                                         "update": protocol == "eu"})
                acked = flusher.expect_reply(flush)
                handle(receiver.protocol, flush)
                machine.sim.run_until(acked)
                states.append(receiver_state(receiver))
            acks = [m.payload for m in sent if m.kind == MsgKind.FLUSH_ACK]
            assert len(acks) == len(states)
            results.append((acks, states))
        assert results[1] == results[0]


# -- the lazy lock grant (LH and EC apply it in one pass) ------------------

def _reference_grant_payload(self, requester, requester_vc, lock_id=None):
    """The grant as it was built before the one-pass assembly: the page
    rule through ``believes_cached`` (or the bound pages), memoized per
    page, and the data bytes summed over ``diff_bytes`` afterwards."""
    node = self.node
    records = node.interval_log.records_after(requester_vc)
    diffs = []
    policy = self.piggyback_policy
    if self.piggyback_diffs and records and policy != "never":
        if policy == "bound":
            bound = (node.machine.pages_bound_to(lock_id)
                     if lock_id is not None else frozenset())

            def rule(page, _requester):
                return page in bound
        else:
            rule = node.copysets.believes_cached
        cached_ok = {}
        for record in records:
            for notice in record.notices():
                page = notice.page
                if policy != "always":
                    ok = cached_ok.get(page)
                    if ok is None:
                        ok = cached_ok[page] = rule(page, requester)
                    if not ok:
                        continue
                diff = node.diff_store.get(record.proc, record.index, page)
                if diff is not None:
                    diffs.append((record.interval_id, diff))
    node.observe_peer_vc(requester, node.vc)
    return (ConsistencyInfo(node.vc, records, diffs),
            sum(self.diff_bytes(d) for _iid, d in diffs))


def _reference_apply_grant(self, info):
    """The grant as it was applied before the one-pass apply: every
    record through incorporate_records, the diffs stored, the clock
    merged, then resolve_pages over the grant's pages."""
    node = self.node
    if not info.records:
        node.vc = node.vc.merged(info.sender_vc)
        return
    self.incorporate_records(info.records)
    self.store_diffs(info.diffs)
    node.vc = node.vc.merged(info.sender_vc)
    yield from self.resolve_pages(sorted({page
                                          for record in info.records
                                          for page in record.pages}))


#: The granted pages: homed at node 0, which takes no part, so every
#: writer's copyset bit is news to the acquirer.
PAGE, OTHER = 0, 4


def _believed(granter, acquirer, *pages):
    for page in pages:
        granter.copysets.add(page, acquirer.proc)


def _transitive(granter, value, page=PAGE, diff=True, due=True):
    """A record of node 3's on ``page`` that the granter holds, with
    its diff (as a push leaves it) or without (as a departure does),
    inside the granter's cone or not."""
    third = granter.machine.nodes[3]
    record = write_and_seal(third, page, value)
    granter.protocol.incorporate_records([record])
    if diff:
        granter.protocol.store_diffs([(
            record.interval_id,
            third.diff_store.get(3, record.index, page))])
    if due:
        granter.vc = granter.vc.merged(record.vc)
    return record


def _g_one_page(granter, acquirer):
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, PAGE, 3.0)


def _g_three_records_one_page(granter, acquirer):
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    for value in (3.0, 4.0, 5.0):
        write_and_seal(granter, PAGE, value)


def _g_not_believed_cached(granter, acquirer):
    # OTHER's diff stays with the granter: that page is invalidated.
    _valid(acquirer, PAGE, OTHER)
    _believed(granter, acquirer, PAGE)
    seal_pages(granter, [PAGE, OTHER], 6.0)


def _g_unsupplied_diff(granter, acquirer):
    # The page's first diff is shipped, its second the granter never
    # had: nothing may be applied.
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, PAGE, 3.0)
    _transitive(granter, 9.0, diff=False)


def _g_stray_pending(granter, acquirer):
    # A notice pushed to the acquirer outside its cone (and the
    # granter's) is already pending on the copy.
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    third = acquirer.machine.nodes[3]
    stray = write_and_seal(third, PAGE, 9.0)
    acquirer.protocol.incorporate_records([stray])
    write_and_seal(granter, PAGE, 3.0)


def _g_not_due(granter, acquirer):
    # The granter ships a pushed record outside its own cone, diff and
    # all: it stays pending at the acquirer too.
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, PAGE, 3.0)
    _transitive(granter, 9.0, due=False)


def _g_known(granter, acquirer):
    # A record pushed to the acquirer before the grant (pending, not
    # due) is named again and falls due under the merged clock.
    _valid(acquirer, PAGE, OTHER)
    _believed(granter, acquirer, PAGE, OTHER)
    pushed_record = write_and_seal(granter, PAGE, 2.0)
    acquirer.protocol.incorporate_records([pushed_record])
    acquirer.protocol.store_diffs([(
        pushed_record.interval_id,
        granter.diff_store.get(1, pushed_record.index, PAGE))])
    write_and_seal(granter, OTHER, 8.0)


def _g_already_applied(granter, acquirer):
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    record = write_and_seal(granter, PAGE, 3.0)
    acquirer.pagetable.get(PAGE).mark_applied(1, record.index)


def _g_not_held(granter, acquirer):
    # A stale belief: the diff travels, the acquirer holds no copy.
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, PAGE, 3.0)


def _g_out_of_order(granter, acquirer):
    # The later record was pushed first: the earlier one is logged
    # below the last index held from its writer (a bisect).
    _valid(acquirer, PAGE, OTHER)
    _believed(granter, acquirer, PAGE, OTHER)
    write_and_seal(granter, PAGE, 3.0)
    later = write_and_seal(granter, OTHER, 4.0)
    acquirer.protocol.incorporate_records([later])


def _g_dirty(granter, acquirer):
    # The acquirer has written the page: it seals before applying.
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, PAGE, 3.0)
    copy = acquirer.pagetable.get(PAGE)
    copy.values[1] = 9.0
    acquirer.protocol.record_write(PAGE, 1, 2)


def _g_two_writers(granter, acquirer):
    _valid(acquirer, PAGE, OTHER)
    _believed(granter, acquirer, PAGE, OTHER)
    _transitive(granter, 9.0, page=OTHER)
    write_and_seal(granter, PAGE, 3.0)


def _g_numpy_page(granter, acquirer):
    # An app's address arithmetic hands the granter numpy page numbers;
    # the acquirer's copy was installed under a Python int.
    _valid(acquirer, PAGE)
    _believed(granter, acquirer, PAGE)
    write_and_seal(granter, np.int64(PAGE), 3.0)


def _g_priced_as_pages(granter, acquirer):
    granter.protocol.configure(price_diffs_as_pages=True)
    _valid(acquirer, PAGE, OTHER)
    _believed(granter, acquirer, PAGE, OTHER)
    seal_pages(granter, [PAGE, OTHER], 6.0)


#: shape -> setup(granter, acquirer), run under LH and EC (whose
#: lock 0 is bound to the pages the granter believes the acquirer
#: caches), for the differential test of the grant hand-off.
GRANT_SHAPES = {
    "one-page": _g_one_page,
    "three-records-one-page": _g_three_records_one_page,
    "not-believed-cached": _g_not_believed_cached,
    "unsupplied-diff": _g_unsupplied_diff,
    "stray-pending": _g_stray_pending,
    "not-due": _g_not_due,
    "known": _g_known,
    "already-applied": _g_already_applied,
    "not-held": _g_not_held,
    "out-of-order": _g_out_of_order,
    "dirty": _g_dirty,
    "two-writers": _g_two_writers,
    "numpy-page": _g_numpy_page,
    "priced-as-pages": _g_priced_as_pages,
}


def _grant_round(protocol, setup, grant, apply):
    """Set a shape up on a fresh traced machine, build node 1's grant
    to node 2 with ``grant`` and apply it with ``apply``; returns the
    grant, both ends' state and the trace, object-free."""
    sink = MemorySink()
    machine = Machine(MachineConfig(nprocs=4,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol,
                      obs=Observability(tracer=Tracer(sink)))
    machine.allocate("seg", machine.config.words_per_page * 8)
    granter, acquirer = machine.nodes[1], machine.nodes[2]
    setup(granter, acquirer)
    if protocol == "ec":
        bit = 1 << acquirer.proc
        machine.lock_bindings[0] = {
            page for page, mask in granter.copysets._masks.items()
            if mask & bit}
    del sink.events[:]
    info, data = grant(granter.protocol, acquirer.proc, acquirer.vc,
                       lock_id=0)

    def acquire():
        yield from apply(acquirer.protocol, info)
    drive(machine, acquire())
    return {
        "records": [r.interval_id for r in info.records],
        "diffs": [(iid, d.page, d.size_bytes) for iid, d in info.diffs],
        "data_bytes": data,
        "granter_peer_seen": list(granter.peer_seen),
        "acquirer": receiver_state(acquirer),
        "vc": acquirer.vc.components,
        "invalidations": acquirer.ins.invalidations.value,
        "now": machine.sim.now,
        # JSON, as a trace is written: a numpy page number and an int
        # compare equal but are written differently.
        "trace": [json.dumps(e.to_record(), default=str)
                  for e in sink.events],
    }


class TestLazyGrant:
    @pytest.mark.parametrize("protocol", ["lh", "ec"])
    @pytest.mark.parametrize("shape", list(GRANT_SHAPES))
    def test_grant_matches_the_reference_hand_off(self, shape, protocol):
        """The releaser's grant and the acquirer's apply leave both
        ends, the trace and the clock exactly as the straightforward
        pair (believes_cached and diff_bytes; incorporate_records,
        store_diffs, merge, resolve_pages) does."""
        setup = GRANT_SHAPES[shape]
        reference = _grant_round(protocol, setup,
                                 _reference_grant_payload,
                                 _reference_apply_grant)
        actual = _grant_round(
            protocol, setup,
            lambda proto, *args, **kw: proto.grant_payload(*args, **kw),
            lambda proto, info: proto.apply_grant(info))
        assert actual == reference


# -- the lazy access miss (a warm miss asks its writers directly) ----------

def _reference_resolve_miss(self, page, for_write):
    """The miss loop as it was before the one-pass warm miss: every
    pass through ``_assign_requests``, ``_fetch`` and its fold."""
    node = self.node
    escalated = set()
    writer_requested = set()
    while True:
        copy = node.pagetable.copies.get(page)
        if copy is not None and copy.valid:
            return
        if copy is not None:
            pending = self.due_notices(copy)
            if self.apply_pending(copy, pending):
                return
        else:
            mine = node.vc.components
            pending = [n for n in self.logged_notices(page)
                       if mine[n.proc] >= n.index]
        modifiers, assignment = self._assign_requests(
            page, pending, escalated, writer_requested)
        requests = []
        base_source = None
        if copy is None:
            base_source = (modifiers[0] if modifiers
                           else node.page_owner(page))
            requests.append(Message(
                src=node.proc, dst=base_source, kind=MsgKind.PAGE_REQ,
                payload={"page": page,
                         "wanted": self._wanted_ids(
                             assignment.get(base_source, ()))}))
        for modifier, their_notices in assignment.items():
            if modifier == base_source:
                continue
            requests.append(Message(
                src=node.proc, dst=modifier, kind=MsgKind.DIFF_REQ,
                payload={"page": page,
                         "wanted": self._wanted_ids(their_notices)}))
        if not requests:
            raise ProtocolError("unsatisfiable without requests")
        yield from self._fetch(page, requests)


def _wire(sent):
    """Every message handed to the network, object-free."""
    wire = []
    for message in sent:
        payload = (message.payload if isinstance(message.payload, dict)
                   else {})
        wire.append((message.msg_id, message.kind.value, message.src,
                     message.dst, message.reply_to, message.data_bytes,
                     payload.get("wanted"),
                     [iid for iid, _diff in payload.get("diffs", ())],
                     [r.interval_id for r in payload.get("records", ())]))
    return wire


def _traced_machine(protocol, traced):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink)) if traced else None
    machine = Machine(MachineConfig(nprocs=4,
                                    network=NetworkConfig.ideal()),
                      protocol=protocol, obs=obs)
    machine.allocate("seg", machine.config.words_per_page * 8)
    return machine, sink


def _end_state(machine, sink):
    """What a miss or a departure may change anywhere, the trace
    included, object-free."""
    return {
        "nodes": [receiver_state(node) for node in machine.nodes],
        "vcs": [node.vc.components for node in machine.nodes],
        "invalidations": [node.ins.invalidations.value
                          for node in machine.nodes],
        "now": machine.sim.now,
        "trace": [json.dumps(e.to_record(), default=str)
                  for e in sink.events],
    }


def _due(node, record):
    """``record`` logged and filed at ``node`` and inside its cone."""
    node.protocol.incorporate_records([record])
    node.vc = node.vc.merged(record.vc)


def _stale(misser, *records):
    _valid(misser, PAGE)
    for record in records:
        _due(misser, record)
    misser.protocol.invalidate_page(PAGE)


def _m_one_missing(machine, misser):
    _stale(misser, write_and_seal(machine.nodes[1], PAGE, 3.0))


def _m_one_local(machine, misser):
    writer = machine.nodes[1]
    record = write_and_seal(writer, PAGE, 3.0)
    _stale(misser, record)
    misser.protocol.store_diffs([(
        record.interval_id, writer.diff_store.get(1, record.index, PAGE))])


def _m_two_concurrent(machine, misser):
    _stale(misser, write_and_seal(machine.nodes[1], PAGE, 3.0),
           write_and_seal(machine.nodes[3], PAGE, 4.0))


def _dominated(machine, misser, relayed):
    # Node 3 saw node 1's interval before writing: 3 is the only
    # concurrent last modifier, asked for both diffs.
    first, second = machine.nodes[1], machine.nodes[3]
    earlier = write_and_seal(first, PAGE, 3.0)
    _due(second, earlier)
    if relayed:
        second.protocol.store_diffs([(
            earlier.interval_id,
            first.diff_store.get(1, earlier.index, PAGE))])
    _stale(misser, earlier, write_and_seal(second, PAGE, 4.0))


def _m_dominated(machine, misser):
    _dominated(machine, misser, relayed=True)


def _m_dominated_escalates(machine, misser):
    # The later writer never held the earlier diff: a second round
    # asks its writer.
    _dominated(machine, misser, relayed=False)


def _m_own_notice(machine, misser):
    own = write_and_seal(misser, PAGE, 5.0)
    copy = misser.pagetable.get(PAGE)
    del copy.applied[misser.proc]
    copy.add_notice(own.notice(PAGE))
    _stale(misser, write_and_seal(machine.nodes[1], PAGE, 3.0))


def _m_filed_in_flight(machine, misser):
    _stale(misser, write_and_seal(machine.nodes[1], PAGE, 3.0))
    late = write_and_seal(machine.nodes[3], PAGE, 4.0)

    def file_late():
        yield 1.0
        _due(misser, late)
    machine.sim.spawn(file_late())


def _m_unlogged_record(machine, misser):
    # The pending notice's record is not in the log: the reply's copy
    # of it is logged and files a notice on the other page.
    _valid(misser, PAGE, OTHER)
    record = seal_pages(machine.nodes[1], [PAGE, OTHER], 6.0)
    misser.pagetable.get(PAGE).add_notice(record.notice(PAGE))
    misser.vc = misser.vc.merged(record.vc)
    misser.protocol.invalidate_page(PAGE)


def _m_cold(machine, misser):
    _due(misser, write_and_seal(machine.nodes[1], PAGE, 3.0))


#: shape -> setup(machine, misser) leaving node 2 to miss on PAGE,
#: run under every lazy protocol, traced and not, for the
#: differential test of the miss loop.
MISS_SHAPES = {
    "one-missing": _m_one_missing,
    "one-local": _m_one_local,
    "two-concurrent": _m_two_concurrent,
    "dominated": _m_dominated,
    "dominated-escalates": _m_dominated_escalates,
    "own-notice": _m_own_notice,
    "filed-in-flight": _m_filed_in_flight,
    "unlogged-record": _m_unlogged_record,
    "cold": _m_cold,
}


def _miss_round(protocol, setup, traced, resolve):
    machine, sink = _traced_machine(protocol, traced)
    misser = machine.nodes[2]
    setup(machine, misser)
    del sink.events[:]
    sent = tap(machine)

    def miss():
        yield from resolve(misser.protocol, PAGE, False)
    drive(machine, miss())
    return {"wire": _wire(sent), **_end_state(machine, sink)}


class TestLazyMiss:
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    @pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec"])
    @pytest.mark.parametrize("shape", list(MISS_SHAPES))
    def test_miss_matches_the_reference_loop(self, shape, protocol,
                                             traced):
        """The miss sends the same requests, in the same order under
        the same ids, and leaves every node, the clock and the trace
        as the loop that ran every pass through the general
        assignment did."""
        setup = MISS_SHAPES[shape]
        reference = _miss_round(protocol, setup, traced,
                                _reference_resolve_miss)
        actual = _miss_round(
            protocol, setup, traced,
            lambda proto, page, write: proto.resolve_miss(page, write))
        # Only the shape whose diff is local resolves without a message.
        assert bool(reference["wire"]) == (shape != "one-local")
        assert actual == reference

    def test_the_shapes_reach_both_sides_of_the_fast_case(self):
        """Which shapes a warm first pass answers directly: a wrong
        classification would still pass the differential test, so
        pin it."""
        direct = []
        for shape, setup in MISS_SHAPES.items():
            machine, _sink = _traced_machine("li", False)
            misser = machine.nodes[2]
            setup(machine, misser)
            copy = misser.pagetable.get(PAGE)
            if copy is not None and misser.protocol._writers_concurrent(
                    misser.protocol.due_notices(copy)):
                direct.append(shape)
        assert direct == ["one-missing", "one-local", "two-concurrent",
                          "filed-in-flight", "unlogged-record"]


# -- the lazy barrier departure (one fold over the master's rows) ----------

def _reference_li_resolve_pages(self, pages):
    """LI's resolution as it was: a seal if any held copy is dirty,
    then ``due_notices`` per held copy with anything pending."""
    yield from self._seal_if_any_dirty(pages)
    for copy in self._held(pages):
        if copy._pending_notices and self.due_notices(copy):
            self.invalidate_page(copy.page)


def _reference_apply_depart(self, payload):
    """The departure as it was applied before the row fold:
    incorporate_records, the clock merge, then resolve_pages."""
    node = self.node
    self.incorporate_records(payload["records"])
    node.vc = node.vc.merged(payload["vc"])
    self.last_barrier_vc = payload["vc"]
    self.unpropagated = {}
    resolve = (_reference_li_resolve_pages if self.name == "li"
               else type(self).resolve_pages)
    yield from resolve(self, payload["pages"])


def _d_held(machine, receiver):
    _valid(receiver, PAGE)
    write_and_seal(machine.nodes[1], PAGE, 3.0)


def _d_unheld(machine, receiver):
    write_and_seal(machine.nodes[1], OTHER, 3.0)


def _d_already_applied(machine, receiver):
    _valid(receiver, PAGE)
    record = write_and_seal(machine.nodes[1], PAGE, 3.0)
    receiver.pagetable.get(PAGE).mark_applied(1, record.index)


def _d_already_pending(machine, receiver):
    _valid(receiver, PAGE)
    record = write_and_seal(machine.nodes[1], PAGE, 3.0)
    receiver.pagetable.get(PAGE).add_notice(record.notice(PAGE))


def _d_known(machine, receiver):
    _valid(receiver, PAGE)
    receiver.protocol.incorporate_records(
        [write_and_seal(machine.nodes[1], PAGE, 3.0)])


def _d_own(machine, receiver):
    _valid(receiver, PAGE)
    write_and_seal(receiver, OTHER, 5.0)
    write_and_seal(machine.nodes[1], PAGE, 3.0)


def _d_multi_page(machine, receiver):
    _valid(receiver, PAGE, 5)
    seal_pages(machine.nodes[1], [PAGE, OTHER, 5], 6.0)
    write_and_seal(machine.nodes[3], 5, 7.0)


def _d_out_of_order(machine, receiver):
    # The later interval was pushed first: the earlier one is logged
    # below the last index held from its writer (a bisect).
    _valid(receiver, PAGE, OTHER)
    write_and_seal(machine.nodes[1], PAGE, 3.0)
    later = write_and_seal(machine.nodes[1], OTHER, 4.0)
    receiver.protocol.incorporate_records([later])


def _d_dirty(machine, receiver):
    # A held copy written since the last seal: LI and LH seal first.
    _valid(receiver, PAGE, OTHER)
    write_and_seal(machine.nodes[1], PAGE, 3.0)
    receiver.pagetable.get(OTHER).values[1] = 9.0
    receiver.protocol.record_write(OTHER, 1, 2)


#: shape -> setup(machine, receiver); node 0 is the master and node 2
#: applies the departure, under every lazy protocol, traced.
DEPART_SHAPES = {
    "held": _d_held,
    "unheld": _d_unheld,
    "already-applied": _d_already_applied,
    "already-pending": _d_already_pending,
    "known": _d_known,
    "own": _d_own,
    "multi-page": _d_multi_page,
    "out-of-order": _d_out_of_order,
    "dirty": _d_dirty,
}


def _depart_round(protocol, setup, apply):
    machine, sink = _traced_machine(protocol, True)
    receiver = machine.nodes[2]
    setup(machine, receiver)
    arrivals = {node.proc: node.protocol.barrier_arrive_payload()
                for node in machine.nodes}
    departure = machine.nodes[0].protocol.master_combine(arrivals)[2]
    del sink.events[:]
    sent = tap(machine)

    def depart():
        yield from apply(receiver.protocol, departure)
    drive(machine, depart())
    return {"wire": _wire(sent),
            "last_barrier_vc": receiver.protocol.last_barrier_vc,
            "unpropagated": receiver.protocol.unpropagated,
            "seals": receiver.vc[receiver.proc],
            **_end_state(machine, sink)}


class TestLazyDeparture:
    @pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec"])
    @pytest.mark.parametrize("shape", list(DEPART_SHAPES))
    def test_departure_matches_the_reference_apply(self, shape,
                                                   protocol):
        """The row fold and resolution leave every node, the clock,
        the messages and the trace as incorporate_records, the merge
        and the former resolve_pages did."""
        setup = DEPART_SHAPES[shape]
        reference = _depart_round(protocol, setup,
                                  _reference_apply_depart)
        actual = _depart_round(
            protocol, setup,
            lambda proto, payload: proto.apply_depart(payload))
        assert actual == reference

    def test_rows_restate_the_departure_records(self):
        machine, _sink = _traced_machine("li", False)
        _d_multi_page(machine, machine.nodes[2])
        arrivals = {node.proc: node.protocol.barrier_arrive_payload()
                    for node in machine.nodes}
        departure = machine.nodes[0].protocol.master_combine(arrivals)[1]
        assert [(r.interval_id, r.proc, r.index, 1 << r.proc,
                 sorted(r.pages), r.vc.components)
                for r in departure["records"]] == [
            (iid, proc, index, bit, list(pages), clock)
            for _r, iid, proc, index, bit, pages, clock
            in departure["rows"]]
