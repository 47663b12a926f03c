"""Node-state checkpointing (the ``RCKP`` format).

When the lifecycle manager crashes a node (:mod:`repro.sim.lifecycle`)
it serializes the node's entire DSM state into one binary blob in the
style of the RDIF diff encoding (:mod:`repro.mem.wire`): a fixed
little-endian header, then tagged sections for the vector clocks, the
page table (contents, twins, written runs, applied coverage, pending
write notices), the interval log, the stored diffs (each reusing the
RDIF encoding verbatim), the copyset masks, and the protocol's
consistency metadata.  Recovery parses the blob back and refills the
node *in place* — every data field comes from the bytes, but container
and :class:`~repro.mem.pages.PageCopy` object identities are
preserved, because application/protocol continuations frozen at the
crash instant may hold references across their paused yields.

docs/robustness.md documents the byte layout; tests/mem pin the
round-trip (checkpoint -> wipe -> restore -> identical re-checkpoint).

Layout (all integers little-endian)::

    header (20 bytes)
      0   4s  magic          b"RCKP"
      4   B   version        CHECKPOINT_VERSION (currently 1)
      5   B   word_size      simulated machine word, bytes
      6   H   flags          0 (reserved)
      8   I   proc           the checkpointed node
      12  I   nprocs         vector-clock width
      16  I   words_per_page page geometry
    sections, in this fixed order, each introduced by an 8-byte
    section header (4s tag + I payload length):
      CLKS  node vc, then one peer vc per processor
      PAGE  page copies (buffer, optional twin, written runs,
            applied map, pending notices)
      ILOG  interval records (vc, page set, pending ranges)
      DIFS  stored diffs as embedded RDIF blobs keyed (proc, index)
      CSET  copyset bitmasks (one u64 per page)
      PROT  orphan notices, own-page interval indices, unpropagated
            sets, last barrier vc

A vector clock is ``nprocs`` u32 components (width from the header).
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro.core.config import WORD_SIZE
from repro.mem.diffs import Diff
from repro.mem.intervals import IntervalRecord, WriteNotice
from repro.mem.pages import PageCopy
from repro.mem.timestamps import VectorClock
from repro.mem.wire import decode_diff, encode_diff

MAGIC = b"RCKP"
CHECKPOINT_VERSION = 1

_HEADER = struct.Struct("<4sBBHIII")
_SECTION = struct.Struct("<4sI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_PAIR = struct.Struct("<II")

#: Section tags, in the order they are written.
SECTION_ORDER = (b"CLKS", b"PAGE", b"ILOG", b"DIFS", b"CSET", b"PROT")


class CheckpointError(ValueError):
    """A checkpoint blob violates the RCKP layout or its invariants."""


class _Writer:
    def __init__(self) -> None:
        self.parts: List[bytes] = []

    def u8(self, value: int) -> None:
        self.parts.append(bytes((value,)))

    def u32(self, value: int) -> None:
        self.parts.append(_U32.pack(value))

    def u64(self, value: int) -> None:
        self.parts.append(_U64.pack(value))

    def pair(self, a: int, b: int) -> None:
        self.parts.append(_PAIR.pack(a, b))

    def raw(self, blob: bytes) -> None:
        self.parts.append(bytes(blob))

    def vc(self, clock: VectorClock) -> None:
        self.parts.append(struct.pack(f"<{len(clock)}I",
                                      *clock.components))

    def payload(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    def __init__(self, blob: bytes, nprocs: int) -> None:
        self.blob = blob
        self.pos = 0
        self.nprocs = nprocs
        self._vc = struct.Struct(f"<{nprocs}I")

    def _take(self, nbytes: int) -> int:
        pos = self.pos
        if pos + nbytes > len(self.blob):
            raise CheckpointError(
                f"truncated checkpoint: need {nbytes} bytes at offset "
                f"{pos}, have {len(self.blob) - pos}")
        self.pos = pos + nbytes
        return pos

    def u8(self) -> int:
        return self.blob[self._take(1)]

    def u32(self) -> int:
        return _U32.unpack_from(self.blob, self._take(4))[0]

    def u64(self) -> int:
        return _U64.unpack_from(self.blob, self._take(8))[0]

    def pair(self) -> Tuple[int, int]:
        return _PAIR.unpack_from(self.blob, self._take(8))

    def raw(self, nbytes: int) -> bytes:
        pos = self._take(nbytes)
        return self.blob[pos:pos + nbytes]

    def vc(self) -> VectorClock:
        pos = self._take(self._vc.size)
        return VectorClock._of(self._vc.unpack_from(self.blob, pos))

    def done(self) -> bool:
        return self.pos == len(self.blob)


# -- encoding ----------------------------------------------------------


def _encode_clocks(node) -> bytes:
    w = _Writer()
    w.vc(node.vc)
    for proc in range(node.config.nprocs):
        # peer_clock folds deferred observations so the checkpoint
        # carries the same value an eager-merging node would hold.
        w.vc(node.peer_clock(proc))
    return w.payload()


def _encode_pages(node) -> bytes:
    w = _Writer()
    copies = node.pagetable.copies
    w.u32(len(copies))
    for page in sorted(copies):
        copy = copies[page]
        w.u32(page)
        flags = ((1 if copy.valid else 0)
                 | (2 if copy.twin is not None else 0)
                 | (4 if copy.vc is not None else 0))
        w.u8(flags)
        w.raw(copy.buffer)
        if copy.twin is not None:
            w.raw(copy.twin)
        if copy.vc is not None:
            w.vc(copy.vc)
        w.u32(len(copy.written))
        for start, end in copy.written:
            w.pair(start, end)
        applied = copy.applied
        w.u32(len(applied))
        for proc in sorted(applied):
            w.pair(proc, applied[proc])
        pending = copy.pending_notices
        w.u32(len(pending))
        for notice in pending:
            w.pair(notice.proc, notice.index)
            w.vc(notice.vc)
    return w.payload()


def _encode_interval_log(node) -> bytes:
    w = _Writer()
    records = node.interval_log.all_records()
    w.u32(len(records))
    for record in records:
        w.pair(record.proc, record.index)
        w.vc(record.vc)
        pages = sorted(record.pages)
        w.u32(len(pages))
        for page in pages:
            w.u32(page)
        pending = record.pending_ranges
        w.u32(len(pending))
        for page in sorted(pending):
            w.u32(page)
            runs = pending[page]
            w.u32(len(runs))
            for start, end in runs:
                w.pair(start, end)
    return w.payload()


def _encode_diff_store(node) -> bytes:
    w = _Writer()
    diffs = node.diff_store._diffs
    w.u32(len(diffs))
    for proc, index, _page in sorted(diffs):
        blob = encode_diff(diffs[(proc, index, _page)])
        w.pair(proc, index)
        w.u32(len(blob))
        w.raw(blob)
    return w.payload()


def _encode_copysets(node) -> bytes:
    if node.config.nprocs > 64:
        raise CheckpointError(
            "copyset masks are serialized as u64; checkpointing needs "
            f"nprocs <= 64, machine has {node.config.nprocs}")
    w = _Writer()
    entries = node.copysets.items()
    w.u32(len(entries))
    for page, mask in entries:
        w.u32(page)
        w.u64(mask)
    return w.payload()


def _encode_protocol(node) -> bytes:
    protocol = node.protocol
    w = _Writer()
    orphan = protocol.orphan_notices
    w.u32(len(orphan))
    for page in sorted(orphan):
        notices = orphan[page]
        w.u32(page)
        w.u32(len(notices))
        for notice in notices.values():
            w.pair(notice.proc, notice.index)
            w.vc(notice.vc)
    own = protocol.own_page_intervals
    w.u32(len(own))
    for page in sorted(own):
        indices = own[page]
        w.u32(page)
        w.u32(len(indices))
        for index in indices:
            w.u32(index)
    unpropagated = protocol.unpropagated
    w.u32(len(unpropagated))
    for proc, index in sorted(unpropagated):
        w.pair(proc, index)
        pages = sorted(unpropagated[(proc, index)])
        w.u32(len(pages))
        for page in pages:
            w.u32(page)
    w.vc(protocol.last_barrier_vc)
    return w.payload()


def checkpoint_node(node) -> bytes:
    """Serialize ``node``'s complete DSM state into one RCKP blob."""
    protocol = node.protocol
    if protocol is None or not getattr(protocol, "supports_checkpoint",
                                       False):
        name = getattr(protocol, "name", protocol)
        raise CheckpointError(
            f"protocol {name!r} does not support checkpointing")
    sections = (
        (b"CLKS", _encode_clocks(node)),
        (b"PAGE", _encode_pages(node)),
        (b"ILOG", _encode_interval_log(node)),
        (b"DIFS", _encode_diff_store(node)),
        (b"CSET", _encode_copysets(node)),
        (b"PROT", _encode_protocol(node)),
    )
    parts = [_HEADER.pack(MAGIC, CHECKPOINT_VERSION,
                          WORD_SIZE, 0, node.proc,
                          node.config.nprocs,
                          node.config.words_per_page)]
    for tag, payload in sections:
        parts.append(_SECTION.pack(tag, len(payload)))
        parts.append(payload)
    return b"".join(parts)


# -- wiping ------------------------------------------------------------


def wipe_node(node) -> None:
    """Erase the node's DSM state in place, modeling the memory loss
    of a crash.  Container objects (and existing ``PageCopy``
    instances, as invalid husks) keep their identity so that frozen
    continuations stay wired to whatever :func:`restore_node` refills;
    every data field is cleared so nothing can survive a restore
    except through the checkpoint bytes."""
    for copy in node.pagetable.copies.values():
        copy.buffer[:] = bytes(len(copy.buffer))
        copy.twin = None
        copy.valid = False
        copy.written = []
        copy.pending_notices = []
        copy.vc = None
        copy.applied = {}
        copy.due_cache = None
    log = node.interval_log
    log._records.clear()
    log._by_proc.clear()
    node.diff_store._diffs.clear()
    node.copysets.clear()
    nprocs = node.config.nprocs
    node.vc = VectorClock.zero(nprocs)
    for proc in range(nprocs):
        node.peer_vc[proc] = VectorClock.zero(nprocs)
        node._peer_vc_pending[proc].clear()
    protocol = node.protocol
    protocol.orphan_notices.clear()
    protocol.own_page_intervals.clear()
    protocol.unpropagated.clear()
    protocol._dirty_pages.clear()
    protocol.last_barrier_vc = VectorClock.zero(nprocs)


# -- decoding / restore ------------------------------------------------


def _restore_clocks(reader: _Reader, node) -> None:
    node.vc = reader.vc()
    for proc in range(reader.nprocs):
        node.peer_vc[proc] = reader.vc()
        node._peer_vc_pending[proc].clear()


def _restore_pages(reader: _Reader, node,
                   words_per_page: int) -> None:
    copies = node.pagetable.copies
    count = reader.u32()
    seen = set()
    page_bytes = words_per_page * 8
    for _ in range(count):
        page = reader.u32()
        if page in seen:
            raise CheckpointError(f"duplicate page {page} in PAGE")
        seen.add(page)
        flags = reader.u8()
        if flags & ~0x7:
            raise CheckpointError(
                f"unknown page flags 0x{flags:02x}")
        copy = copies.get(page)
        if copy is None:
            copy = PageCopy(page, words_per_page)
            copies[page] = copy
        copy.set_values(reader.raw(page_bytes))
        copy.valid = bool(flags & 1)
        copy.twin = bytes(reader.raw(page_bytes)) \
            if flags & 2 else None
        copy.vc = reader.vc() if flags & 4 else None
        copy.written = [reader.pair() for _ in range(reader.u32())]
        if copy.written:
            # Keep the protocol's dirty-page index (which seals scan
            # instead of the whole page table) in sync with restored
            # written ranges.
            node.protocol._dirty_pages.add(page)
        copy.applied = dict(reader.pair()
                            for _ in range(reader.u32()))
        notices = []
        for _ in range(reader.u32()):
            proc, index = reader.pair()
            notices.append(WriteNotice(page=page, proc=proc,
                                       index=index, vc=reader.vc()))
        copy.pending_notices = notices
        copy.due_cache = None
    # Husk copies the checkpoint does not know about cannot exist: the
    # blob was taken from exactly this page table.
    stray = set(copies) - seen
    if stray:
        raise CheckpointError(
            f"page table holds pages absent from checkpoint: "
            f"{sorted(stray)}")


def _restore_interval_log(reader: _Reader, node) -> None:
    log = node.interval_log
    for _ in range(reader.u32()):
        proc, index = reader.pair()
        vc = reader.vc()
        pages = frozenset(reader.u32()
                          for _ in range(reader.u32()))
        pending: Dict[int, List[Tuple[int, int]]] = {}
        for _ in range(reader.u32()):
            page = reader.u32()
            pending[page] = [reader.pair()
                             for _ in range(reader.u32())]
        log.add_if_new(IntervalRecord(proc=proc, index=index, vc=vc,
                                      pages=pages,
                                      pending_ranges=pending))


def _restore_diff_store(reader: _Reader, node) -> None:
    store = node.diff_store
    for _ in range(reader.u32()):
        proc, index = reader.pair()
        blob = reader.raw(reader.u32())
        diff: Diff = decode_diff(blob)
        store.put(proc, index, diff)


def _restore_copysets(reader: _Reader, node) -> None:
    copysets = node.copysets
    for _ in range(reader.u32()):
        page = reader.u32()
        copysets.merge(page, reader.u64())


def _restore_protocol(reader: _Reader, node) -> None:
    protocol = node.protocol
    for _ in range(reader.u32()):
        page = reader.u32()
        notices = {}
        for _ in range(reader.u32()):
            proc, index = reader.pair()
            notice = WriteNotice(page=page, proc=proc, index=index,
                                 vc=reader.vc())
            notices[notice.interval_id] = notice
        protocol.orphan_notices[page] = notices
    for _ in range(reader.u32()):
        page = reader.u32()
        protocol.own_page_intervals[page] = [
            reader.u32() for _ in range(reader.u32())]
    for _ in range(reader.u32()):
        proc, index = reader.pair()
        protocol.unpropagated[(proc, index)] = {
            reader.u32() for _ in range(reader.u32())}
    protocol.last_barrier_vc = reader.vc()


_RESTORERS = {
    b"CLKS": _restore_clocks,
    b"ILOG": _restore_interval_log,
    b"DIFS": _restore_diff_store,
    b"CSET": _restore_copysets,
    b"PROT": _restore_protocol,
}


def restore_node(node, blob: bytes) -> None:
    """Refill ``node`` from an RCKP blob produced by
    :func:`checkpoint_node`.  The node is wiped first, so the restored
    state is a pure function of the bytes."""
    if len(blob) < _HEADER.size:
        raise CheckpointError(
            f"blob of {len(blob)} bytes is shorter than the "
            f"{_HEADER.size}-byte header")
    magic, version, word_size, flags, proc, nprocs, words_per_page = \
        _HEADER.unpack_from(blob, 0)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported version {version}")
    if flags != 0:
        raise CheckpointError(f"unknown flags 0x{flags:04x}")
    if proc != node.proc:
        raise CheckpointError(
            f"checkpoint of node {proc} restored on node {node.proc}")
    if nprocs != node.config.nprocs:
        raise CheckpointError(
            f"checkpoint for {nprocs} procs, machine has "
            f"{node.config.nprocs}")
    if word_size != WORD_SIZE:
        raise CheckpointError(
            f"word size mismatch: {word_size} vs {WORD_SIZE}")
    if words_per_page != node.config.words_per_page:
        raise CheckpointError(
            f"page geometry mismatch: {words_per_page} vs "
            f"{node.config.words_per_page} words per page")
    wipe_node(node)
    offset = _HEADER.size
    for expected in SECTION_ORDER:
        if offset + _SECTION.size > len(blob):
            raise CheckpointError(
                f"missing section {expected.decode()}")
        tag, length = _SECTION.unpack_from(blob, offset)
        if tag != expected:
            raise CheckpointError(
                f"expected section {expected.decode()}, found "
                f"{tag!r} at offset {offset}")
        offset += _SECTION.size
        if offset + length > len(blob):
            raise CheckpointError(
                f"section {expected.decode()} of {length} bytes "
                f"overruns the blob")
        reader = _Reader(blob[offset:offset + length], nprocs)
        if tag == b"PAGE":
            _restore_pages(reader, node, words_per_page)
        else:
            _RESTORERS[tag](reader, node)
        if not reader.done():
            raise CheckpointError(
                f"section {expected.decode()} has "
                f"{len(reader.blob) - reader.pos} trailing bytes")
        offset += length
    if offset != len(blob):
        raise CheckpointError(
            f"{len(blob) - offset} trailing bytes after last section")
