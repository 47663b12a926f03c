"""Application-facing shared-memory API.

Applications run as generators and interact with the DSM through a
:class:`DsmApi` handle: region reads/writes on shared segments (which
fault at page granularity, exactly like the mprotect-based systems the
paper models), lock acquire/release, global barriers, and explicit
computation charging.

All blocking operations are generators — call them with ``yield from``:

    def worker(api, proc, nprocs):
        yield from api.acquire(0)
        value = yield from api.read(counter, 0)
        yield from api.write(counter, 0, value + 1)
        yield from api.release(0)
        yield from api.barrier(0)
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence, Union

import numpy as np

from repro.mem.addressing import Segment


class DsmApi:
    """Per-node handle applications use for every shared operation."""

    def __init__(self, node) -> None:
        self._node = node
        self.proc = node.proc
        self.nprocs = node.config.nprocs

    # -- shared data -----------------------------------------------------

    def read_region(self, segment: Segment, start: int,
                    end: int) -> Generator:
        """Read words [start, end) of ``segment``; returns a numpy copy.
        Faults (and pays for) any page that is not locally valid."""
        node = self._node
        protocol = node.protocol
        get_copy = node.pagetable.copies.get
        # No-miss fast path: a valid local copy means ensure_valid
        # would return without yielding (true for every protocol's
        # read side), so skip the generator machinery entirely.
        hit_ok = protocol.valid_copy_serves_reads
        # Single-page read (the common case for word and row
        # accesses): inline page arithmetic, one numpy slice copy, no
        # staging buffer.  The guard re-states page_ranges' bounds
        # check; anything it rejects falls through to the general path
        # (which raises the canonical IndexError).
        count = end - start
        if count <= 0 or start < 0 or end > segment.nwords:
            # Degenerate or bad range: page_ranges raises the canonical
            # IndexError for bad bounds and yields nothing when empty.
            for _ in segment.page_ranges(start, end):
                pass
            return np.empty(0, dtype=np.float64)
        wpp = segment.words_per_page
        page, lo = divmod(segment.base_word + start, wpp)
        hi = lo + count
        if hi <= wpp:
            copy = get_copy(page)
            if copy is None or not copy.valid or not hit_ok:
                yield from protocol.ensure_valid(page, for_write=False)
                copy = get_copy(page)
            return copy.values[lo:hi].copy()
        out = np.empty(count, dtype=np.float64)
        cursor = 0
        hi = wpp
        while True:
            copy = get_copy(page)
            if copy is None or not copy.valid or not hit_ok:
                yield from protocol.ensure_valid(page, for_write=False)
                copy = get_copy(page)
            chunk = hi - lo
            out[cursor:cursor + chunk] = copy.values[lo:hi]
            cursor += chunk
            if cursor == count:
                return out
            page += 1
            lo = 0
            hi = min(wpp, count - cursor)

    def write_region(self, segment: Segment, start: int, end: int,
                     values: Union[np.ndarray, Sequence[float], float]
                     ) -> Generator:
        """Write ``values`` into words [start, end) of ``segment``."""
        node = self._node
        protocol = node.protocol
        get_copy = node.pagetable.copies.get
        hit_ok = protocol.valid_copy_serves_writes
        if np.isscalar(values):
            values = np.full(end - start, float(values))
        else:
            values = np.asarray(values, dtype=np.float64)
            if len(values) != end - start:
                raise ValueError(
                    f"write of {len(values)} values into "
                    f"[{start},{end})")
        count = end - start
        if count <= 0 or start < 0 or end > segment.nwords:
            for _ in segment.page_ranges(start, end):
                pass
            return
        wpp = segment.words_per_page
        page, lo = divmod(segment.base_word + start, wpp)
        hi = lo + count
        if hi <= wpp:
            copy = get_copy(page)
            if copy is None or not copy.valid or not hit_ok:
                yield from protocol.ensure_valid(page, for_write=True)
                copy = get_copy(page)
            copy.values[lo:hi] = values
            protocol.record_write(page, lo, hi)
            return
        cursor = 0
        hi = wpp
        while True:
            copy = get_copy(page)
            if copy is None or not copy.valid or not hit_ok:
                yield from protocol.ensure_valid(page, for_write=True)
                copy = get_copy(page)
            chunk = hi - lo
            copy.values[lo:hi] = values[cursor:cursor + chunk]
            protocol.record_write(page, lo, hi)
            cursor += chunk
            if cursor == count:
                return
            page += 1
            lo = 0
            hi = min(wpp, count - cursor)

    def read(self, segment: Segment, index: int) -> Generator:
        """Read a single word."""
        # Hit fast path: no one-element array in or out.  A miss or a
        # bad index takes the region path (its fault, its IndexError).
        if 0 <= index < segment.nwords:
            node = self._node
            page, offset = divmod(segment.base_word + index,
                                  segment.words_per_page)
            copy = node.pagetable.copies.get(page)
            if (copy is not None and copy.valid
                    and node.protocol.valid_copy_serves_reads):
                return float(copy.values[offset])
        value = yield from self.read_region(segment, index, index + 1)
        return float(value[0])

    def write(self, segment: Segment, index: int,
              value: float) -> Generator:
        """Write a single word."""
        # Hit fast path for a real scalar, as in read(); anything else
        # (a miss, an SC write, a bad index, an exotic value) takes the
        # region path unchanged.
        if 0 <= index < segment.nwords and isinstance(value, (int, float)):
            node = self._node
            protocol = node.protocol
            page, offset = divmod(segment.base_word + index,
                                  segment.words_per_page)
            copy = node.pagetable.copies.get(page)
            if (copy is not None and copy.valid
                    and protocol.valid_copy_serves_writes):
                copy.values[offset] = value
                protocol.record_write(page, offset, offset + 1)
                return
        yield from self.write_region(segment, index, index + 1,
                                     np.array([value]))

    def touch(self, segment: Segment, start: int,
              end: int) -> Generator:
        """Fault pages covering [start, end) in without reading data
        (used to model read-mostly scans cheaply)."""
        node = self._node
        protocol = node.protocol
        get_copy = node.pagetable.copies.get
        hit_ok = protocol.valid_copy_serves_reads
        for page, _lo, _hi in segment.page_ranges(start, end):
            copy = get_copy(page)
            if copy is None or not copy.valid or not hit_ok:
                yield from protocol.ensure_valid(page, for_write=False)

    # -- synchronization ------------------------------------------------------

    def acquire(self, lock_id: int) -> Generator:
        node = self._node
        started = node.sim.now
        yield from node.lock_manager.acquire(lock_id)
        waited = node.sim.now - started
        node.ins.lock_wait.observe(waited)
        if node.tracer.sink.enabled:
            node.tracer.emit("sync.lock_acquired", lock=lock_id,
                             node=node.proc, wait_cycles=waited)

    # release, barrier and compute return the layer below's generator
    # instead of wrapping it in one more frame; ``yield from`` runs it
    # all the same.

    def release(self, lock_id: int) -> Generator:
        return self._node.lock_manager.release(lock_id)

    def barrier(self, barrier_id: int) -> Generator:
        return self._node.barrier_manager.barrier(barrier_id)

    # -- computation --------------------------------------------------------------

    def compute(self, cycles: float) -> Generator:
        """Charge local computation time (slowed by message handling)."""
        return self._node.compute(cycles)

    @property
    def now(self) -> float:
        return self._node.sim.now

    @property
    def config(self):
        """The machine configuration (cycle conversions, seed)."""
        return self._node.config

    @property
    def tracer(self):
        """The run's tracer; guard emission with ``tracer.sink.enabled``."""
        return self._node.tracer
