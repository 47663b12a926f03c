"""Cholesky: parallel sparse factorization with a task queue.

The paper's fine-grained workload, standing in for SPLASH Cholesky on
`bcsstk14` (which we cannot ship): a right-looking (fan-out) sparse
Cholesky factorization of a synthetic 2-D grid Laplacian — a classic
sparse SPD matrix with qualitatively similar structure.  Work is
distributed through a lock-protected queue of *ready columns*; every
column is additionally protected by its own lock while updates are
scattered into it.  The resulting synchronization rate (a few thousand
cycles of computation per lock operation) is what limits the paper's
Cholesky speedup to ~1.3 on any protocol (Figure 16).

Algorithm: when column j's remaining-update counter reaches zero it is
pushed onto the ready queue; a worker pops it, scales it (cdiv), then
applies cmod(t, j) to every column t in its structure, decrementing
t's counter.  The factor's fill pattern is computed symbolically up
front (elimination-tree based), exactly as SPLASH Cholesky separates
symbolic from numeric factorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Tuple

import numpy as np

from repro.apps.base import Application
from repro.core.api import DsmApi
from repro.core.machine import Machine
from repro.core.metrics import RunResult

#: Compute cycles: per value scaled in a cdiv / per multiply-add in a
#: cmod (fine grain -> ~4K cycles between off-node synchronizations).
CYCLES_PER_CDIV_ENTRY = 40.0
CYCLES_PER_CMOD_ENTRY = 16.0
BACKOFF_CYCLES = 1500.0

QUEUE_LOCK = 0
COLUMN_LOCK_BASE = 1


def grid_laplacian(k: int) -> np.ndarray:
    """Dense representation of the k*k 2-D grid Laplacian (SPD)."""
    n = k * k
    a = np.zeros((n, n))
    for row in range(k):
        for col in range(k):
            i = row * k + col
            a[i, i] = 4.0 + 0.1 * (i % 7)  # break symmetry of values
            for dr, dc in ((0, 1), (1, 0)):
                r2, c2 = row + dr, col + dc
                if r2 < k and c2 < k:
                    j = r2 * k + c2
                    a[i, j] = a[j, i] = -1.0
    return a


def symbolic_factorization(a: np.ndarray) -> List[List[int]]:
    """Fill pattern of L: ``structs[j]`` is the sorted list of row
    indices below the diagonal of column j (elimination-tree fill)."""
    n = len(a)
    # Python ints, not numpy scalars: the rows become lock ids, word
    # indices and page numbers, which traces write and dicts key on.
    structs = [set((np.nonzero(a[j + 1:, j])[0] + j + 1).tolist())
               for j in range(n)]
    for j in range(n):
        if structs[j]:
            parent = min(structs[j])
            structs[parent] |= structs[j] - {parent}
    return [sorted(s) for s in structs]


def sequential_cholesky(a: np.ndarray) -> np.ndarray:
    """Oracle: dense lower-triangular factor."""
    n = len(a)
    l = a.copy()
    for j in range(n):
        l[j, j] = np.sqrt(l[j, j])
        l[j + 1:, j] /= l[j, j]
        for t in range(j + 1, n):
            if l[t, j] != 0.0:
                l[t:, t] -= l[t, j] * l[t:, j]
    return np.tril(l)


@dataclass
class CholeskyShared:
    cols_seg: object
    meta_seg: object  # [0]=queue count, [1]=done count, [2:]=counters
    queue_seg: object
    structs: List[List[int]]
    col_ptr: List[int]
    n: int
    a: np.ndarray


class Cholesky(Application):
    """Sparse factorization of the k*k grid Laplacian (paper input:
    bcsstk14, n=1806; default scaled to k=6, n=36)."""

    name = "cholesky"

    def __init__(self, k: int = 6, cycle_scale: float = 1.0) -> None:
        if k < 2:
            raise ValueError("grid must be at least 2x2")
        self.k = k
        self.cycle_scale = cycle_scale
        self.a = grid_laplacian(k)
        self.n = k * k
        self.structs = symbolic_factorization(self.a)

    def setup(self, machine: Machine) -> CholeskyShared:
        n = self.n
        # Column slots: diagonal value followed by the structure rows.
        col_ptr = [0]
        for j in range(n):
            col_ptr.append(col_ptr[-1] + 1 + len(self.structs[j]))
        col_init = np.zeros(col_ptr[-1])
        for j in range(n):
            base = col_ptr[j]
            col_init[base] = self.a[j, j]
            for slot, row in enumerate(self.structs[j]):
                col_init[base + 1 + slot] = self.a[row, j]
        cols_seg = machine.allocate("chol_cols", col_ptr[-1],
                                    init=col_init, owner="striped")
        # Remaining-update counters.
        updates = np.zeros(n)
        for j in range(n):
            for t in self.structs[j]:
                updates[t] += 1
        meta_init = np.zeros(2 + n)
        meta_init[2:] = updates
        meta_seg = machine.allocate("chol_meta", 2 + n, init=meta_init)
        queue_seg = machine.allocate("chol_queue", n,
                                     init=np.zeros(n))
        # Entry-consistency annotations ('ec' protocol only): column
        # locks guard their column slots; the queue lock guards the
        # queue and the counters.
        for j in range(n):
            machine.bind_lock(COLUMN_LOCK_BASE + j, cols_seg,
                              col_ptr[j], col_ptr[j + 1])
        machine.bind_lock(QUEUE_LOCK, queue_seg)
        machine.bind_lock(QUEUE_LOCK, meta_seg)
        return CholeskyShared(cols_seg=cols_seg, meta_seg=meta_seg,
                              queue_seg=queue_seg, structs=self.structs,
                              col_ptr=col_ptr, n=n, a=self.a)

    # -- queue helpers (caller must hold QUEUE_LOCK) ------------------------

    @staticmethod
    def _push_ready(api: DsmApi, shared: CholeskyShared,
                    column: int) -> Generator:
        count = yield from api.read(shared.meta_seg, 0)
        yield from api.write(shared.queue_seg, int(count), column)
        yield from api.write(shared.meta_seg, 0, count + 1)

    @staticmethod
    def _pop_ready(api: DsmApi, shared: CholeskyShared) -> Generator:
        count = yield from api.read(shared.meta_seg, 0)
        if count < 1:
            return None
        column = yield from api.read(shared.queue_seg, int(count) - 1)
        yield from api.write(shared.meta_seg, 0, count - 1)
        return int(column)

    # -- the worker -----------------------------------------------------------

    def worker(self, api: DsmApi, proc: int,
               shared: CholeskyShared) -> Generator:
        result = yield from self.worker_thread(api, proc, 0, shared)
        return result

    def worker_thread(self, api: DsmApi, proc: int, thread: int,
                      shared: CholeskyShared) -> Generator:
        """One worker thread.  Thread 0 of each node performs the
        barriers and seeding/gathering; extra threads (the paper's
        multithreading extension, section 8) just pull tasks, hiding
        lock-acquisition latency behind each other's computation."""
        n = shared.n

        if proc == 0 and thread == 0:
            # Seed: columns with no incoming updates are ready.
            leaf_columns = [j for j in range(n)
                            if not any(j in shared.structs[k2]
                                       for k2 in range(j))]
            yield from api.acquire(QUEUE_LOCK)
            for j in leaf_columns:
                yield from self._push_ready(api, shared, j)
            yield from api.release(QUEUE_LOCK)
        if thread == 0:
            yield from api.barrier(0)

        columns_done = yield from self._work_loop(api, shared)

        result = None
        if thread == 0:
            yield from api.barrier(1)
            if proc == 0:
                # Gather the factor through the DSM for verification.
                values = yield from api.read_region(
                    shared.cols_seg, 0, shared.col_ptr[-1])
                result = values.tolist()
        return {"columns": columns_done, "factor": result}

    def _work_loop(self, api: DsmApi,
                   shared: CholeskyShared) -> Generator:
        n = shared.n
        columns_done = 0
        while True:
            yield from api.acquire(QUEUE_LOCK)
            column = yield from self._pop_ready(api, shared)
            done = yield from api.read(shared.meta_seg, 1)
            yield from api.release(QUEUE_LOCK)
            if column is None:
                if int(done) >= n:
                    break
                yield from api.compute(BACKOFF_CYCLES)
                continue
            yield from self._factor_column(api, shared, column)
            columns_done += 1
        return columns_done

    def _factor_column(self, api: DsmApi, shared: CholeskyShared,
                       j: int) -> Generator:
        structs = shared.structs
        base = shared.col_ptr[j]
        width = 1 + len(structs[j])
        # cdiv(j): scale the column by the square root of its diagonal.
        yield from api.acquire(COLUMN_LOCK_BASE + j)
        col = yield from api.read_region(shared.cols_seg, base,
                                         base + width)
        diag = np.sqrt(col[0])
        scaled = col.copy()
        scaled[0] = diag
        scaled[1:] = col[1:] / diag
        yield from api.write_region(shared.cols_seg, base, base + width,
                                    scaled)
        yield from api.release(COLUMN_LOCK_BASE + j)
        yield from api.compute(width * CYCLES_PER_CDIV_ENTRY
                               * self.cycle_scale)

        # cmod(t, j) for every t in struct(j).
        ready: List[int] = []
        rows = structs[j]
        for slot, t in enumerate(rows):
            lj_t = scaled[1 + slot]
            # Overlap of struct(j) (below t) with column t's slots.
            t_base = shared.col_ptr[t]
            t_rows = structs[t]
            t_width = 1 + len(t_rows)
            yield from api.acquire(COLUMN_LOCK_BASE + t)
            t_col = yield from api.read_region(
                shared.cols_seg, t_base, t_base + t_width)
            t_col[0] -= lj_t * lj_t
            index_of = {row: 1 + s for s, row in enumerate(t_rows)}
            touched = 1
            for s2 in range(slot + 1, len(rows)):
                row = rows[s2]
                t_col[index_of[row]] -= lj_t * scaled[1 + s2]
                touched += 1
            yield from api.write_region(
                shared.cols_seg, t_base, t_base + t_width, t_col)
            remaining = yield from api.read(shared.meta_seg, 2 + t)
            yield from api.write(shared.meta_seg, 2 + t, remaining - 1)
            yield from api.release(COLUMN_LOCK_BASE + t)
            yield from api.compute(touched * CYCLES_PER_CMOD_ENTRY
                                   * self.cycle_scale)
            if int(remaining) - 1 == 0:
                ready.append(t)
        yield from api.acquire(QUEUE_LOCK)
        for t in ready:
            yield from self._push_ready(api, shared, t)
        done = yield from api.read(shared.meta_seg, 1)
        yield from api.write(shared.meta_seg, 1, done + 1)
        yield from api.release(QUEUE_LOCK)

    def finish(self, machine: Machine, shared: CholeskyShared,
               result: RunResult) -> None:
        factor = result.app_result[0]["factor"]
        if factor is None:
            raise AssertionError("proc 0 returned no factor")
        n = shared.n
        l = np.zeros((n, n))
        for j in range(n):
            base = shared.col_ptr[j]
            l[j, j] = factor[base]
            for slot, row in enumerate(shared.structs[j]):
                l[row, j] = factor[base + 1 + slot]
        reconstructed = l @ l.T
        if not np.allclose(reconstructed, shared.a, atol=1e-8):
            worst = np.abs(reconstructed - shared.a).max()
            raise AssertionError(
                f"Cholesky factor wrong: max |LL^T - A| = {worst} "
                f"(protocol {result.protocol}, {result.nprocs} procs)")
        total = sum(r["columns"] for r in result.app_result)
        if total != n:
            raise AssertionError(
                f"factored {total} columns, expected {n}")
