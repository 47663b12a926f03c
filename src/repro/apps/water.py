"""Water: SPLASH-style molecular dynamics (medium-grained).

The paper's medium-grained workload, standing in for SPLASH Water
(which we cannot ship): N molecules, each protected by its own lock,
iterated for a number of steps.  Every step has the structure of
Water's force/update phases:

1. *force phase*: each processor computes pairwise interactions between
   its owned molecules and the following N/2 molecules (Newton's third
   law halving), accumulates contributions locally, then adds them into
   each touched molecule's global force slot under that molecule's lock
   — the migratory, lock-per-record pattern the hybrid protocol loves;
2. *update phase* (after a barrier): each owner integrates its own
   molecules' positions from the accumulated forces.

Molecule records are a few words, so dozens share a page: heavy false
sharing, exactly as in the paper ("the relatively small size of the
molecule structure in comparison with the size of a page... creates a
large amount of false sharing").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Generator, List, Sequence, Tuple

import numpy as np

from repro.apps.base import Application, block_range
from repro.core.api import DsmApi
from repro.core.machine import Machine
from repro.core.metrics import RunResult

#: Cycles per pairwise interaction evaluated (calibrated to the paper's
#: ~19K cycles between off-node synchronizations at 16 processors).
CYCLES_PER_PAIR = 110.0
#: Cycles to integrate one molecule's position.
CYCLES_PER_UPDATE = 260.0

#: Words per molecule record in the force/position arrays (3 coordinates
#: plus padding; small enough that many molecules share one page).
MOL_WORDS = 4

#: Lock ids 0..nmols-1 are the per-molecule locks.
BOX = 100.0


def initial_positions(nmols: int, seed: int = 11) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.uniform(0.0, BOX, size=(nmols, 3))


def pair_force(pos_i: Sequence[float], pos_j: Sequence[float],
               cutoff: float) -> Tuple[float, float, float]:
    """Soft inverse-square interaction with a spherical cutoff, with
    minimum-image wraparound (periodic box).

    The force tapers continuously to zero at the cutoff so that the
    last-bit position differences caused by parallel accumulation
    order cannot flip a pair in or out of range discontinuously —
    keeping parallel runs bit-comparable to the sequential oracle.

    Plain floats in numpy's operation order (``round`` is half-to-even
    like ``np.round``; the squared distance sums left to right like
    numpy's three-element sum), so each component equals the numpy
    3-vector formulation bit for bit — tests/apps/test_water.py keeps
    that formulation as the reference.  A numpy call per pair costs
    several times the arithmetic it does."""
    xi, yi, zi = pos_i
    xj, yj, zj = pos_j
    dx = xi - xj
    dx -= BOX * round(dx / BOX)
    dy = yi - yj
    dy -= BOX * round(dy / BOX)
    dz = zi - zj
    dz -= BOX * round(dz / BOX)
    dist2 = dx * dx + dy * dy + dz * dz
    cutoff2 = cutoff * cutoff
    if dist2 >= cutoff2 or dist2 == 0.0:
        return 0.0, 0.0, 0.0
    taper = 1.0 - dist2 / cutoff2
    scale = dist2 + 1.0
    return dx / scale * taper, dy / scale * taper, dz / scale * taper


def _accumulate(forces, i: int, j: int,
                force: Tuple[float, float, float]) -> None:
    """Newton's third law: add ``force`` to molecule i's ``[x, y, z]``
    accumulator ``forces[i]`` and subtract it from ``forces[j]``,
    component by component."""
    fx, fy, fz = force
    acc = forces[i]
    acc[0] += fx
    acc[1] += fy
    acc[2] += fz
    acc = forces[j]
    acc[0] -= fx
    acc[1] -= fy
    acc[2] -= fz


def sequential_forces(positions: np.ndarray,
                      cutoff: float) -> np.ndarray:
    """Oracle for one force phase over all pairs (i, i+1..i+n/2)."""
    n = len(positions)
    half = n // 2
    coords = positions.tolist()
    forces = [[0.0, 0.0, 0.0] for _ in range(n)]
    for i in range(n):
        for k in range(1, half + 1):
            j = (i + k) % n
            if n % 2 == 0 and k == half and i >= j:
                continue  # count the diametric pair only once
            _accumulate(forces, i, j,
                        pair_force(coords[i], coords[j], cutoff))
    return np.array(forces)


@dataclass
class WaterShared:
    pos_seg: object
    force_seg: object
    nmols: int
    steps: int
    cutoff: float


class Water(Application):
    """Molecular dynamics (paper: 288 molecules, 2 steps)."""

    name = "water"

    def __init__(self, nmols: int = 64, steps: int = 2,
                 cutoff: float = BOX / 2, seed: int = 11,
                 cycles_per_pair: float = CYCLES_PER_PAIR) -> None:
        if nmols < 4:
            raise ValueError("need at least 4 molecules")
        self.nmols = nmols
        self.steps = steps
        self.cutoff = cutoff
        self.seed = seed
        self.cycles_per_pair = cycles_per_pair
        self.positions = initial_positions(nmols, seed)

    def setup(self, machine: Machine) -> WaterShared:
        nwords = self.nmols * MOL_WORDS
        pos_init = np.zeros(nwords)
        for i in range(self.nmols):
            pos_init[i * MOL_WORDS:i * MOL_WORDS + 3] = \
                self.positions[i]
        pos_seg = machine.allocate("water_pos", nwords, init=pos_init,
                                   owner="block")
        force_seg = machine.allocate("water_force", nwords,
                                     init=np.zeros(nwords),
                                     owner="block")
        # Entry-consistency annotations: molecule i's lock guards its
        # force record (used only by the 'ec' protocol).
        for i in range(self.nmols):
            machine.bind_lock(i, force_seg, i * MOL_WORDS,
                              i * MOL_WORDS + 3)
        return WaterShared(pos_seg=pos_seg, force_seg=force_seg,
                           nmols=self.nmols, steps=self.steps,
                           cutoff=self.cutoff)

    def worker(self, api: DsmApi, proc: int,
               shared: WaterShared) -> Generator:
        n = shared.nmols
        half = n // 2
        owned = block_range(n, api.nprocs, proc)
        checksum = 0.0
        for step in range(shared.steps):
            # ---- force phase -------------------------------------------------
            # Read every position we will interact with (the whole
            # array: with a half-box cutoff most molecules interact).
            pos_words = yield from api.read_region(
                shared.pos_seg, 0, n * MOL_WORDS)
            positions = pos_words.reshape(n, MOL_WORDS)[:, :3].tolist()
            # Per-molecule float triples, created on a molecule's first
            # nonzero contribution.
            local: Dict[int, List[float]] = defaultdict(
                lambda: [0.0, 0.0, 0.0])
            pairs = 0
            for i in owned:
                for k in range(1, half + 1):
                    j = (i + k) % n
                    if n % 2 == 0 and k == half and i >= j:
                        continue
                    force = pair_force(positions[i], positions[j],
                                       shared.cutoff)
                    pairs += 1
                    # any(): a pair with every component zero (-0.0
                    # included) touches no molecule.
                    if any(force):
                        _accumulate(local, i, j, force)
            yield from api.compute(pairs * self.cycles_per_pair)
            # Fold local accumulations into the global force array,
            # one molecule lock at a time (migratory sharing).
            for mol in sorted(local):
                base = mol * MOL_WORDS
                yield from api.acquire(mol)
                current = yield from api.read_region(
                    shared.force_seg, base, base + 3)
                yield from api.write_region(
                    shared.force_seg, base, base + 3,
                    current + local[mol])
                yield from api.release(mol)
            yield from api.barrier(0)
            # ---- update phase ------------------------------------------------
            for i in owned:
                base = i * MOL_WORDS
                force = yield from api.read_region(shared.force_seg,
                                                   base, base + 3)
                pos = yield from api.read_region(shared.pos_seg,
                                                 base, base + 3)
                new_pos = (pos + 0.01 * force) % BOX
                yield from api.write_region(shared.pos_seg, base,
                                            base + 3, new_pos)
                yield from api.write_region(shared.force_seg, base,
                                            base + 3, np.zeros(3))
                # Newton's third law makes the plain sum cancel to ~0,
                # so checksum absolute magnitudes instead.
                checksum += float(np.abs(force).sum())
            yield from api.compute(len(owned) * CYCLES_PER_UPDATE)
            yield from api.barrier(1)
        return checksum

    def finish(self, machine: Machine, shared: WaterShared,
               result: RunResult) -> None:
        """Replay the run sequentially and compare force checksums."""
        positions = self.positions.copy()
        expected = 0.0
        for _step in range(shared.steps):
            forces = sequential_forces(positions, shared.cutoff)
            expected += float(np.abs(forces).sum())
            positions = (positions + 0.01 * forces) % BOX
        got = sum(result.app_result)
        if abs(got - expected) > 1e-6 * max(1.0, abs(expected)):
            raise AssertionError(
                f"Water force checksum mismatch: got {got}, expected "
                f"{expected} (protocol {result.protocol}, "
                f"{result.nprocs} procs)")
