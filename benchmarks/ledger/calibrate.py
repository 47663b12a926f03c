"""The frozen calibration kernel behind "normalised seconds".

Host speed on a shared sandbox drifts by more than the 10 % a
regression gate has to resolve, so the ledger never gates a raw time.
Every timed region is bracketed by runs of :func:`calibration_kernel`;
the sample is the *paired ratio* ``region_wall / calibration_wall``
and a metric is the median of those ratios times
:data:`CAL_NOMINAL_S`.  A normalised second is therefore "a second on
a host where this kernel takes exactly 40 ms", whatever the sandbox is
doing today.

Both sides of the ratio are **wall seconds** (``time.perf_counter``):
what a user waits for, including anything a later change moves into a
child process, a pool or blocking I/O.  Process CPU seconds
(``time.process_time``) are recorded beside every sample, un-gated;
the simulator is single-threaded and does no I/O inside a repetition,
so today the two clocks agree to within 1 % (ten driver runs each of
three workloads: wall and CPU medians differed by under 0.6 % and
their spreads by under 1 point), and a gap opening between them is
itself a finding.

The kernel exercises what the simulator's inner loops are made of —
heap push/pop, deque append/popleft, generator ``send``, dict store —
so interpreter-level slowdowns hit both sides of the ratio alike.  It
is pure (no I/O, no clock, no randomness, no state kept between
calls; its inputs are constants built at import) and takes no seed.

DO NOT EDIT after the PR that added it: every ledger row is expressed
in units of this function's running time, so changing one line
silently rescales the whole history.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Tuple

#: What one kernel run took on the reference sandbox; the constant
#: that turns a paired ratio back into (normalised) seconds.
CAL_NOMINAL_S = 0.040

_ITERATIONS = 44_000

#: Kernel runs per calibration sample.  One 40 ms run reads +-8 % from
#: one run to the next on the reference sandbox, and on the slowest
#: workloads (nine repetitions in a driver run) that noise, not the
#: repetition's own, set the spread of the median.
RUNS_PER_SAMPLE = 3


#: The kernel's inputs, built once at import: a run then allocates
#: next to nothing, so its time does not depend on how fragmented the
#: preceding workload left the allocator (with per-run tuples, the
#: first two runs after a cholesky repetition took 2x and 1.5x).
_ITEMS = tuple(((i * 7919) % 1021, i) for i in range(_ITERATIONS))


def _echo():
    value = 0
    while True:
        value = (yield value) + 1


def calibration_kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum so the
    work cannot be skipped and purity is testable."""
    heap: list = []
    ready: deque = deque()
    table: dict = {}
    echo = _echo()
    next(echo)
    push = heapq.heappush
    pop = heapq.heappop
    total = 0
    for item in _ITEMS:
        key, i = item
        push(heap, item)
        ready.append(i)
        table[key] = i
        total += echo.send(i)
        if i & 3 == 3:
            total += pop(heap)[1] + ready.popleft()
    while heap:
        total += pop(heap)[0]
    return total + len(table) + len(ready)


def clocks() -> Tuple[float, float]:
    """``(wall seconds, process CPU seconds)`` now; take it before
    and after a region and subtract."""
    return time.perf_counter(), time.process_time()


def calibration_sample() -> Tuple[float, float]:
    """``(wall seconds, CPU seconds)`` per kernel run, averaged over
    :data:`RUNS_PER_SAMPLE` back-to-back runs: the denominator of a
    paired ratio, and its un-gated CPU twin."""
    wall, cpu = clocks()
    for _ in range(RUNS_PER_SAMPLE):
        calibration_kernel()
    wall_after, cpu_after = clocks()
    return ((wall_after - wall) / RUNS_PER_SAMPLE,
            (cpu_after - cpu) / RUNS_PER_SAMPLE)


def normalised(seconds: float, calibration: float) -> float:
    """Normalised seconds of a region that took ``seconds`` right
    after a calibration sample of ``calibration`` seconds (both on
    the same clock)."""
    return seconds / calibration * CAL_NOMINAL_S
