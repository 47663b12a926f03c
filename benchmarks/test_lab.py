"""Harness benchmark: does the process pool beat serial resolution?

Runs the protocol x application grid (5 protocols x Jacobi/Water, 8
processors, ATM) serially in-process and fanned over a process pool,
and asserts ``parallel_speedup > 1.0``.  It is the one gate nothing
else measures: that both strategies produce the same bytes and that a
warm cache executes nothing are tier-1 tests (``tests/lab``) and the
two CI report steps; the cost of the lab's parts is the repo
benchmark's ``lab.k_*`` kernels (``benchmarks/ledger``).

Methodology (docs/performance.md): serial and parallel rounds are
*interleaved* and the best of each is compared, so multi-second slow
epochs on a shared machine hit both strategies instead of whichever
ran second.  Each pool is warmed before its timed batch, so its
one-time startup cost is reported apart from the batch wall time.  The
worker count is the requested ``jobs`` clamped to twice the CPUs
actually available to this process (``Lab.effective_jobs`` over
``available_cpus()`` — affinity mask and cgroup quota, not the host's
core count), so the pool neither loses to serial by oversubscribing a
small container nor serializes on a quota-limited runner.
"""

import time

from benchmarks.conftest import SCALE, run_once
from repro.analysis.experiments import APP_PARAMS
from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec
from repro.protocols import PROTOCOL_NAMES

JOBS = 4
ROUNDS = 4

#: Tiny spec executed (untimed) in each fresh pool before its timed
#: batch: later *serial* rounds run in a long-warm parent process, so
#: the workers get their lazy-initialization cold paths out of the
#: way too.  Pool spin-up cost is reported separately by design.
_WARMUP = RunSpec("jacobi", dict(n=16, iterations=1), protocol="lh",
                  config=MachineConfig(nprocs=2,
                                       network=NetworkConfig.atm()))


def _specs():
    return [RunSpec(app, APP_PARAMS[SCALE][app], protocol=protocol,
                    config=MachineConfig(nprocs=8,
                                         network=NetworkConfig.atm()))
            for app in ("jacobi", "water")
            for protocol in PROTOCOL_NAMES]


def _serial_round(specs, cache_dir):
    # The serial lab writes its own disk cache so both strategies pay
    # identical serialization/cache costs (the speedup then isolates
    # the executor, not cache asymmetry).
    lab = Lab(cache_dir=cache_dir)
    started = time.perf_counter()
    lab.run_many(specs)
    return time.perf_counter() - started


def _parallel_round(specs, cache_dir):
    with Lab(jobs=JOBS, cache_dir=cache_dir) as lab:
        startup = lab.warm()
        lab.run_many([_WARMUP])
        started = time.perf_counter()
        lab.run_many(specs)
        wall = time.perf_counter() - started
        return wall, startup, lab.effective_jobs


def test_lab_pool_beats_serial(benchmark, tmp_path):
    specs = _specs()

    serial_walls, parallel_walls, startups = [], [], []
    for i in range(ROUNDS):
        cache = tmp_path / f"serial-{i}"
        if i == 0:
            wall = run_once(benchmark,
                            lambda: _serial_round(specs, cache))
        else:
            wall = _serial_round(specs, cache)
        serial_walls.append(wall)

        wall, startup, effective_jobs = _parallel_round(
            specs, tmp_path / f"parallel-{i}")
        parallel_walls.append(wall)
        startups.append(startup)

    serial_wall = min(serial_walls)
    parallel_wall = min(parallel_walls)
    parallel_speedup = serial_wall / parallel_wall
    print(f"\nlab: serial {serial_wall:.1f}s, jobs={JOBS} "
          f"(effective {effective_jobs}) {parallel_wall:.1f}s "
          f"({parallel_speedup:.2f}x, startup {min(startups):.2f}s)")
    assert parallel_speedup > 1.0, (
        f"the pool ({effective_jobs} workers, best "
        f"{parallel_wall:.2f}s of {ROUNDS}) is no faster than serial "
        f"resolution (best {serial_wall:.2f}s)")
