"""The experiment harness: fan run specs out, cache every result.

One :class:`Lab` owns three tiers of result resolution:

1. an **in-memory memo** (per-``Lab`` dict) — dedupes identical specs
   within a session, e.g. the one-processor baselines every figure
   driver needs;
2. the **on-disk content-addressed cache** (optional ``cache_dir``) —
   survives across processes and sessions;
3. **execution**, either in-process (``jobs=None``) or across a
   ``concurrent.futures`` process pool — the same worker function
   either way, so a failing run is isolated and every result is the
   restored (``RunResult.from_dict``) kind whichever tier served it.

Everything the harness does is observable through its own
``lab.*``-catalogued :class:`repro.obs.MetricsRegistry` (jobs run,
cache hits per tier, retries, failures, wall time, worker
utilization) — the warm-cache CI gate reads it.
"""

from __future__ import annotations

import gc
import os
import sys
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    wait
from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence

from repro.core.metrics import RunResult
from repro.lab.cache import ResultCache
from repro.lab.spec import RunSpec, code_version, execute_spec
from repro.obs import LAB_CATALOG, MetricsRegistry, install

#: Default on-disk cache location (CLI ``--cache-dir`` default).
DEFAULT_CACHE_DIR = ".repro-cache"

#: cgroup CPU-quota files (module constants so tests can point them
#: at fixtures).  v2: ``max 100000`` or ``200000 100000``
#: (quota period); v1: quota and period in separate files, quota -1
#: when unlimited.
_CGROUP_V2_CPU_MAX = "/sys/fs/cgroup/cpu.max"
_CGROUP_V1_QUOTA = "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"
_CGROUP_V1_PERIOD = "/sys/fs/cgroup/cpu/cpu.cfs_period_us"

#: Times a chunk is resubmitted after its *pool* broke (a killed
#: worker takes every in-flight future with it, and nothing says
#: those runs were attempted).  A run that raised is never re-run:
#: the simulator is deterministic, so it would raise again.
_POOL_RESUBMITS = 1


def _read_first_line(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.readline().strip()
    except OSError:
        return None


def _cgroup_cpus() -> Optional[int]:
    """CPUs allowed by the container's CPU quota, or None when
    unlimited/undetectable.  Fractional quotas round up: a 1.5-CPU
    container can keep two workers busy part-time."""
    fields = (_read_first_line(_CGROUP_V2_CPU_MAX) or "").split()
    if len(fields) != 2 or fields[0] == "max":
        fields = [_read_first_line(_CGROUP_V1_QUOTA),
                  _read_first_line(_CGROUP_V1_PERIOD)]
    try:
        quota, period = float(fields[0]), float(fields[1])
    except (TypeError, ValueError):    # file missing, or garbage
        return None
    if quota > 0 and period > 0:
        return max(1, -(-int(quota) // int(period)))
    return None


def available_cpus() -> int:
    """CPUs this process can actually use, not what the host has.

    Resolution order: the ``REPRO_LAB_CPUS`` env override, then the
    minimum of every signal that answers (scheduler affinity mask,
    cgroup v2/v1 CPU quota, ``os.cpu_count()``).  Containers routinely
    make ``os.cpu_count()`` wrong in both directions."""
    override = os.environ.get("REPRO_LAB_CPUS")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    signals = []
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            signals.append(len(getaffinity(0)))
        except OSError:
            pass
    quota = _cgroup_cpus()
    if quota is not None:
        signals.append(quota)
    count = os.cpu_count()
    if count:
        signals.append(count)
    return max(1, min(signals)) if signals else 1


class LabError(RuntimeError):
    """One or more runs of a batch failed (raised after the whole
    batch settles; healthy siblings stay memoized)."""

    def __init__(self, failures: Sequence["LabFailure"]) -> None:
        self.failures = list(failures)
        lines = [f"{len(self.failures)} run(s) failed:"]
        for failure in self.failures[:5]:
            lines.append(f"  {failure.spec.label()}: {failure.error}")
        if len(self.failures) > 5:
            lines.append(f"  ... and {len(self.failures) - 5} more")
        super().__init__("\n".join(lines))


@dataclass
class LabFailure:
    """Failure record for one spec (see :attr:`LabError.failures`)."""

    spec: RunSpec
    fingerprint: str
    error: str
    traceback: str


def _warm_worker(version: str) -> None:
    """Process-pool initializer: runs once per worker, at fork time.

    Seeds the code-version memo (so no worker re-hashes the source
    tree), pays the heavy imports up front instead of inside the first
    real run, and tunes the collector for simulation throughput: the
    startup heap is frozen out of every pass, and the gen-0 threshold
    is raised — the simulator allocates heavily but builds few
    long-lived cycles, so prompt collection only costs time in a
    short-lived worker (simulation results are GC-independent)."""
    from repro.lab import spec as spec_module
    spec_module._code_version_cache = version
    import repro.apps  # noqa: F401  - import cost paid at startup
    import repro.core.runner  # noqa: F401
    gc.collect()
    if hasattr(gc, "freeze"):
        gc.freeze()
    gc.set_threshold(50_000, 25, 25)


def _noop(_: int) -> None:
    """Warm-up ping: forces worker spawn so startup cost is measured
    (and paid) before the first real batch."""
    return None


def _failed(fingerprint: str, exc: BaseException,
            seconds: float = 0.0) -> dict:
    """The outcome dict of a spec that did not produce a result (call
    it inside the ``except`` block: it formats the live traceback)."""
    return {"fingerprint": fingerprint, "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(), "seconds": seconds}


def _execute_payload(payload: dict) -> dict:
    """Run one serialized spec and hand the serialized result back —
    in a pool worker or, for ``jobs=None``, in this process.  Must
    stay a module-level function so the pool can pickle it; a run
    that raises is reported as data so it never kills the batch."""
    started = time.perf_counter()
    try:
        result = execute_spec(RunSpec.from_dict(payload["spec"]))
        return {"fingerprint": payload["fingerprint"], "ok": True,
                "result": result.to_dict(),
                "seconds": time.perf_counter() - started}
    except Exception as exc:  # noqa: BLE001 - isolation boundary
        return _failed(payload["fingerprint"], exc,
                       time.perf_counter() - started)


def _execute_payload_batch(payloads: Sequence[dict]) -> List[dict]:
    """Run a chunk of specs in one worker task: small runs are chunked
    so per-future pickling and IPC overhead amortizes (a per-spec
    future made the pool slower than serial at bench scale).  Each
    spec's outcome is still isolated — one failure never poisons its
    chunk-mates."""
    outcomes = [_execute_payload(payload) for payload in payloads]
    # With the raised thresholds from _warm_worker, dead machine
    # graphs (which are cyclic) pile up across runs and progressively
    # slow the worker; one full collection per chunk caps the heap at
    # negligible amortized cost.
    gc.collect()
    return outcomes


class Lab:
    """Parallel experiment runner with a content-addressed cache.

    >>> lab = Lab(jobs=4, cache_dir=".repro-cache")
    >>> results = lab.run_many([RunSpec("jacobi", {"n": 48, ...})])

    ``jobs=None`` (the default) executes misses serially in-process —
    the right mode for library callers and tests; any integer >= 1
    spins up a process pool of that size.  ``cache=False`` disables
    memoization entirely (every spec executes); ``cache_dir=None``
    keeps the memo but skips the disk tier.  Whichever tier serves a
    spec, the result is one restored by ``RunResult.from_dict`` — an
    executed run is serialized and restored like a cached one, so
    ``app_result`` is JSON-shaped everywhere.  A spec that asks for a
    capture (``RunSpec.trace``, ``RunSpec.window_us``) gets it back on
    the result from every tier alike.
    """

    def __init__(self, jobs: Optional[int] = None,
                 cache_dir: Optional[str] = None, cache: bool = True,
                 progress: bool = False) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1 (or None for serial)")
        self.jobs = jobs
        self.use_cache = cache
        self.disk = (ResultCache(cache_dir)
                     if cache and cache_dir else None)
        self.progress = progress
        self._memo: Dict[str, RunResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        #: One-time pool spin-up cost (fork + imports + warm pings);
        #: 0.0 until the first parallel batch.
        self.executor_startup_seconds = 0.0

        self.registry = MetricsRegistry(
            const_labels={"subsystem": "lab"})
        install(self.registry, LAB_CATALOG)
        reg = self.registry
        self._m_executed = reg.get("lab.jobs_executed_total")
        self._m_hits_memory = reg.get("lab.cache_hits_total").labels(
            tier="memory")
        self._m_hits_disk = reg.get("lab.cache_hits_total").labels(
            tier="disk")
        self._m_misses = reg.get("lab.cache_misses_total")
        self._m_retries = reg.get("lab.retries_total")
        self._m_failures = reg.get("lab.failures_total")
        self._m_wall = reg.get("lab.wall_seconds_total")
        self._m_run_seconds = reg.get("lab.run_seconds")
        self._m_utilization = reg.get("lab.worker_utilization")
        self._m_startup = reg.get("lab.executor_startup_seconds")

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "Lab":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def effective_jobs(self) -> int:
        """Worker count actually used: the requested ``jobs`` clamped
        to twice the CPUs actually *available* (see
        :func:`available_cpus`).  ``os.cpu_count()`` alone lied in
        both directions — it reports the host's cores inside a
        quota-limited container (oversubscribing a small container is
        how the pool once ended up slower than serial) and, on some
        runners, reported 1 while the cgroup quota allowed more,
        silently serializing sweeps.  The 2x headroom covers workers
        blocked on pickling/IPC/cache writes rather than simulating."""
        if self.jobs is None:
            return 1
        return max(1, min(self.jobs, 2 * available_cpus()))

    def warm(self) -> float:
        """Spin up and warm the process pool now, instead of inside
        the first parallel batch (no-op for serial labs).  Returns the
        measured startup seconds."""
        if self.jobs is not None:
            self._executor()
        return self.executor_startup_seconds

    def _executor(self) -> ProcessPoolExecutor:
        if self._pool is None:
            started = time.perf_counter()
            workers = self.effective_jobs
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_warm_worker,
                initargs=(code_version(),))
            # Force every worker to fork and warm up now, so startup
            # is measured (and paid) outside the first real batch.
            list(self._pool.map(_noop, range(workers)))
            self.executor_startup_seconds += (time.perf_counter()
                                              - started)
            self._m_startup.set(self.executor_startup_seconds)
        return self._pool

    # -- running specs -------------------------------------------------

    def run(self, spec: RunSpec) -> RunResult:
        """Resolve one spec (cache or execute)."""
        return self.run_many([spec])[0]

    def run_grid(self, cells: Dict[Hashable, RunSpec]
                 ) -> Dict[Hashable, RunResult]:
        """Resolve a ``{key: RunSpec}`` grid as one batch; the results
        come back under the same keys."""
        return dict(zip(cells, self.run_many(list(cells.values()))))

    def run_many(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Resolve every spec, order-preserving.

        Identical specs (same fingerprint) simulate at most once per
        batch.  A run that raises never takes its siblings with it:
        the whole batch settles (healthy results are memoized and
        cached), then :class:`LabError` lists the failures."""
        started = time.perf_counter()
        specs = list(specs)
        version = code_version()    # hashed once per process
        fingerprints = [spec.fingerprint(version) for spec in specs]

        resolved: Dict[str, RunResult] = {}
        to_run: Dict[str, RunSpec] = {}
        for spec, fingerprint in zip(specs, fingerprints):
            if fingerprint in resolved or fingerprint in to_run:
                continue  # batch-level dedupe
            hit = self._lookup(fingerprint)
            if hit is not None:
                resolved[fingerprint] = hit
            else:
                if self.use_cache:
                    self._m_misses.inc()
                to_run[fingerprint] = spec

        hits = len(resolved)
        failures: List[LabFailure] = []
        busy_seconds = 0.0
        for settled, outcome in enumerate(self._outcomes(to_run), 1):
            fingerprint = outcome["fingerprint"]
            spec = to_run[fingerprint]
            busy_seconds += outcome["seconds"]
            if outcome["ok"]:
                result = RunResult.from_dict(outcome["result"])
                self._m_executed.inc()
                self._m_run_seconds.observe(outcome["seconds"])
                resolved[fingerprint] = result
                if self.use_cache:
                    self._memo[fingerprint] = result
                    if self.disk is not None:
                        self.disk.put(fingerprint, result, spec=spec,
                                      result_dict=outcome["result"])
            else:
                failures.append(LabFailure(
                    spec=spec, fingerprint=fingerprint,
                    error=outcome["error"],
                    traceback=outcome["traceback"]))
                self._m_failures.inc()
            if self.progress and len(to_run) > 1:
                print(f"[lab] {settled}/{len(to_run)} executed "
                      f"({hits} cached, {len(failures)} failed)",
                      file=sys.stderr, flush=True)

        wall = time.perf_counter() - started
        self._m_wall.inc(wall)
        if to_run and wall > 0:
            self._m_utilization.set(
                min(1.0, busy_seconds / (wall * self.effective_jobs)))
        if failures:
            raise LabError(failures)
        return [resolved[fingerprint] for fingerprint in fingerprints]

    # -- execution -----------------------------------------------------

    def _outcomes(self, to_run: Dict[str, RunSpec]) -> Iterator[dict]:
        """One :func:`_execute_payload` outcome per spec, in
        completion order: called here for ``jobs=None``, through the
        chunked pool otherwise."""
        payloads = [{"fingerprint": fingerprint,
                     "spec": spec.to_dict()}
                    for fingerprint, spec in to_run.items()]
        if self.jobs is None:
            yield from map(_execute_payload, payloads)
            return
        workers = self.effective_jobs
        # Chunk small runs: ~4 chunks per worker amortizes pickling
        # and future overhead while keeping the tail balanced.  A
        # lone worker has no tail to balance, so it gets one chunk
        # (fewer IPC round-trips and per-chunk collections).
        chunks_per_worker = 4 if workers > 1 else 1
        chunk_size = max(1, -(-len(payloads)
                              // (workers * chunks_per_worker)))
        pending: Dict[object, tuple] = {}

        def submit(chunk: List[dict], resubmits: int) -> None:
            future = self._executor().submit(_execute_payload_batch,
                                             chunk)
            pending[future] = (chunk, resubmits)

        for offset in range(0, len(payloads), chunk_size):
            submit(payloads[offset:offset + chunk_size],
                   _POOL_RESUBMITS)
        while pending:
            done, _ = wait(list(pending),
                           return_when=FIRST_COMPLETED)
            for future in done:
                chunk, resubmits = pending.pop(future)
                try:
                    outcomes = future.result()
                except Exception as exc:  # noqa: BLE001
                    # Not a run that raised (those come back as
                    # data): the pool itself broke — worker killed,
                    # pickling error.  Rebuild it; the chunk gets
                    # its one resubmission, then fails as a whole.
                    self.close()
                    if resubmits:
                        self._m_retries.inc(len(chunk))
                        submit(chunk, resubmits - 1)
                        continue
                    outcomes = [_failed(payload["fingerprint"], exc)
                                for payload in chunk]
                yield from outcomes

    # -- bookkeeping ---------------------------------------------------

    def _lookup(self, fingerprint: str) -> Optional[RunResult]:
        if not self.use_cache:
            return None
        result = self._memo.get(fingerprint)
        if result is not None:
            self._m_hits_memory.inc()
            return result
        if self.disk is not None:
            result = self.disk.get(fingerprint)
            if result is not None:
                self._m_hits_disk.inc()
                self._memo[fingerprint] = result
                return result
        return None

    # -- reading back --------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Harness counters as a flat dict (see docs/lab.md)."""
        reg = self.registry
        return {
            "executed": reg.total("lab.jobs_executed_total"),
            "cache_hits_memory": self._m_hits_memory.value,
            "cache_hits_disk": self._m_hits_disk.value,
            "cache_misses": reg.total("lab.cache_misses_total"),
            "retries": reg.total("lab.retries_total"),
            "failures": reg.total("lab.failures_total"),
            "wall_seconds": reg.total("lab.wall_seconds_total"),
            "worker_utilization":
                reg.total("lab.worker_utilization"),
            "executor_startup_seconds":
                reg.total("lab.executor_startup_seconds"),
        }

    def format_stats(self) -> str:
        """One-line summary for CLI output and the CI gate."""
        stats = self.stats()
        hits = (stats["cache_hits_memory"]
                + stats["cache_hits_disk"])
        return (f"lab: executed {stats['executed']:.0f}, "
                f"cache hits {hits:.0f} "
                f"(memory {stats['cache_hits_memory']:.0f}, "
                f"disk {stats['cache_hits_disk']:.0f}), "
                f"failures {stats['failures']:.0f}, "
                f"wall {stats['wall_seconds']:.1f}s")
