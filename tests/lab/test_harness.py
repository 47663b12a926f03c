"""Lab harness: dedupe, cache tiers, failure isolation, parallelism.

Everything here runs at the small preset so the whole module stays in
tier-1 time.  The acceptance-level parallel-speedup claims live in CI
and ``benchmarks/test_lab.py``; what must hold *everywhere* is
equivalence: serial, pooled, and cache-served resolution produce
byte-identical results.
"""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.core.config import (FaultConfig, MachineConfig,
                               NetworkConfig)
from repro.core.metrics import RunResult
from repro.lab import Lab, LabError, ResultCache, RunSpec, execute_spec
from repro.serve.workload import SERVE_APP_PARAMS

SMALL = {"n": 24, "iterations": 2}


def _spec(nprocs=2, protocol="lh", **overrides) -> RunSpec:
    kwargs = dict(app="jacobi", app_params=SMALL, protocol=protocol,
                  config=MachineConfig(nprocs=nprocs,
                                       network=NetworkConfig.atm()))
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def _dump(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_batch_dedupes_identical_specs():
    lab = Lab()
    a, b = lab.run_many([_spec(), _spec()])
    assert _dump(a) == _dump(b)
    stats = lab.stats()
    assert stats["executed"] == 1
    assert stats["cache_misses"] == 1


def test_memo_serves_repeat_runs():
    lab = Lab()
    first = lab.run(_spec())
    again = lab.run(_spec())
    assert _dump(first) == _dump(again)
    stats = lab.stats()
    assert stats["executed"] == 1
    assert stats["cache_hits_memory"] == 1


def test_disk_tier_survives_lab_instances(tmp_path):
    with Lab(cache_dir=tmp_path) as lab:
        first = lab.run(_spec())
        assert lab.stats()["executed"] == 1
    with Lab(cache_dir=tmp_path) as lab:
        again = lab.run(_spec())
        stats = lab.stats()
    assert _dump(again) == _dump(first)
    assert stats["executed"] == 0
    assert stats["cache_hits_disk"] == 1


def test_cache_false_always_executes(tmp_path):
    lab = Lab(cache_dir=tmp_path, cache=False)
    lab.run(_spec())
    lab.run(_spec())
    stats = lab.stats()
    assert stats["executed"] == 2
    assert stats["cache_hits_memory"] == 0
    assert stats["cache_misses"] == 0     # not counting when disabled
    assert lab.disk is None               # nothing written either


def test_pool_matches_serial_byte_for_byte(tmp_path):
    specs = [_spec(protocol="lh"), _spec(protocol="eu"),
             _spec(nprocs=4)]
    serial = Lab().run_many(specs)
    with Lab(jobs=2, cache_dir=tmp_path) as lab:
        pooled = lab.run_many(specs)
        assert lab.stats()["executed"] == 3
    assert [_dump(r) for r in pooled] == [_dump(r) for r in serial]
    # The pool's results are cached like any other.
    with Lab(cache_dir=tmp_path) as lab:
        warm = lab.run_many(specs)
        assert lab.stats()["executed"] == 0
    assert [_dump(r) for r in warm] == [_dump(r) for r in serial]


def _check_failure_surface(lab):
    """The one failure surface, serial or pooled: a run that raised
    is listed on ``LabError.failures`` after the batch settles, is
    never re-run (the simulator is deterministic: it would raise
    again), and costs its healthy siblings nothing."""
    # max_events=10 aborts the simulation mid-flight.
    bad, good = _spec(max_events=10), _spec()
    with pytest.raises(LabError) as err:
        lab.run_many([bad, good])
    assert [f.fingerprint for f in err.value.failures] == \
        [bad.fingerprint()]
    failure = err.value.failures[0]
    assert failure.spec == bad
    assert "SimulationError" in failure.error
    assert "Traceback" in failure.traceback
    assert "jacobi/lh" in str(err.value)
    stats = lab.stats()
    assert stats["failures"] == 1
    assert stats["retries"] == 0
    assert stats["executed"] == 1
    # The healthy sibling completed and is memoized.
    assert _dump(lab.run(good)) == _dump(Lab().run(good))
    stats = lab.stats()
    assert stats["executed"] == 1
    assert stats["cache_hits_memory"] == 1


def test_failures_are_isolated_not_fatal():
    _check_failure_surface(Lab())


def test_pool_isolates_failures():
    with Lab(jobs=2) as lab:
        _check_failure_surface(lab)


def test_strict_batch_raises_after_settling():
    """Every failure of a batch is reported at once, and only after
    the last healthy spec has settled — serial or pooled."""
    bad = [_spec(max_events=10), _spec(protocol="eu", max_events=10)]
    good = [_spec(), _spec(nprocs=4)]
    for jobs in (None, 2):
        with Lab(jobs=jobs) as lab:
            with pytest.raises(LabError) as err:
                lab.run_many([bad[0], good[0], bad[1], good[1]])
            assert {f.fingerprint for f in err.value.failures} == \
                {spec.fingerprint() for spec in bad}
            assert str(err.value).startswith("2 run(s) failed:")
            assert lab.stats()["executed"] == 2
            assert lab.stats()["retries"] == 0


# -- a broken pool (killed worker) ----------------------------------------

pool_forks = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the stand-in reaches the workers by being forked")


@pool_forks
def test_broken_pool_resubmits_its_chunk_once(tmp_path, monkeypatch):
    """A worker killed mid-chunk says nothing about the chunk's runs,
    so the chunk is resubmitted to a rebuilt pool — once."""
    from repro.lab import harness
    marker = tmp_path / "died"

    def dies_once(spec, trace_path=None):
        if not marker.exists():
            marker.touch()
            os._exit(1)
        return execute_spec(spec, trace_path=trace_path)

    monkeypatch.setattr(harness, "execute_spec", dies_once)
    specs = [_spec(protocol="lh"), _spec(protocol="eu"),
             _spec(nprocs=4)]
    with Lab(jobs=1) as lab:          # one worker: one chunk
        results = lab.run_many(specs)
        stats = lab.stats()
    assert marker.exists()
    assert [_dump(r) for r in results] == \
        [_dump(r) for r in Lab().run_many(specs)]
    assert stats["retries"] == len(specs)
    assert stats["executed"] == len(specs)
    assert stats["failures"] == 0


@pool_forks
def test_pool_broken_twice_fails_only_that_chunk(tmp_path,
                                                 monkeypatch):
    """A spec that kills its worker every time fails (with its
    chunk) after the one resubmission; chunks that had settled are
    executed, cached and not run again."""
    from repro.lab import harness
    cache_dir = tmp_path / "cache"
    siblings = [_spec(protocol=p, nprocs=n)
                for p in ("lh", "li", "eu") for n in (2, 4)]
    poison = _spec(protocol="ei")

    def dies_always(spec, trace_path=None):
        if spec.protocol != "ei":
            return execute_spec(spec, trace_path=trace_path)
        # Die once the parent has settled every sibling, so the
        # broken pool takes no other chunk with it.
        deadline = time.monotonic() + 60
        while (len(ResultCache(cache_dir)) < len(siblings)
               and time.monotonic() < deadline):
            time.sleep(0.01)
        os._exit(1)

    monkeypatch.setattr(harness, "execute_spec", dies_always)
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    with Lab(jobs=2, cache_dir=cache_dir) as lab:
        # 7 specs over 2 workers x 4 chunks: one spec per chunk.
        with pytest.raises(LabError) as err:
            lab.run_many([poison] + siblings)
        stats = lab.stats()
    assert [f.fingerprint for f in err.value.failures] == \
        [poison.fingerprint()]
    assert "BrokenProcessPool" in err.value.failures[0].error
    assert stats["retries"] == 1
    assert stats["failures"] == 1
    assert stats["executed"] == len(siblings)
    monkeypatch.undo()
    with Lab(cache_dir=cache_dir) as lab:
        lab.run_many(siblings)
        assert lab.stats()["executed"] == 0
        assert lab.stats()["cache_hits_disk"] == len(siblings)


def test_every_tier_returns_the_restored_result(tmp_path):
    """A Lab result is ``RunResult.from_dict`` of the run's dump,
    whichever tier served it — field for field, ``app_result`` types
    included (JSON-shaped: lists, never tuples).  A lossy kvstore run
    carries the integer-bound ``faults.*`` histograms that once broke
    every restore without a tier-1 test noticing."""
    spec = RunSpec(
        "kvstore", dict(SERVE_APP_PARAMS["small"], requests=40),
        protocol="li",
        config=MachineConfig(nprocs=2, network=NetworkConfig.atm(),
                             faults=FaultConfig(drop_prob=0.02)))
    expected = RunResult.from_dict(
        json.loads(json.dumps(execute_spec(spec).to_dict())))

    def same(a, b):
        assert type(a) is type(b), (a, b)
        if isinstance(a, dict):
            assert a.keys() == b.keys()
            for key in a:
                same(a[key], b[key])
        elif isinstance(a, list):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                same(x, y)
        else:
            assert a == b

    with Lab(cache_dir=tmp_path) as lab:
        executed = lab.run(spec)
        memoized = lab.run(spec)
    with Lab(cache_dir=tmp_path) as lab:
        from_disk = lab.run(spec)
    with Lab(jobs=2, cache=False) as lab:
        pooled = lab.run(spec)
    assert memoized is executed
    for result in (executed, from_disk, pooled):
        for field in dataclasses.fields(RunResult):
            got = getattr(result, field.name)
            want = getattr(expected, field.name)
            if field.name == "registry":
                got, want = got.dump(), want.dump()
            same(got, want)
    assert any(executed.app_result)       # the types were exercised


def test_format_stats_line():
    lab = Lab()
    lab.run(_spec())
    lab.run(_spec())
    line = lab.format_stats()
    assert line.startswith("lab: executed 1, cache hits 1")


def test_constructor_validation():
    with pytest.raises(ValueError):
        Lab(jobs=0)


# -- CPU detection (effective_jobs clamp) ---------------------------------


def test_available_cpus_env_override(monkeypatch):
    from repro.lab import harness
    monkeypatch.setenv("REPRO_LAB_CPUS", "6")
    assert harness.available_cpus() == 6
    monkeypatch.setenv("REPRO_LAB_CPUS", "0")
    assert harness.available_cpus() == 1     # clamped to >= 1
    monkeypatch.setenv("REPRO_LAB_CPUS", "lots")
    assert harness.available_cpus() >= 1     # garbage falls through


def test_available_cpus_takes_min_of_signals(monkeypatch):
    from repro.lab import harness
    monkeypatch.delenv("REPRO_LAB_CPUS", raising=False)
    monkeypatch.setattr(harness.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 16)
    monkeypatch.setattr(harness, "_cgroup_cpus", lambda: 2)
    # The cgroup quota is the binding constraint, not the host count.
    assert harness.available_cpus() == 2


def test_cgroup_v2_quota_parsing(monkeypatch, tmp_path):
    from repro.lab import harness
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(harness, "_CGROUP_V2_CPU_MAX", str(cpu_max))
    monkeypatch.setattr(harness, "_CGROUP_V1_QUOTA",
                        str(tmp_path / "missing-quota"))
    monkeypatch.setattr(harness, "_CGROUP_V1_PERIOD",
                        str(tmp_path / "missing-period"))
    cpu_max.write_text("max 100000\n")
    assert harness._cgroup_cpus() is None      # unlimited
    cpu_max.write_text("400000 100000\n")
    assert harness._cgroup_cpus() == 4
    cpu_max.write_text("150000 100000\n")
    assert harness._cgroup_cpus() == 2         # 1.5 CPUs rounds up


def test_cgroup_v1_quota_parsing(monkeypatch, tmp_path):
    from repro.lab import harness
    monkeypatch.setattr(harness, "_CGROUP_V2_CPU_MAX",
                        str(tmp_path / "missing-cpu.max"))
    quota = tmp_path / "cpu.cfs_quota_us"
    period = tmp_path / "cpu.cfs_period_us"
    monkeypatch.setattr(harness, "_CGROUP_V1_QUOTA", str(quota))
    monkeypatch.setattr(harness, "_CGROUP_V1_PERIOD", str(period))
    quota.write_text("-1\n")
    period.write_text("100000\n")
    assert harness._cgroup_cpus() is None      # unlimited
    quota.write_text("300000\n")
    assert harness._cgroup_cpus() == 3


def test_effective_jobs_allows_bounded_oversubscription(monkeypatch):
    from repro.lab import harness
    monkeypatch.setattr(harness, "available_cpus", lambda: 2)
    assert Lab(jobs=None).effective_jobs == 1    # serial stays serial
    assert Lab(jobs=1).effective_jobs == 1
    assert Lab(jobs=3).effective_jobs == 3       # within 2x headroom
    assert Lab(jobs=16).effective_jobs == 4      # clamped at 2x CPUs
