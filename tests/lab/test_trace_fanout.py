"""Capture under the experiment harness: a spec that asks for its
trace and windows gets the same capture from every tier — serial,
pool fan-out, memo and disk hits — equal to a direct
``execute_spec``, without changing the run; and mid-run tracer
toggling at the engine level."""

import json
from dataclasses import replace

import pytest

from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, RunSpec, execute_spec
from repro.obs import (CausalTrace, MemorySink, NullSink,
                       Observability, Tracer)

JACOBI = {"n": 16, "iterations": 2}


def specs(protocols=("lh", "li", "lu", "ei")):
    return [RunSpec("jacobi", JACOBI, protocol=protocol, trace=True,
                    window_us=100.0,
                    config=MachineConfig(
                        nprocs=4, network=NetworkConfig.atm()))
            for protocol in protocols]


def _capture(result):
    """The capture as the JSON a cache entry holds."""
    return json.dumps({"trace": result.trace,
                       "windows": result.windows}, sort_keys=True)


def _direct(spec):
    return _capture(execute_spec(spec))


def test_pool_fanout_writes_one_valid_trace_per_spec():
    """Pool workers each capture their own spec's trace (no shared
    sink), and every trace reconciles with its result."""
    run_specs = specs()
    with Lab(jobs=2, cache=False) as lab:
        results = lab.run_many(run_specs)
    for spec, result in zip(run_specs, results):
        assert _capture(result) == _direct(spec)
        for record in result.trace:
            assert "ts" in record and "name" in record
        trace = CausalTrace.from_records(result.trace)
        assert trace.elapsed == pytest.approx(result.elapsed_cycles,
                                              rel=0.01)
        assert result.windows[-1]["t1_cycles"] == result.elapsed_cycles


def test_serial_path_traces_identically():
    run_specs = specs()
    with Lab(cache=False) as lab:
        serial = lab.run_many(run_specs)
    with Lab(jobs=2, cache=False) as lab:
        pooled = lab.run_many(run_specs)
    assert [_capture(r) for r in serial] == \
        [_capture(r) for r in pooled] == \
        [_direct(spec) for spec in run_specs]


def test_cache_hits_return_the_same_capture(tmp_path):
    spec = specs(("lh",))[0]
    cache_dir = str(tmp_path / "cache")
    with Lab(cache_dir=cache_dir) as lab:
        executed = lab.run(spec)
        memo = lab.run(spec)
        assert lab.stats()["cache_hits_memory"] == 1
    with Lab(cache_dir=cache_dir) as lab:
        disk = lab.run(spec)   # executes nothing
        assert lab.stats()["cache_hits_disk"] == 1
        assert lab.stats()["executed"] == 0
    assert _capture(executed) == _capture(memo) == _capture(disk) \
        == _direct(spec)


def test_capture_leaves_the_registry_byte_equal():
    spec = specs(("lh",))[0]
    with Lab(cache=False) as lab:
        captured, plain = lab.run_many(
            [spec, replace(spec, trace=False, window_us=0.0)])
    # Capturing observes the run without perturbing it.
    assert plain.trace is None and plain.windows is None
    assert captured.elapsed_cycles == plain.elapsed_cycles
    assert json.dumps(captured.registry.dump(), sort_keys=True) == \
        json.dumps(plain.registry.dump(), sort_keys=True)


def test_tracer_toggles_mid_simulation():
    """Swapping the sink mid-run flips every emission site at once:
    events recorded only while the MemorySink was attached."""
    from repro.sim.engine import Simulator

    sim = Simulator()
    obs = Observability(tracer=Tracer())  # starts disabled
    sim.attach_obs(obs)
    obs.bind_clock(lambda: sim.now)

    def worker():
        yield 10.0
        yield 10.0

    sim.spawn(worker(), name="worker-0")   # spawn while disabled
    sim.run(until=5.0)
    sink = MemorySink()
    obs.tracer.sink = sink                 # enable mid-run
    sim.spawn(worker(), name="worker-1")
    sim.run(until=15.0)
    obs.tracer.sink = NullSink()           # disable again
    sim.run()
    names = [(e.name, e.fields.get("process")) for e in sink.events]
    # worker-1's spawn and nothing after the second toggle.
    assert ("sim.process_spawn", "worker-1") in names
    assert ("sim.process_spawn", "worker-0") not in names
    assert all(name != "sim.process_done" for name, _ in names)
