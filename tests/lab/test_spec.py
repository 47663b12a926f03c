"""RunSpec fingerprinting: the cache-key contract.

The fingerprint must commit to *everything* that can change a run's
outcome (app, params, protocol, full machine config, protocol
options, execution knobs, code version) and to nothing else — two
specs that describe the same run must collide.
"""

import json

import pytest

from repro.core.config import (CrashSpec, FaultConfig, MachineConfig,
                               NetworkConfig)
from repro.core.metrics import RunResult
from repro.core.runner import run_app
from repro.apps import create_app
from repro.lab import RunSpec, code_version, execute_spec

SMALL = {"n": 24, "iterations": 2}


def _spec(**overrides) -> RunSpec:
    kwargs = dict(app="jacobi", app_params=SMALL, protocol="lh",
                  config=MachineConfig(nprocs=2,
                                       network=NetworkConfig.atm()))
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def test_fingerprint_is_stable_and_64_hex():
    fp = _spec().fingerprint()
    assert fp == _spec().fingerprint()
    assert len(fp) == 64
    int(fp, 16)  # raises if not hex


@pytest.mark.parametrize("change", [
    dict(app="water", app_params={"molecules": 8, "steps": 1}),
    dict(app_params={"n": 32, "iterations": 2}),
    dict(protocol="eu"),
    dict(config=MachineConfig(nprocs=4, network=NetworkConfig.atm())),
    dict(config=MachineConfig(nprocs=2,
                              network=NetworkConfig.ethernet())),
    dict(protocol_options={"piggyback_policy": "never"}),
    dict(lock_broadcast=True),
    dict(threads_per_proc=2),
    dict(max_events=1000),
    dict(trace=True),
    dict(window_us=100.0),
])
def test_fingerprint_commits_to_every_field(change):
    assert _spec(**change).fingerprint() != _spec().fingerprint()


def test_an_uncaptured_spec_keeps_its_canonical_form():
    """The capture fields enter the canonical form only when set, so
    every spec that captures nothing keeps the address it had before
    they existed; a window spelled as an int is the float one."""
    assert "trace" not in _spec().to_dict()
    assert "window_us" not in _spec().to_dict()
    captured = _spec(trace=True, window_us=200)
    assert captured.to_dict()["window_us"] == 200.0
    assert captured.fingerprint() == \
        _spec(trace=True, window_us=200.0).fingerprint()
    clone = RunSpec.from_dict(json.loads(json.dumps(captured.to_dict())))
    assert clone == captured


@pytest.mark.parametrize("window_us,match", [
    (-1.0, "window_us must be >= 0"),
    (float("nan"), "window_us must be >= 0"),
    (0.01, r"window_us=0\.01 is 0\.400 cycles.*scheduler tick"),
], ids=["negative", "nan", "sub-tick"])
def test_a_bad_window_is_rejected_at_the_spec(window_us, match):
    """A negative window, or one under a cycle at the machine's clock
    (0.01 µs at 40 MHz), is refused when the spec is built — not
    inside the run, where the lab would report it as a failure."""
    with pytest.raises(ValueError, match=match):
        _spec(window_us=window_us)
    # One cycle at 40 MHz is the finest grid the clock can land on.
    assert _spec(window_us=0.025).window_us == 0.025


def test_empty_protocol_options_normalize_to_none():
    # None and {} describe the same run: same address.
    assert _spec(protocol_options={}).fingerprint() == \
        _spec(protocol_options=None).fingerprint()


def test_fingerprint_commits_to_code_version(monkeypatch):
    base = _spec().fingerprint()
    assert _spec().fingerprint(version="deadbeef") != base
    monkeypatch.setenv("REPRO_CODE_VERSION", "v-test")
    assert _spec().fingerprint() != base
    assert _spec().fingerprint() == _spec().fingerprint("v-test")


def test_code_version_is_stable_hex():
    version = code_version()
    assert version == code_version()
    assert len(version) == 64


def test_roundtrip_preserves_canonical_form():
    spec = _spec(protocol_options={"piggyback_policy": "always"},
                 max_events=5000)
    clone = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert clone.canonical() == spec.canonical()
    assert clone.fingerprint() == spec.fingerprint()


def test_baseline_is_the_one_processor_run_of_the_same_machine():
    from repro.core.config import FaultConfig, OverheadConfig

    config = MachineConfig(
        nprocs=8, cpu_mhz=80.0, page_size=1024, seed=7,
        network=NetworkConfig.ethernet(),
        overhead=OverheadConfig(scale=2.0),
        faults=FaultConfig(drop_prob=0.01))
    spec = _spec(protocol="eu", config=config, threads_per_proc=2,
                 protocol_options={"x": 1}, lock_broadcast=True)
    baseline = spec.baseline()
    assert (baseline.app, baseline.app_params) == ("jacobi", SMALL)
    assert baseline.config == config.replace(
        nprocs=1, network=MachineConfig().network)
    assert baseline == RunSpec("jacobi", SMALL, protocol="lh",
                               config=baseline.config)
    assert baseline.baseline() == baseline


def test_cells_that_differ_only_in_network_share_a_baseline():
    cells = [_spec(protocol=protocol,
                   config=MachineConfig(nprocs=4, network=network))
             for protocol in ("lh", "ei")
             for network in (NetworkConfig.ethernet(),
                             NetworkConfig.atm(1000.0))]
    assert len({cell.fingerprint() for cell in cells}) == 4
    assert len({cell.baseline().fingerprint() for cell in cells}) == 1
    faster = _spec(config=MachineConfig(nprocs=4, cpu_mhz=80.0))
    assert faster.baseline().fingerprint() != \
        cells[0].baseline().fingerprint()


def test_label_names_the_run():
    label = _spec().label()
    assert "jacobi" in label and "lh" in label and "2p" in label


def test_execute_spec_matches_run_app():
    spec = _spec()
    direct = run_app(create_app("jacobi", **SMALL), spec.config,
                     protocol="lh")
    via_spec = execute_spec(spec)
    assert json.dumps(via_spec.to_dict(), sort_keys=True) == \
        json.dumps(direct.to_dict(), sort_keys=True)


def test_observers_ride_along_without_changing_the_run():
    """A spec's captures observe: the result dump without them is
    byte-equal to the uncaptured run's, the trace holds exactly the
    events a hand-wired ``run_app(..., obs=...)`` records, and the
    windows are a bare sampler's."""
    from repro.obs import (MemorySink, Observability,
                           TimeseriesSampler, Tracer)

    spec = _spec(protocol="li", trace=True, window_us=250.0)
    observed = execute_spec(spec).to_dict()
    trace, windows = observed.pop("trace"), observed.pop("windows")
    assert json.dumps(observed, sort_keys=True) == json.dumps(
        execute_spec(_spec(protocol="li")).to_dict(), sort_keys=True)

    wired = MemorySink()
    sampler = TimeseriesSampler(window_us=250.0)
    run_app(create_app("jacobi", **SMALL), spec.config, protocol="li",
            obs=Observability(tracer=Tracer(wired)), sampler=sampler)
    assert windows == sampler.windows
    # Every machine numbers its messages from 0: the ids match too.
    assert trace and trace == [event.to_record()
                               for event in wired.events]


def test_trace_path_and_sink_are_one_choice(tmp_path):
    """A traced spec captures into its own sink; ``trace_path``
    streams an untraced one to a file — not both at once."""
    with pytest.raises(ValueError, match="traced spec"):
        execute_spec(_spec(trace=True),
                     trace_path=str(tmp_path / "t.jsonl"))


def test_threads_per_proc_needs_a_multithreaded_app():
    """Only Cholesky implements ``worker_thread``; asking any other
    app for two threads per processor is rejected up front, by name,
    instead of failing inside the machine's spawn loop."""
    with pytest.raises(ValueError,
                       match="threads_per_proc=2.*'jacobi'"):
        execute_spec(_spec(threads_per_proc=2))


def test_a_crash_stop_run_out_of_budget_is_a_partial_result():
    """A plan holding a crash-stop never drains: the run spends its
    event budget and returns what it reached, its summary says so,
    and the partial result round-trips exactly like a finished one."""
    config = MachineConfig(
        nprocs=2, network=NetworkConfig.ethernet(),
        faults=FaultConfig(crashes=(CrashSpec(proc=1, at_us=50.0),)))
    result = execute_spec(_spec(config=config, max_events=20_000))
    assert result.finish_times == [0.0, 0.0]
    assert result.app_result == [None, None]
    assert result.summary().endswith(" (0 of 2 nodes finished)")
    dump = json.dumps(result.to_dict(), sort_keys=True)
    restored = RunResult.from_dict(json.loads(dump))
    assert json.dumps(restored.to_dict(), sort_keys=True) == dump
    assert restored.summary() == result.summary()
    assert "finished" not in execute_spec(_spec()).summary()
