"""Windowed time-series telemetry: sampler semantics, zero-perturb
guarantee, the serving columns joined when the windows are read,
golden parity, and the Perfetto counter tracks."""

import json
import os
from dataclasses import replace

import pytest

from repro.analysis.serving import timeseries
from repro.apps import create_app
from repro.core.config import FaultConfig, MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.lab import RunSpec, execute_spec
from repro.obs import (CausalTrace, TIMESERIES_SCHEMA,
                       TimeseriesSampler, chrome_trace,
                       format_timeseries_table, validate_chrome_trace)
from repro.serve.workload import SERVE_APP_PARAMS
from tests.properties.test_timeseries_merge import coarsened

CONFIG = MachineConfig(nprocs=4, network=NetworkConfig.atm())


def _run_sampled(window_us=200.0):
    sampler = TimeseriesSampler(window_us=window_us)
    result = run_app(create_app("jacobi", n=24, iterations=4),
                     CONFIG, protocol="li", sampler=sampler)
    return sampler, result


def _served(config=CONFIG, trace=False, **view):
    """The small kvstore run in 200 µs windows, read under ``view``'s
    SLO."""
    spec = RunSpec("kvstore", SERVE_APP_PARAMS["small"], protocol="lh",
                   config=config, trace=trace, window_us=200.0)
    result = execute_spec(spec)
    return timeseries(spec, result, **view), result


def test_constructor_validation():
    with pytest.raises(ValueError, match="window must be > 0"):
        TimeseriesSampler(window_us=0.0)
    with pytest.raises(ValueError, match="window must be > 0"):
        TimeseriesSampler(window_us=-5.0)


def test_subtick_window_rejected_at_bind():
    # 0.01 µs at 40 MHz is 0.4 cycles — finer than the scheduler can
    # ever resolve, so bind() refuses it.
    with pytest.raises(ValueError, match="scheduler tick"):
        _run_sampled(window_us=0.01)


def test_windows_partition_the_run():
    sampler, result = _run_sampled()
    windows = sampler.windows
    assert windows, "run produced no windows"
    # Delta windows tile the run exactly: contiguous boundaries on the
    # grid, totals matching the end-of-run aggregates.
    for before, after in zip(windows, windows[1:]):
        assert before["t1_cycles"] == after["t0_cycles"]
    assert windows[0]["t0_cycles"] == 0.0
    assert windows[-1]["t1_cycles"] == result.elapsed_cycles
    assert sum(w["events"] for w in windows) == int(
        result.registry.get("sim.events_dispatched_total")
        .labels().value)
    messages = {}
    for w in windows:
        for kind, count in w["messages"].items():
            messages[kind] = messages.get(kind, 0) + count
    assert messages == {
        kind: count for kind, count in result.registry.by_label(
            "dsm.messages_total", "msg_type").items() if count}


def test_sampling_does_not_perturb_the_run():
    # The sampler only reads: the RunResult (elapsed, metrics, app
    # output — the full canonical dump) must be byte-identical with
    # and without it.
    plain = run_app(create_app("jacobi", n=24, iterations=4),
                    CONFIG, protocol="li")
    _sampler, sampled = _run_sampled()
    assert (json.dumps(sampled.to_dict(), sort_keys=True)
            == json.dumps(plain.to_dict(), sort_keys=True))


def test_serving_windows_carry_latency_series():
    series, _result = _served()
    windows = series["windows"]
    total = sum(w["requests"] for w in windows)
    assert total == SERVE_APP_PARAMS["small"]["requests"]
    served = [w for w in windows if w["requests"]]
    assert served
    for w in served:
        assert 0 < w["p50_us"] <= w["p99_us"]
        assert w["slo_violations"] <= w["requests"]
        # burn = violations/requests / (1 - 0.999)
        assert w["burn_rate"] == pytest.approx(
            w["slo_violations"] / w["requests"] / 0.001)
    for w in windows:
        if not w["requests"]:
            assert (w["p50_us"], w["p99_us"], w["burn_rate"]) == (0, 0, 0)


def test_the_slo_is_a_parameter_of_the_view():
    """One run, read under two SLOs: the sampled columns are the
    same, the serving columns follow the SLO."""
    strict, result = _served(slo_us=50.0, slo_target=0.99)
    default = timeseries(RunSpec("kvstore", SERVE_APP_PARAMS["small"],
                                 protocol="lh", config=CONFIG,
                                 window_us=200.0), result)
    assert (strict["slo_us"], strict["slo_target"]) == (50.0, 0.99)
    assert sum(w["slo_violations"] for w in strict["windows"]) > \
        sum(w["slo_violations"] for w in default["windows"])
    for a, b in zip(strict["windows"], default["windows"]):
        assert a["requests"] == b["requests"]
        assert a["events"] == b["events"]


def test_export_schema_and_table():
    series, _result = _served()
    dump = json.loads(json.dumps(series))
    assert dump["schema"] == TIMESERIES_SCHEMA
    assert dump["window_us"] == 200.0
    assert dump["cpu_mhz"] == CONFIG.cpu_mhz
    assert len(dump["windows"]) == len(series["windows"])
    for exported in dump["windows"]:
        assert exported["t0_cycles"] < exported["t1_cycles"]
    table = format_timeseries_table(series)
    assert "burn" in table.splitlines()[0]
    assert len(table.splitlines()) == len(series["windows"]) + 1


#: Window goldens: the full export of a small kvstore run, clean and
#: over a lossy link (retransmission timers put many more clock
#: advances between boundaries).  Dumped from the source *before* the
#: six dispatch loops became one, so they pin where each window closes
#: relative to the crossing pop — every window's ``events`` and
#: ``queue_depth`` — not just that the totals add up.  They were
#: dumped while the sampler also probed each request as it completed;
#: the export now joins the serving columns from the request records,
#: and must still match those live probes byte for byte.
WINDOW_GOLDENS = {
    "kvstore_windows_clean": FaultConfig(),
    "kvstore_windows_lossy": FaultConfig(drop_prob=0.05),
}


@pytest.mark.parametrize("name", sorted(WINDOW_GOLDENS))
def test_window_golden_parity(name):
    path = os.path.join(os.path.dirname(__file__), "golden",
                        name + ".json")
    with open(path) as handle:
        golden = handle.read()
    series, _result = _served(
        config=replace(CONFIG, faults=WINDOW_GOLDENS[name]))
    assert json.dumps(series, indent=1, sort_keys=True) + "\n" == golden, (
        f"sampler windows diverged from golden {name!r}")


def test_fine_windows_sum_to_coarser_sampling():
    """Every 3 windows of 100 µs cover one of 300 µs exactly, and
    their deltas sum to it."""
    fine, _result = _run_sampled(window_us=100.0)
    coarse, _result = _run_sampled(window_us=300.0)
    assert coarsened(fine.windows, 3) == coarsened(coarse.windows, 1)


def test_chrome_counter_tracks():
    series, result = _served(trace=True)
    trace = CausalTrace.from_records(result.trace)
    exported = chrome_trace(trace, timeseries=series)
    assert validate_chrome_trace(exported) == []
    counters = [e for e in exported["traceEvents"]
                if e.get("ph") == "C"]
    # 8 tracks per window for a serving run (5 core + 3 request).
    assert len(counters) == 8 * len(series["windows"])
    names = {e["name"] for e in counters}
    assert {"events dispatched", "queue depth", "p99 us",
            "SLO burn rate"} <= names
    for event in counters:
        assert event["pid"] == 3
        assert isinstance(event["args"]["value"], (int, float))
    # Without a sampler the export is unchanged (no telemetry pid).
    bare = chrome_trace(trace)
    assert all(e.get("pid") != 3 for e in bare["traceEvents"])


def test_counter_validation_catches_bad_events():
    bad = {"traceEvents": [
        {"ph": "C", "pid": 3, "ts": 0.0, "args": {"value": 1.0}},
        {"ph": "C", "pid": 3, "name": "x", "ts": 0.0},
        {"ph": "C", "pid": 3, "name": "x", "ts": 0.0,
         "args": {"value": "fast"}},
    ]}
    errors = validate_chrome_trace(bad)
    assert len(errors) == 3
    assert any("without name" in e for e in errors)
    assert any("non-empty args" in e for e in errors)
    assert any("numeric" in e for e in errors)
