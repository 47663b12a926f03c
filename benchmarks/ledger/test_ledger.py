"""Tests of the benchmark's own machinery (run explicitly; the
directory is outside tier-1 ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

import copy
import inspect
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.ledger import calibrate, compare, kernels, metrics, spans
from benchmarks.ledger.workloads import WORKLOADS, Workload
from benchmarks.ledger.worker import sim_stats

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- calibration --------------------------------------------------------

def test_calibration_kernel_is_pure_and_seed_free():
    assert not inspect.signature(
        calibrate.calibration_kernel).parameters
    random.seed(1)
    state = random.getstate()
    first = calibrate.calibration_kernel()
    assert random.getstate() == state        # draws no randomness
    random.seed(2)
    assert calibrate.calibration_kernel() == first
    assert calibrate.normalised(0.5, 0.25) == 2 * calibrate.CAL_NOMINAL_S


# -- span table ---------------------------------------------------------

def _fixture_stats():
    src = "/checkout/src/repro/"
    loop = (src + "sim/engine.py", 300, "run")
    deliver = (src + "core/node.py", 330, "deliver")
    send = (src + "net/transport.py", 200, "send")
    transmit = (src + "net/base.py", 140, "transmit")
    push = ("~", 0, "<built-in method _heapq.heappush>")
    lazy_grant = (src + "protocols/lazy.py", 126, "grant_payload")
    base_grant = (src + "protocols/base.py", 812, "grant_payload")
    # (primitive calls, calls, self s, cumulative s, callers)
    return {
        loop: (1, 1, 0.30, 1.00, {}),
        deliver: (10, 10, 0.10, 0.70, {loop: (10, 10, 0.10, 0.70)}),
        send: (10, 10, 0.20, 0.40, {deliver: (10, 10, 0.20, 0.40)}),
        transmit: (12, 12, 0.10, 0.20, {send: (12, 12, 0.10, 0.20)}),
        push: (12, 12, 0.10, 0.10, {transmit: (12, 12, 0.10, 0.10)}),
        lazy_grant: (4, 4, 0.05, 0.20, {deliver: (4, 4, 0.05, 0.20)}),
        base_grant: (4, 4, 0.15, 0.15,
                     {lazy_grant: (4, 4, 0.15, 0.15)}),
    }


def test_span_table_rollup():
    assert spans.layer_of("/x/src/repro/net/transport.py") == "transport"
    assert spans.layer_of("/x/src/repro/net/base.py") == "net"
    assert spans.layer_of("/x/src/repro/lab/spec.py") == "stdlib"
    assert spans.layer_of("/usr/lib/python3/heapq.py") == "stdlib"

    table = spans.span_table(_fixture_stats())
    layers = table["layers"]
    assert set(layers) == set(spans.LAYERS)
    assert sum(e["self_share"] for e in layers.values()) \
        == pytest.approx(1.0)
    assert layers["transport"]["self_s"] == pytest.approx(0.20)
    assert layers["net"]["self_s"] == pytest.approx(0.10)
    assert layers["net"]["calls"] == 12
    assert layers["protocols"]["self_share"] == pytest.approx(0.20)
    assert table["edges"]["transport->net"] == {
        "calls": 12, "cum_s": pytest.approx(0.20)}
    assert "protocols->protocols" not in table["edges"]
    # The outermost override is the boundary.
    assert table["boundaries"]["protocols.grant_payload"] == {
        "calls": 4, "cum_s": pytest.approx(0.20)}

    flat = spans.layer_metrics(table)
    assert flat["transport.send.calls"] == 10
    assert flat["transport.send.cum_us_per_call"] \
        == pytest.approx(40_000.0)
    assert flat["sync.lock_handle.calls"] == 0
    assert flat["sync.lock_handle.cum_us_per_call"] == 0.0
    assert set(flat) | {"mem.twins", "mem.diffs_encoded",
                        "mem.page_installs", "trace.overhead_ratio"} \
        == {m.name for m in metrics.TRACE}


# -- compare ------------------------------------------------------------

def _result(norm=0.200, messages=5088, failed_share=0.0, iqr=0.004):
    return {"schema": "repro.ledger.result/1", "seed": 1993,
            "workloads": {"jacobi_li_8p": {
                "end_to_end": {
                    "norm_run_s": {"value": norm, "unit": "s",
                                   "q1": norm - iqr / 2,
                                   "q3": norm + iqr / 2, "n": 72},
                    "sim_messages": {"value": messages,
                                     "unit": "count"},
                    "ops_attempted": {"value": 73, "unit": "count"},
                    "failed_share": {"value": failed_share,
                                     "unit": "ratio"},
                },
                "per_layer": {"net.messages": {"value": messages,
                                               "unit": "count"}}}}}


def _status(rows, metric):
    return {row["metric"]: row["status"] for row in rows}[metric]


def test_compare_verdicts():
    base = _result()
    rows = compare.compare(base, copy.deepcopy(base))
    assert _status(rows, "norm_run_s") == "unchanged"
    assert _status(rows, "sim_messages") == "same"
    assert _status(rows, "ops_attempted") == "info"

    assert _status(compare.compare(base, _result(norm=0.230)),
                   "norm_run_s") == "regression"
    assert _status(compare.compare(base, _result(norm=0.206)),
                   "norm_run_s") == "unchanged"
    assert _status(compare.compare(base, _result(norm=0.170)),
                   "norm_run_s") == "improved"
    # Quartile range wider than the bound: cannot claim "unchanged".
    assert _status(compare.compare(base, _result(norm=0.206,
                                                 iqr=0.05)),
                   "norm_run_s") == "unresolved"

    # A simulated metric repeats exactly: any move is reported, a
    # move beyond the bound (10 % on sim_messages) blocks.
    drift = compare.compare(base, _result(messages=5700))   # +12 %
    assert _status(drift, "sim_messages") == "regression"
    small = compare.compare(base, _result(messages=5200))   # +2.2 %
    assert _status(small, "sim_messages") == "moved"
    assert _status(small, "net.messages") == "moved"

    assert _status(compare.compare(base, _result(failed_share=0.01)),
                   "failed_share") == "regression"


def test_compare_exit_status(tmp_path):
    paths = []
    for name, result in (("a", _result()), ("b", _result(norm=0.230)),
                         ("c", _result(norm=0.206))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(result))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1]]) == 1
    assert compare.main([paths[0], paths[2]]) == 0
    other_seed = dict(_result(), seed=7)
    (tmp_path / "d.json").write_text(json.dumps(other_seed))
    assert compare.main([paths[0], str(tmp_path / "d.json")]) == 2


# -- BENCHMARK.json -----------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_is_generated_from_the_definitions():
    assert BENCHMARK == metrics.benchmark_json(
        [(w.name, w.why) for w in WORKLOADS])


def test_benchmark_json_meets_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds",
                              "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in BENCHMARK["workloads"]:
        assert len(workload["why"]) <= 200
        assert "\n" not in workload["why"]
    for entry in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 10) < 3420


def test_kernel_metrics_match_the_kernels():
    built = {name for group in kernels.GROUPS for name, _ in group}
    arms = {m.name for m in metrics.KERNELS
            if m.name.endswith("_overhead_ratio")}
    assert built | arms == {m.name for m in metrics.KERNELS}
    assert not built & arms


def test_sim_stats_yield_every_exact_count():
    from repro.core.config import MachineConfig, NetworkConfig
    from repro.lab.spec import RunSpec, execute_spec

    tiny = Workload(
        "tiny", 1, "test", serving=True,
        build=lambda seed: RunSpec(
            "kvstore", dict(nkeys=16, value_words=4, shards=4,
                            requests=40, rate_rps=20_000.0),
            protocol="lh",
            config=MachineConfig(nprocs=2, seed=seed,
                                 network=NetworkConfig.atm())))
    spec = tiny.spec(5)
    stats = sim_stats(tiny, spec, execute_spec(spec))
    from_child = {"sim.events_per_norm_s",
                  "protocols.interval_records_end",
                  "protocols.stored_diffs_end"}
    assert {m.name for m in metrics.COUNTS} - from_child \
        == {name for name in stats if "." in name}
    assert stats["requests_completed"] == 40
    assert {m.name for m in metrics.END_TO_END if m.kind == metrics.SIM
            and m.better and m.name != "failed_share"} <= set(stats)


# -- the command itself -------------------------------------------------

def _drive(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks/ledger/run.py"),
         "--workload", "jacobi_li_8p", "--seed", "3", "--seconds", "1",
         *args], capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"),
                                       ("1", "per_layer")])
def test_driver_form_prints_exactly_the_declared_metrics(
        trace, key, tmp_path):
    result = _drive("--trace", trace, "--out", str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {e["name"]: e["unit"] for e in BENCHMARK[key]}
    assert {name: entry["unit"]
            for name, entry in result["metrics"].items()} == declared
    if key == "end_to_end":
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values())
    else:
        # Attribution wired correctly, by construction.
        values = {n: e["value"] for n, e in result["metrics"].items()}
        assert values["transport.self_share"] == 0
        assert values["sync.lock_handle.calls"] == 0
        assert values["mem.diff_from_ranges.calls"] \
            == values["mem.diffs_created"] > 0
        assert (tmp_path / "trace_jacobi_li_8p.json").exists()


def test_exits_nonzero_without_the_simulator(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is nothing to measure."""
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in (ROOT / "benchmarks" / "ledger").glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--workload",
         "jacobi_li_8p", "--seed", "1", "--seconds", "1", "--trace",
         "0"], capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
