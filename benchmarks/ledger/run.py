"""The repo benchmark, one command (README.md has the method).

Full ledger run — six workloads untraced for the end-to-end metrics,
one traced repetition per workload plus the layer kernels for the
per-layer metrics, every metric printed by name with its unit,
outputs checked::

    PYTHONPATH=src python benchmarks/ledger/run.py \
        [--seed 1993] [--workload NAME] [--out DIR]

Driver form (``BENCHMARK.json``) — one workload, measured for
``--seconds``; the last line of output is one JSON object holding the
end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics::

    python3 benchmarks/ledger/run.py --workload NAME --seed N \
        --seconds S --trace 0|1

This process only generates load and reads results: it launches one
child interpreter at a time (no threads, no pool) and every number
comes from ``worker.py`` children observing the simulator through
its public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parents[1]
if __name__ == "__main__":
    # Script form: make ``repro`` and ``benchmarks.ledger`` importable
    # (children get the same two entries through PYTHONPATH).
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# These import nothing from the simulator; the modules that do
# (workloads.py, repro itself) are imported once main() has checked
# that the simulator is there.
from benchmarks.ledger.calibrate import normalised  # noqa: E402
from benchmarks.ledger.metrics import (  # noqa: E402
    DRIVER_END_TO_END, DRIVER_PER_LAYER, END_TO_END, KERNELS, summarise)
from benchmarks.ledger.spans import layer_metrics  # noqa: E402

RESULT_SCHEMA = "repro.ledger.result/1"
LEDGER_SCHEMA = "repro.ledger.row/1"
INTERPRETERS = 3
#: Rounds of the layer kernels in a full run.
KERNEL_ROUNDS = 15
#: Rounds of the whole-run obs arms in a full run; even, because the
#: order of each (plain, arm) pair alternates.
ARM_ROUNDS = 16
#: A child that runs longer than this is killed and counted failed.
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    """A worker child crashed, timed out or printed no result."""


def spawn(mode: str, args: dict) -> dict:
    """Run one ``worker.py`` child to completion; its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    # The simulator is single-threaded; cholesky's finish() multiplies
    # one small matrix, after which OpenBLAS's second thread busy-waits
    # ~100 ms on the sibling hyperthread and halves the speed of
    # whatever runs next (the two calibration runs after a cholesky
    # repetition took 2x and 1.5x).  One BLAS thread removes that.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    args = dict(args, spawned_at=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.ledger.worker", mode,
             json.dumps(args)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child exceeded "
                          f"{CHILD_TIMEOUT_S}s") from None
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


class Checks:
    """Attempted / failed operations of one workload (or the
    kernels), with the reason for every failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, attempted: int, failed: int, errors=()) -> None:
        self.attempted += attempted
        self.failed += failed
        self.errors.extend(errors)

    def expect(self, ok: bool, message: str) -> None:
        self.add(1, 0 if ok else 1, () if ok else (message,))


def _host(values: List[float], unit: str) -> dict:
    return {**summarise(values), "unit": unit}


def measure(workload, seed: int, checks: Checks,
            reps: Optional[int] = None,
            budget_s: Optional[float] = None,
            interpreters: int = INTERPRETERS) -> Optional[dict]:
    """The untraced end-to-end measurement: ``interpreters`` fresh
    children, pooled paired ratios.  None if no child produced a
    sample."""
    children = []
    for index in range(interpreters):
        try:
            child = spawn("timed", {
                "workload": workload.name, "seed": seed,
                "reps": reps, "budget_s": budget_s,
                "check_golden": index == 0})
        except ChildFailed as exc:
            checks.add(1, 1, [str(exc)])
            continue
        checks.add(child["attempted"], child["failed"],
                   child["errors"])
        if child["samples"]["wall"]:
            children.append(child)
    if not children:
        return None
    sim = children[0]["sim"]
    for child in children[1:]:
        checks.expect(child["sim"] == sim,
                      "simulated statistics differ between "
                      "interpreters")

    def pooled(key: str) -> List[float]:
        return [value for child in children
                for value in child["samples"][key]]

    end_to_end = {
        "norm_run_s": _host(
            [normalised(wall, cal) for wall, cal
             in zip(pooled("wall"), pooled("cal_wall"))], "s"),
        # One calibration sample is too noisy a denominator for the
        # three set-up samples a run has; each child's median
        # calibration (taken over the seconds that follow) is not.
        "setup_s": _host(
            [normalised(child["setup_wall"],
                        statistics.median(child["samples"]["cal_wall"]))
             for child in children], "s"),
        "peak_rss_mb": _host([c["peak_rss_mb"] for c in children],
                             "MB"),
    }
    for metric in END_TO_END:
        if metric.name in sim:
            end_to_end[metric.name] = {"value": sim[metric.name],
                                       "unit": metric.unit}
    counts = {name: value for name, value in sim.items()
              if "." in name}
    counts["sim.events_per_norm_s"] = (
        counts["sim.events"] / end_to_end["norm_run_s"]["value"])
    return {
        "end_to_end": end_to_end, "counts": counts, "sim": sim,
        # Un-gated raw samples, per interpreter, wall and CPU.
        "raw": {
            "samples_s": [child["samples"] for child in children],
            "setup_wall_s": [c["setup_wall"] for c in children],
            "setup_cpu_s": [c["setup_cpu"] for c in children],
            "wall_s": _host(pooled("wall"), "s"),
            "calibration_wall_s": _host(pooled("cal_wall"), "s"),
            "cpu_s": _host(pooled("cpu"), "s"),
        },
    }


def trace(workload, seed: int, measured: dict, checks: Checks,
          out: Path) -> Dict[str, float]:
    """The separate traced repetition: writes the span table, returns
    the (b) per-layer metrics."""
    child = spawn("traced", {"workload": workload.name, "seed": seed})
    # The profiler observes; it must not steer.
    checks.expect(child["sim"] == {k: v for k, v
                                   in measured["sim"].items()
                                   if k in child["sim"]},
                  "traced repetition's simulated statistics differ "
                  "from the untraced ones")
    table = child["table"]
    overhead = (normalised(child["wall"], child["cal_wall"])
                / measured["end_to_end"]["norm_run_s"]["value"])
    out.mkdir(parents=True, exist_ok=True)
    (out / f"trace_{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "traced_wall_s": child["wall"],
        "overhead_ratio": overhead, **table}, indent=1) + "\n")

    metrics = layer_metrics(table)
    metrics.update(child["mem"])
    metrics["trace.overhead_ratio"] = overhead
    # Attribution is wired correctly only if layers that cannot run
    # on this workload show no time: the transport is bypassed
    # without faults, and Jacobi takes no locks.
    lossy = measured["counts"]["faults.drops"] > 0
    checks.expect((metrics["transport.self_share"] > 0) == lossy,
                  "transport.self_share must be > 0 exactly when "
                  "faults are injected")
    if workload.golden:
        checks.expect(metrics["sync.lock_handle.calls"] == 0,
                      "sync.lock_handle ran on a barrier-only "
                      "workload")
    return metrics


def kernels(seed: int, rounds: int, arm_rounds: int, checks: Checks,
            out: Path) -> Dict[str, dict]:
    """The (c) metrics: the micro kernels, then the whole-run obs
    arms, each in its own child."""
    out.mkdir(parents=True, exist_ok=True)
    units = {metric.name: metric.unit for metric in KERNELS}
    metrics = {}
    for mode, args in (
            ("kernels", {"seed": seed, "rounds": rounds}),
            ("arms", {"rounds": arm_rounds})):
        child = spawn(mode, dict(args, scratch=str(out)))
        checks.add(child["attempted"], child["failed"],
                   child["errors"])
        for name, entry in child["metrics"].items():
            metrics[name] = {**entry, "unit": units[name]}
    return metrics


# -- reporting ----------------------------------------------------------

def _line(scope: str, name: str, entry: dict) -> str:
    value = entry["value"]
    text = (f"{value:.6g}" if isinstance(value, float)
            else str(value))
    line = f"{scope:<18s} {name:<42s} {text:>14s} {entry['unit']}"
    if "q1" in entry:
        line += (f"   [q1 {entry['q1']:.6g}  q3 {entry['q3']:.6g}  "
                 f"n {entry['n']}]")
    return line


def _checks_entries(checks: Checks) -> Dict[str, dict]:
    return {
        "ops_attempted": {"value": checks.attempted, "unit": "count"},
        "failed_share": {"value": checks.failed / checks.attempted
                         if checks.attempted else 0.0,
                         "unit": "ratio"},
    }


def print_workload(name: str, record: dict) -> None:
    for metric, entry in record["end_to_end"].items():
        print(_line(name, metric, entry))
    for metric, entry in record["per_layer"].items():
        print(_line(name, metric, entry))
    for error in record["errors"]:
        print(f"{name:<18s} FAILED CHECK: {error}")


# -- the two entry forms ------------------------------------------------

def full_run(options) -> int:
    from benchmarks.ledger.workloads import BY_NAME, WORKLOADS
    from repro.lab.spec import code_version

    out = Path(options.out)
    chosen = ([BY_NAME[options.workload]] if options.workload
              else list(WORKLOADS))
    units = {metric.name: metric.unit for metric in DRIVER_PER_LAYER}
    print("# ledger run: host metrics are normalised seconds "
          "(calibration-paired medians); simulated metrics are "
          "exact for the seed.")
    print("# serving latency is simulated time from each request's "
          "scheduled arrival; arrivals are exact in simulated time, "
          "so generator lateness is 0 by construction.")
    print("# page copies start empty (cold misses are inside every "
          "run); the model is unvalidated at these scaled sizes: no "
          "error figure is given.")
    records: Dict[str, dict] = {}
    for workload in chosen:
        checks = Checks()
        record = {"why": workload.why,
                  "spec": workload.spec(options.seed).to_dict(),
                  "end_to_end": {}, "per_layer": {}, "raw": {}}
        measured = measure(workload, options.seed, checks,
                           reps=workload.reps)
        if measured is not None:
            record["end_to_end"] = measured["end_to_end"]
            record["raw"] = measured["raw"]
            layer = dict(measured["counts"])
            try:
                layer.update(trace(workload, options.seed, measured,
                                   checks, out))
            except ChildFailed as exc:
                checks.add(1, 1, [str(exc)])
            record["per_layer"] = {
                name: {"value": value, "unit": units[name]}
                for name, value in layer.items()}
        record["end_to_end"].update(_checks_entries(checks))
        record.update(attempted=checks.attempted,
                      failed=checks.failed, errors=checks.errors)
        records[workload.name] = record
        print_workload(workload.name, record)

    kernel_checks = Checks()
    try:
        kernel_metrics = kernels(options.seed, KERNEL_ROUNDS,
                                 ARM_ROUNDS, kernel_checks, out)
    except ChildFailed as exc:
        kernel_metrics = {}
        kernel_checks.add(1, 1, [str(exc)])
    for name, entry in kernel_metrics.items():
        print(_line("kernels", name, entry))
    for error in kernel_checks.errors:
        print(f"{'kernels':<18s} FAILED CHECK: {error}")

    result = {
        "schema": RESULT_SCHEMA,
        "code_version": code_version(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": options.seed,
        "date": time.strftime("%Y-%m-%d"),
        "workloads": records,
        "kernels": {"metrics": kernel_metrics,
                    "attempted": kernel_checks.attempted,
                    "failed": kernel_checks.failed,
                    "errors": kernel_checks.errors},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps(result, indent=1)
                                     + "\n")
    failed = (sum(r["failed"] for r in records.values())
              + kernel_checks.failed)
    if len(chosen) == len(WORKLOADS):
        with open(LEDGER_DIR / "ledger.jsonl", "a") as handle:
            handle.write(json.dumps(ledger_row(result),
                                    sort_keys=True) + "\n")
    print(f"# wrote {out / 'result.json'}; failed operations: "
          f"{failed}")
    return 1 if failed else 0


def ledger_row(result: dict) -> dict:
    """One compact line of ``ledger.jsonl``: the end-to-end values,
    host events/s and the kernels of one run."""
    def short(value):
        return float(f"{value:.5g}") if isinstance(value, float) \
            else value

    workloads = {}
    for name, record in result["workloads"].items():
        row = {metric: short(entry["value"])
               for metric, entry in record["end_to_end"].items()}
        row["sim.events_per_norm_s"] = short(
            record["per_layer"]["sim.events_per_norm_s"]["value"])
        workloads[name] = row
    return {
        "schema": LEDGER_SCHEMA,
        "date": result["date"], "seed": result["seed"],
        "code_version": result["code_version"][:12],
        "python": result["python"], "nproc": result["nproc"],
        "workloads": workloads,
        "kernels": {name: short(entry["value"]) for name, entry
                    in result["kernels"]["metrics"].items()},
    }


def driver_run(options) -> int:
    """One workload for the benchmark driver; the result is the last
    line of standard output."""
    from benchmarks.ledger.workloads import BY_NAME

    workload = BY_NAME[options.workload]
    out = Path(options.out)
    checks = Checks()
    if options.trace == 0:
        measured = measure(workload, options.seed, checks,
                           budget_s=options.seconds / INTERPRETERS)
    else:
        # Per-layer pass: a short untraced measurement for the exact
        # counts and the overhead base, then the traced repetition
        # and the kernels sized to the seconds given.
        measured = measure(workload, options.seed, checks, reps=2,
                           interpreters=1)
    if measured is None:
        print("\n".join(checks.errors), file=sys.stderr)
        return 1
    if options.trace == 0:
        metrics = {m.name: {"value": measured["end_to_end"][m.name]
                            ["value"], "unit": m.unit}
                   for m in DRIVER_END_TO_END}
    else:
        values = dict(measured["counts"])
        values.update(trace(workload, options.seed, measured, checks,
                            out))
        rounds = max(3, min(KERNEL_ROUNDS, options.seconds // 2))
        arm_rounds = max(2, min(ARM_ROUNDS,
                                options.seconds // 12 * 2))
        values.update({
            name: entry["value"] for name, entry in kernels(
                options.seed, rounds, arm_rounds, checks,
                out).items()})
        # The serve-only simulated metrics read 0 on the kernels.
        metrics = {
            m.name: {"value": values.get(
                m.name, measured["sim"].get(m.name, 0)),
                "unit": m.unit}
            for m in DRIVER_PER_LAYER}
    for name, entry in metrics.items():
        print(_line(workload.name, name, entry))
    for error in checks.errors:
        print(f"{workload.name:<18s} FAILED CHECK: {error}")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def parse_args(argv):
    from benchmarks.ledger.workloads import BY_NAME, DEFAULT_SEED

    parser = argparse.ArgumentParser(
        description="Run the repo benchmark (benchmarks/ledger).")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="becomes MachineConfig.seed: drives the "
                             "serving schedule and the fault plan")
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--out", default=str(LEDGER_DIR / "out"),
                        help="directory for result.json and "
                             "trace_<workload>.json")
    parser.add_argument("--seconds", type=int,
                        help="driver form: seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 end-to-end metrics, "
                             "1 per-layer metrics")
    options = parser.parse_args(argv)
    if options.trace is not None and (
            options.workload is None or options.seconds is None
            or options.seconds < 1):
        parser.error("--trace needs --workload and --seconds >= 1")
    return options


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("benchmarks/ledger measures the simulator in src/repro, "
              "which this directory does not hold", file=sys.stderr)
        return 2
    options = parse_args(argv)
    if options.trace is None:
        return full_run(options)
    try:
        return driver_run(options)
    except ChildFailed as exc:
        # No complete metric set: fail without printing a result.
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
