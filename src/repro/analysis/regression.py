"""Bench regression sentinel: watch the benchmark trajectory.

``benchmarks/`` emits raw records (``BENCH_core.json``,
``BENCH_core32.json``, ``BENCH_lab.json``, the serving sweep) whose
shapes differ per harness and whose noise characteristics are known
only to their harnesses.  This module reads them all, applies one
robust comparison against the committed baselines, and emits a single
normalized, schema-versioned ``BENCH_summary.json`` — the artifact a
human (or the next PR's CI) compares across revisions.

The comparison is the *paired median ratio* (the method BENCH_core
uses for its tracer-overhead gate): every per-round rate in the fresh
record pairs positionally with the baseline record's round in the
same (interpreter, round) slot, and the verdict is the median-low of
the per-pair ratios.  Pairing keeps slot-correlated effects (early
rounds colder, later interpreters on a busier machine) out of the
estimate, and the median ignores individual outlier rounds entirely —
compared with best-of vs best-of, which inherits whichever single
round was luckiest in each record.

On a flagged regression the sentinel can *attribute*: it re-profiles
the recorded workload (``repro.analysis.profiling``) and reports the
top subsystem and protocol buckets — a hint for where the cycles
went, computed only when something actually regressed (profiling
costs a run).

Run it as a module::

    PYTHONPATH=src python -m repro.analysis.regression \
        --core BENCH_core.json --lab BENCH_lab.json \
        --out BENCH_summary.json

Exit status 1 when any section's verdict is ``regression``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

#: Bumped whenever the summary layout changes.
BENCH_SUMMARY_SCHEMA = "repro.bench.summary/1"

#: Default fractional drop that counts as a regression, per record
#: (the core32 arm runs reduced sampling in CI so it gets more slack).
DEFAULT_THRESHOLD = 0.10
DEFAULT_THRESHOLD32 = 0.15

#: A serving cell's capacity is the highest offered load whose SLO
#: attainment still meets this fraction.
CAPACITY_ATTAINMENT = 0.9


def _median_low(values: List[float]) -> float:
    """Median that is always one of the samples (mirrors the
    benchmark harnesses)."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def paired_median_ratio(fresh_round_rates: List[List[float]],
                        baseline_round_rates: List[List[float]]
                        ) -> float:
    """Median-low of positionally-paired fresh/baseline rate ratios.

    Round lists are per-interpreter; rounds pair by (interpreter,
    round) slot and unmatched tail slots are dropped, so records with
    different sampling effort still compare over their common
    prefix."""
    ratios = [
        fresh / base
        for fresh_rates, base_rates in zip(fresh_round_rates,
                                           baseline_round_rates)
        for fresh, base in zip(fresh_rates, base_rates)
        if base > 0]
    if not ratios:
        raise ValueError("no pairable rounds between the records")
    return _median_low(ratios)


def _load(path: Optional[str]) -> Optional[dict]:
    if path is None or not Path(path).exists():
        return None
    return json.loads(Path(path).read_text())


def _attribution(workload: dict) -> dict:
    """Profile the recorded workload and report where time goes —
    the hint attached to a flagged regression."""
    from repro.analysis.profiling import profile_spec
    from repro.lab.spec import RunSpec

    report = profile_spec(RunSpec.from_dict(workload))
    total = sum(report.subsystem_seconds.values()) or 1.0
    subsystems = sorted(report.subsystem_seconds.items(),
                        key=lambda kv: kv[1], reverse=True)
    protocol_total = sum(report.protocol_seconds.values()) or 1.0
    buckets = sorted(report.protocol_seconds.items(),
                     key=lambda kv: kv[1], reverse=True)
    return {
        "top_subsystems": [
            {"subsystem": name, "share": round(seconds / total, 3)}
            for name, seconds in subsystems[:3]],
        "top_protocol_buckets": [
            {"bucket": name,
             "share": round(seconds / protocol_total, 3)}
            for name, seconds in buckets[:3]],
    }


def core_section(record: Optional[dict], baseline: Optional[dict],
                 threshold: float, attribute: bool = False) -> dict:
    """Normalized verdict for one core-benchmark record."""
    if record is None:
        return {"status": "missing"}
    section = {
        "events": record["events"],
        "events_per_second": record["events_per_second"],
        "rate_spread": record["rate_spread"],
        "tracer_overhead": record["tracer_nullsink_overhead"],
        "byte_identical": record["byte_identical"],
        "threshold": threshold,
    }
    if not record["byte_identical"]:
        section["status"] = "anomaly"
        section["detail"] = ("run diverged from the golden dump — "
                             "a correctness problem, not a speed one")
        return section
    if baseline is None:
        section["status"] = "no-baseline"
        return section
    ratio = paired_median_ratio(record["round_rates"],
                                baseline["round_rates"])
    section["median_ratio_vs_baseline"] = round(ratio, 4)
    if ratio < 1.0 - threshold:
        section["status"] = "regression"
        if attribute:
            section["attribution"] = _attribution(record["workload"])
    elif ratio > 1.0 + threshold:
        section["status"] = "improved"
    else:
        section["status"] = "ok"
    return section


def lab_section(record: Optional[dict]) -> dict:
    """Normalized verdict for the lab fan-out benchmark (its gate is
    structural — parallel must beat serial — not a rate baseline)."""
    if record is None:
        return {"status": "missing"}
    section = {
        "parallel_speedup": record["parallel_speedup"],
        "effective_jobs": record["effective_jobs"],
        "executor_startup_seconds": record["executor_startup_seconds"],
        "warm_executed": record["warm_executed"],
        "byte_identical": record["byte_identical"],
    }
    if not record["byte_identical"] or record["warm_executed"] != 0:
        section["status"] = "anomaly"
    elif record["parallel_speedup"] <= 1.0:
        section["status"] = "regression"
    else:
        section["status"] = "ok"
    return section


def serving_section(sweep: Optional[dict],
                    attainment: float = CAPACITY_ATTAINMENT) -> dict:
    """Per-cell serving capacity from a ``servesweep`` JSON artifact:
    the highest offered load whose SLO attainment still meets
    ``attainment``."""
    if sweep is None:
        return {"status": "missing"}
    cells = []
    for cell in sweep.get("cells", []):
        meeting = [point["offered_rps"] for point in cell["points"]
                   if point["slo_attainment"] >= attainment]
        cells.append({
            "protocol": cell["protocol"],
            "network": cell["network"],
            "capacity_rps": max(meeting) if meeting else 0.0,
            "rates_probed": len(cell["points"]),
        })
    return {"status": "ok", "attainment_target": attainment,
            "cells": cells}


def update_summary(path, section: str, payload: dict) -> None:
    """Merge one section into ``BENCH_summary.json`` (read-modify-
    write, so the two benchmark harnesses and the sentinel can each
    contribute their part without clobbering the others)."""
    path = Path(path)
    summary = {"schema": BENCH_SUMMARY_SCHEMA, "sections": {}}
    if path.exists():
        existing = json.loads(path.read_text())
        if existing.get("schema") == BENCH_SUMMARY_SCHEMA:
            summary = existing
    summary["sections"][section] = payload
    path.write_text(json.dumps(summary, indent=2, sort_keys=True)
                    + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Bench regression sentinel: normalize the "
                    "benchmark records, compare against committed "
                    "baselines, emit BENCH_summary.json")
    parser.add_argument("--core", default="BENCH_core.json")
    parser.add_argument("--core32", default="BENCH_core32.json")
    parser.add_argument("--lab", default="BENCH_lab.json")
    parser.add_argument("--serving", default=None,
                        help="servesweep JSON artifact (optional)")
    parser.add_argument("--core-baseline",
                        default="benchmarks/core_baseline.json")
    parser.add_argument("--core32-baseline",
                        default="benchmarks/core32_baseline.json")
    parser.add_argument("--threshold", type=float,
                        default=DEFAULT_THRESHOLD)
    parser.add_argument("--threshold32", type=float,
                        default=DEFAULT_THRESHOLD32)
    parser.add_argument("--out", default="BENCH_summary.json")
    parser.add_argument("--attribute", action="store_true",
                        help="on regression, profile the workload "
                             "and attach subsystem/protocol-bucket "
                             "attribution hints (costs a run)")
    args = parser.parse_args(argv)

    sections = {
        "core": core_section(_load(args.core),
                             _load(args.core_baseline),
                             args.threshold, attribute=args.attribute),
        "core32": core_section(_load(args.core32),
                               _load(args.core32_baseline),
                               args.threshold32,
                               attribute=args.attribute),
        "lab": lab_section(_load(args.lab)),
        "serving": serving_section(_load(args.serving)),
    }
    for name, section in sections.items():
        update_summary(args.out, name, section)

    failed = False
    for name, section in sections.items():
        status = section["status"]
        detail = ""
        if "median_ratio_vs_baseline" in section:
            detail = (f" (paired median ratio "
                      f"{section['median_ratio_vs_baseline']:.3f} vs "
                      f"threshold -{section['threshold']:.0%})")
        elif "parallel_speedup" in section:
            detail = f" (speedup {section['parallel_speedup']}x)"
        elif "cells" in section:
            caps = ", ".join(
                f"{c['protocol']}/{c['network']}="
                f"{c['capacity_rps']:.0f}rps"
                for c in section["cells"])
            detail = f" ({caps})" if caps else ""
        print(f"{name}: {status}{detail}")
        if status in ("regression", "anomaly"):
            failed = True
            hints = section.get("attribution")
            if hints:
                tops = ", ".join(
                    f"{h['subsystem']} {h['share']:.0%}"
                    for h in hints["top_subsystems"])
                print(f"  attribution: {tops}")
    print(f"summary written to {args.out}")
    if failed:
        print("FAIL: regression or anomaly flagged above")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
