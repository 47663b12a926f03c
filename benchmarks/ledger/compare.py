"""Compare two ledger result files of the same seed: A (base) vs B.

    python benchmarks/ledger/compare.py A/result.json B/result.json

One row per (workload, end-to-end metric) with both values, the ratio
B/A and its base, and a verdict from the metric's direction and
bound (``metrics.END_TO_END``):

- ``regression`` — B is worse than A by more than the bound, or
  ``failed_share`` rose at all;
- ``improved`` — B is better by more than the bound;
- ``unresolved`` — a host metric moved less than the bound, but the
  quartile range of A or B is itself wider than the bound, so
  "unchanged" cannot be claimed;
- ``moved`` — a simulated metric changed within its bound: simulated
  statistics repeat exactly, so the move is real and the PR must
  explain it;
- ``same`` / ``unchanged`` — identical (simulated) or within the
  bound and resolved (host).

Modelled-component counts (the exact per-layer metrics) that differ
are listed as ``moved`` rows too.  Exit status is 1 when any row is a
regression, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Optional

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.metrics import COUNTS, END_TO_END, HOST, Metric

REGRESSION = "regression"


def _worse_by(metric: Metric, base: float, new: float) -> float:
    """Share of the base by which ``new`` is worse (negative: better)."""
    if base == 0:
        if new == 0:
            return 0.0
        worse = (new > 0) == (metric.better == "lower")
        return float("inf") if worse else float("-inf")
    change = (new - base) / abs(base)
    return change if metric.better == "lower" else -change


def _relative_iqr(entry: dict) -> float:
    if "q1" not in entry or not entry["value"]:
        return 0.0
    return (entry["q3"] - entry["q1"]) / abs(entry["value"])


def verdict(metric: Metric, base: dict, new: dict) -> str:
    """Verdict for one metric given its two result entries."""
    if metric.better is None:
        return "info"
    worse = _worse_by(metric, base["value"], new["value"])
    if metric.name == "failed_share":
        return REGRESSION if worse > 0 else "same"
    if worse > metric.bound:
        return REGRESSION
    if metric.kind == HOST:
        if max(_relative_iqr(base), _relative_iqr(new)) > metric.bound:
            return "unresolved"
        return "improved" if worse < -metric.bound else "unchanged"
    if base["value"] == new["value"]:
        return "same"
    return "improved" if worse < -metric.bound else "moved"


def compare(base: dict, new: dict) -> List[dict]:
    """Rows for every workload both results hold."""
    rows = []
    for name, base_record in base["workloads"].items():
        new_record = new["workloads"].get(name)
        if new_record is None:
            continue
        for metric in END_TO_END:
            a = base_record["end_to_end"].get(metric.name)
            b = new_record["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            rows.append(_row(name, metric, a, b,
                             verdict(metric, a, b)))
        for metric in COUNTS:
            a = base_record["per_layer"].get(metric.name)
            b = new_record["per_layer"].get(metric.name)
            if (metric.kind != HOST and a is not None
                    and b is not None and a["value"] != b["value"]):
                rows.append(_row(name, metric, a, b, "moved"))
    return rows


def _row(workload: str, metric: Metric, a: dict, b: dict,
         status: str) -> dict:
    ratio: Optional[float] = (b["value"] / a["value"]
                              if a["value"] else None)
    return {"workload": workload, "metric": metric.name,
            "unit": metric.unit, "base": a["value"],
            "new": b["value"], "ratio": ratio, "status": status}


def format_rows(rows: List[dict]) -> str:
    lines = [f"{'workload':<18s} {'metric':<22s} {'A (base)':>13s} "
             f"{'B':>13s} {'B/A':>8s}  verdict"]
    for row in rows:
        ratio = ("-" if row["ratio"] is None
                 else f"{row['ratio']:.4f}")
        lines.append(
            f"{row['workload']:<18s} {row['metric']:<22s} "
            f"{row['base']:>13.6g} {row['new']:>13.6g} {ratio:>8s}  "
            f"{row['status']}  (base A = {row['base']:.6g} "
            f"{row['unit']})")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(),
              file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    if base.get("schema") != new.get("schema"):
        print("result files have different schemas", file=sys.stderr)
        return 2
    if base["seed"] != new["seed"]:
        print(f"seeds differ ({base['seed']} vs {new['seed']}): "
              "simulated metrics are exact only for one seed",
              file=sys.stderr)
        return 2
    rows = compare(base, new)
    print(format_rows(rows))
    regressions = [row for row in rows if row["status"] == REGRESSION]
    unresolved = sum(row["status"] == "unresolved" for row in rows)
    moved = sum(row["status"] == "moved" for row in rows)
    print(f"# {len(rows)} rows: {len(regressions)} regression, "
          f"{unresolved} unresolved, {moved} moved")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
