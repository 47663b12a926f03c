"""Plain-text rendering of experiment results (paper-style rows)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis.experiments import FigureResult


def format_curve_table(result: FigureResult, metric: str = "speedup",
                       fmt: str = "{:8.2f}") -> str:
    """One row per protocol, one column per processor count."""
    protocols = sorted(result.curves)
    proc_counts = sorted(next(iter(
        result.curves.values())).speedup.keys())
    header = "proto " + "".join(f"{p:>9d}p" for p in proc_counts)
    lines = [f"== {result.figure}: {result.title} ==", header]
    for protocol in protocols:
        curve = result.curves[protocol]
        values = getattr(curve, metric)
        cells = "".join("  " + fmt.format(values[p])
                        for p in proc_counts)
        lines.append(f"{protocol:>5s}{cells}")
    if result.paper_notes:
        lines.append(f"  [{result.paper_notes}]")
    return "\n".join(lines)


def format_matrix(title: str, rows: Dict[str, Dict],
                  col_order: Optional[Sequence] = None,
                  fmt: str = "{:8.2f}") -> str:
    """Render a nested dict as a labelled table."""
    lines = [f"== {title} =="]
    row_names = list(rows)
    columns = col_order or sorted({c for row in rows.values()
                                   for c in row})
    header = " " * 24 + "".join(f"{str(c):>10s}" for c in columns)
    lines.append(header)
    for name in row_names:
        cells = []
        for column in columns:
            value = rows[name].get(column)
            if value is None:
                cells.append(f"{'-':>10s}")
            else:
                cells.append("  " + fmt.format(value))
        lines.append(f"{str(name):<24s}" + "".join(cells))
    return "\n".join(lines)

