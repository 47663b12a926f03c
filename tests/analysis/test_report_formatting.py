"""Report formatting and the experiment plumbing (small scale)."""

import pytest

from repro.analysis import (format_curve_table, format_matrix,
                            protocol_sweep)
from repro.core import NetworkConfig


@pytest.fixture(scope="module")
def sweep():
    return protocol_sweep("jacobi", NetworkConfig.atm(),
                          proc_counts=[1, 2], protocols=["lh", "ei"],
                          scale="small")


def test_sweep_structure(sweep):
    assert set(sweep.curves) == {"lh", "ei"}
    curve = sweep.curves["lh"]
    assert curve.speedup[1] == pytest.approx(1.0)
    assert curve.messages[1] == 0
    assert sweep.baseline_cycles > 0


def test_format_curve_table(sweep):
    sweep.figure = "figX"
    sweep.title = "demo"
    text = format_curve_table(sweep)
    lines = text.splitlines()
    assert lines[0].startswith("== figX")
    assert "1p" in lines[1] and "2p" in lines[1]
    assert any(line.startswith("   lh") for line in lines)


def test_format_curve_table_other_metric(sweep):
    text = format_curve_table(sweep, "messages", fmt="{:8.0f}")
    assert "ei" in text


def test_format_matrix_handles_missing_cells():
    rows = {"a": {"x": 1.0}, "b": {"x": 2.0, "y": 3.0}}
    text = format_matrix("demo", rows, col_order=["x", "y"])
    assert "demo" in text
    assert "-" in text  # missing a/y rendered as dash
    assert "3.00" in text
