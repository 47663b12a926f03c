"""The generic sweep engine."""

import pytest

from repro.analysis.sweeps import Sweep, to_csv
from repro.core import MachineConfig, NetworkConfig
from repro.lab import Lab

JACOBI = dict(n=16, iterations=2)


def make_sweep(**kwargs):
    return Sweep("jacobi", JACOBI,
                 base_config=MachineConfig(network=NetworkConfig.atm()),
                 **kwargs)


def test_cartesian_product_of_axes():
    sweep = make_sweep(baseline=False)
    sweep.axis("nprocs", [2, 4])
    sweep.axis("protocol", ["lh", "ei"], target="run")
    records = sweep.run()
    assert len(records) == 4
    seen = {(r.settings["nprocs"], r.settings["protocol"])
            for r in records}
    assert seen == {(2, "lh"), (2, "ei"), (4, "lh"), (4, "ei")}
    assert all(r.elapsed_cycles > 0 for r in records)


def test_baseline_speedups_computed_once():
    sweep = make_sweep(baseline=True)
    sweep.axis("nprocs", [2, 4])
    records = sweep.run()
    assert all(r.speedup is not None for r in records)


def test_grid_through_a_shared_lab_runs_each_baseline_once():
    """2 x 2 cells, each followed by its own ``nprocs=1`` spec: the
    two protocols share a baseline per page size, so the lab executes
    4 + 2 runs, and a pool produces the serial records."""
    def grid():
        sweep = make_sweep(baseline=True)
        sweep.axis("page_size", [2048, 4096])
        sweep.axis("protocol", ["lh", "ei"], target="run")
        return sweep

    with Lab(cache=False) as lab:
        serial = grid().run(lab=lab)
        assert lab.stats()["executed"] == 6
    assert len(serial) == 4
    assert all(r.speedup is not None for r in serial)
    with Lab(jobs=2, cache=False) as lab:
        assert grid().run(lab=lab) == serial


def test_custom_setter_axis():
    def set_bandwidth(config, mbps):
        return config.replace(network=NetworkConfig.atm(mbps))

    sweep = make_sweep(baseline=False)
    sweep.axis("nprocs", [2])
    sweep.axis("bandwidth", [10.0, 1000.0], setter=set_bandwidth)
    records = sweep.run()
    slow = next(r for r in records if r.settings["bandwidth"] == 10.0)
    fast = next(r for r in records
                if r.settings["bandwidth"] == 1000.0)
    assert slow.elapsed_cycles > fast.elapsed_cycles


def test_app_axis():
    sweep = Sweep("jacobi", JACOBI, baseline=False)
    sweep.axis("nprocs", [2])
    sweep.axis("n", [16, 32], target="app")
    records = sweep.run()
    small, big = records
    assert big.elapsed_cycles > small.elapsed_cycles


def test_csv_round_trip(tmp_path):
    sweep = make_sweep(baseline=False)
    sweep.axis("nprocs", [2, 4])
    records = sweep.run()
    path = tmp_path / "sweep.csv"
    text = to_csv(records, str(path))
    assert path.read_text() == text
    lines = text.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows
    assert "nprocs" in lines[0] and "messages" in lines[0]


def test_empty_sweep_rejected():
    with pytest.raises(ValueError):
        make_sweep().run()
    with pytest.raises(ValueError):
        make_sweep().axis("x", [1], target="nowhere")


def test_empty_records_to_csv():
    assert to_csv([]) == ""
