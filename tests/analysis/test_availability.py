"""Tests for the availability study (repro.analysis.availability)."""

import pytest

from repro.apps import Jacobi
from repro.analysis.availability import (availability_sweep,
                                         format_availability_table)
from repro.core.config import MachineConfig, NetworkConfig
from repro.lab import Lab, LabError

APP = dict(n=16, iterations=2)
NETWORKS = (("ethernet", NetworkConfig.ethernet()),)


def _sweep(**kwargs):
    defaults = dict(config=MachineConfig(nprocs=4),
                    mttfs=(0.0, 30_000.0), mttr_us=5_000.0,
                    horizon_us=100_000.0, protocols=("li",),
                    networks=NETWORKS, max_events=200_000)
    defaults.update(kwargs)
    return availability_sweep("jacobi", APP, **defaults)


def test_sweep_reports_baseline_and_crash_cells():
    results = _sweep()
    points = results[("li", "ethernet")]
    baseline, crashed = points
    assert baseline.mttf_us == 0.0
    assert baseline.completion_rate == 1.0
    assert baseline.crashes == 0
    assert baseline.message_overhead == 1.0
    assert crashed.crashes > 0
    assert crashed.recoveries > 0
    assert crashed.completion_rate == 1.0  # crash-recover completes
    assert crashed.mean_outage_cycles > 0
    assert crashed.message_overhead >= 1.0
    table = format_availability_table(results)
    assert "complete" in table and "ethernet" in table


def test_sweep_is_deterministic():
    assert _sweep() == _sweep()


def test_crash_stop_lowers_completion_rate():
    """MTTR 0 means nodes never come back: the crash cell must lose
    workers (the dead node's, plus any survivor blocked on it)."""
    results = _sweep(mttfs=(0.0, 20_000.0), mttr_us=0.0,
                     max_events=150_000)
    baseline, crashed = results[("li", "ethernet")]
    assert baseline.completion_rate == 1.0
    assert crashed.crashes > 0
    assert crashed.recoveries == 0
    assert crashed.completion_rate < 1.0


def test_completed_cells_are_verified_partial_ones_are_not(monkeypatch):
    """Every cell whose workers all finished has its answer checked
    against the sequential oracle (``finish``), once; a crash-stop
    cell that lost workers has no answer to check."""
    verified = []
    finish = Jacobi.finish

    def counting_finish(self, machine, shared, result):
        verified.append(sum(1 for t in result.finish_times if t))
        finish(self, machine, shared, result)

    monkeypatch.setattr(Jacobi, "finish", counting_finish)
    _baseline, crashed = _sweep()[("li", "ethernet")]
    assert crashed.crashes > 0 and crashed.completion_rate == 1.0
    assert verified == [4, 4]  # baseline + crash-recover
    del verified[:]
    _baseline, stopped = _sweep(mttfs=(0.0, 20_000.0), mttr_us=0.0,
                                max_events=150_000)[("li", "ethernet")]
    assert stopped.completion_rate < 1.0
    assert verified == [4]  # the baseline only


def test_pooled_and_cached_sweeps_equal_the_serial_one(tmp_path):
    """The grid is RunSpecs resolved through a Lab: a pool gives the
    serial table, crash-stop cells included, and a warm cache
    simulates nothing."""
    grid = dict(mttfs=(0.0, 20_000.0), mttr_us=0.0, max_events=150_000,
                networks=NETWORKS + (("atm", NetworkConfig.atm()),))
    serial = _sweep(**grid)
    with Lab(jobs=2, cache_dir=str(tmp_path)) as lab:
        assert _sweep(lab=lab, **grid) == serial
        assert lab.stats()["executed"] == 4
    with Lab(cache_dir=str(tmp_path)) as warm:
        assert _sweep(lab=warm, **grid) == serial
        assert warm.stats()["executed"] == 0


def test_a_crash_recover_cell_out_of_budget_fails_the_sweep():
    """Only a crash-stop plan makes an unfinished run a result: a
    crash-recover cell that spends its budget is an error, not a
    completion rate below 1."""
    with pytest.raises(LabError, match="did not finish") as failure:
        _sweep(max_events=200)
    assert len(failure.value.failures) == 2  # baseline + crash-recover
