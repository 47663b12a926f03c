"""Tests for the availability study (repro.analysis.availability)."""

from repro.apps import Jacobi
from repro.analysis.availability import (availability_sweep,
                                         format_availability_table)
from repro.core.config import MachineConfig, NetworkConfig

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
        verified.append(machine.completion())
        finish(self, machine, shared, result)

    monkeypatch.setattr(Jacobi, "finish", counting_finish)
    _baseline, crashed = _sweep()[("li", "ethernet")]
    assert crashed.crashes > 0 and crashed.completion_rate == 1.0
    assert verified == [(4, 4), (4, 4)]  # baseline + crash-recover
    del verified[:]
    _baseline, stopped = _sweep(mttfs=(0.0, 20_000.0), mttr_us=0.0,
                                max_events=150_000)[("li", "ethernet")]
    assert stopped.completion_rate < 1.0
    assert verified == [(4, 4)]  # the baseline only
