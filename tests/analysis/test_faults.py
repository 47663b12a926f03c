"""The loss-degradation study (repro.analysis.faults)."""

import pytest

from repro.analysis.faults import format_loss_table, loss_sweep
from repro.core.config import MachineConfig, NetworkConfig

CONFIG = MachineConfig(nprocs=4, network=NetworkConfig.ethernet())


def _sweep():
    return loss_sweep("jacobi", CONFIG, rates=(0.0, 0.01),
                      protocols=("lh", "li"),
                      app_params=dict(n=24, iterations=3))


def test_each_protocol_is_measured_against_its_own_first_rate():
    results = _sweep()
    assert list(results) == ["lh", "li"]
    for protocol, (clean, lossy) in results.items():
        assert (clean.protocol, clean.drop_prob) == (protocol, 0.0)
        assert clean.slowdown == 1.0 and clean.drops == 0
        assert lossy.drop_prob == 0.01 and lossy.drops > 0
        assert lossy.retransmits > 0
        assert lossy.slowdown == \
            lossy.elapsed_cycles / clean.elapsed_cycles > 1.0
    assert "slowdown" in format_loss_table(results)


def test_sweep_is_deterministic():
    assert _sweep() == _sweep()


def test_empty_rates_rejected():
    with pytest.raises(ValueError, match="rates"):
        loss_sweep("jacobi", CONFIG, rates=())
