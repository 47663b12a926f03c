"""Acceptance: every application x protocol combination survives a
lossy Ethernet.

At 1% message loss the reliable transport must mask every fault: all
four applications terminate under all five protocols and SC with
*correct results* (each app's ``finish`` hook asserts its answer — Jacobi
against a sequential solve, TSP against the known best tour, and so
on), having actually exercised the retransmission path.
"""

import pytest

from repro.analysis.experiments import APP_PARAMS
from repro.apps import create_app
from repro.core.config import FaultConfig, MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.protocols import PROTOCOL_NAMES

LOSSY = MachineConfig(nprocs=4, network=NetworkConfig.ethernet(),
                      faults=FaultConfig(drop_prob=0.01))


@pytest.mark.parametrize("protocol", PROTOCOL_NAMES + ["sc"])
@pytest.mark.parametrize("app_name", sorted(APP_PARAMS["small"]))
def test_apps_survive_one_percent_loss(app_name, protocol):
    params = APP_PARAMS["small"][app_name]
    # run_app calls app.finish, which raises on incorrect results.
    result = run_app(create_app(app_name, **params), LOSSY,
                     protocol=protocol)
    registry = result.registry
    assert registry.total("faults.drops_total") > 0
    assert registry.total("transport.retransmits_total") > 0
    assert registry.total("transport.delivered_total") > 0


def test_loss_slows_but_does_not_change_the_answer():
    """The fault-free and lossy runs agree on the application result;
    the lossy one just takes longer."""
    clean_cfg = MachineConfig(nprocs=4,
                              network=NetworkConfig.ethernet())
    clean = run_app(create_app("jacobi", n=24, iterations=3),
                    clean_cfg, protocol="lh")
    lossy = run_app(create_app("jacobi", n=24, iterations=3),
                    clean_cfg.replace(
                        faults=FaultConfig(drop_prob=0.01)),
                    protocol="lh")
    assert lossy.elapsed_cycles > clean.elapsed_cycles
    import numpy as np
    for a, b in zip(clean.app_result, lossy.app_result):
        if a is not None and b is not None:
            np.testing.assert_array_equal(np.asarray(a),
                                          np.asarray(b))
