"""Acceptance: applications survive a node crash with checkpointed
recovery.

A node is killed mid-run and restored from its checkpoint after
an outage long enough that peers' retransmissions probe a dead NIC.
All four applications must terminate under LI with *correct results*
(``run_app`` calls each app's ``finish`` hook, which asserts the
answer), LH must survive on both Ethernet and ATM, and the whole
crash pipeline must be deterministic: same seed, same config, byte
identical metrics.
"""

import numpy as np
import pytest

from repro.analysis.experiments import APP_PARAMS
from repro.apps import create_app
from repro.core.config import (CrashSpec, FaultConfig, MachineConfig,
                               NetworkConfig)
from repro.core.runner import run_app

# Crash early (t=400 µs), stay down past the default 10 ms RTO so
# retransmissions really hit the dead NIC before recovery bridges it.
CRASH = FaultConfig(crashes=(CrashSpec(proc=1, at_us=400.0,
                                       down_us=60_000.0),))


def _crashed(network=None) -> MachineConfig:
    return MachineConfig(nprocs=4,
                         network=network or NetworkConfig.ethernet(),
                         faults=CRASH)


@pytest.mark.parametrize("app_name", sorted(APP_PARAMS["small"]))
def test_apps_complete_across_crash_recover_li(app_name):
    params = APP_PARAMS["small"][app_name]
    clean = run_app(create_app(app_name, **params),
                    MachineConfig(nprocs=4,
                                  network=NetworkConfig.ethernet()),
                    protocol="li")
    crashed = run_app(create_app(app_name, **params), _crashed(),
                      protocol="li")
    registry = crashed.registry
    assert registry.total("faults.crashes_total") == 1
    assert registry.total("faults.recoveries_total") == 1
    assert registry.total("transport.session_resets_total") > 0
    # The outage costs time but never the answer (run_app already
    # ran the app's own correctness assertions via its finish hook;
    # the data-parallel apps must match the clean run exactly).
    assert crashed.elapsed_cycles > clean.elapsed_cycles
    if app_name in ("jacobi", "water"):
        for a, b in zip(clean.app_result, crashed.app_result):
            np.testing.assert_array_equal(np.asarray(a),
                                          np.asarray(b))


@pytest.mark.parametrize("network",
                         [NetworkConfig.ethernet(),
                          NetworkConfig.atm()],
                         ids=lambda n: n.kind)
def test_lh_crash_recover_on_both_networks(network):
    result = run_app(create_app("jacobi", n=24, iterations=3),
                     _crashed(network), protocol="lh")
    registry = result.registry
    assert registry.total("faults.crashes_total") == 1
    assert registry.total("faults.recoveries_total") == 1


def test_crash_run_is_deterministic():
    first = run_app(create_app("jacobi", n=24, iterations=3),
                    _crashed(), protocol="li")
    second = run_app(create_app("jacobi", n=24, iterations=3),
                     _crashed(), protocol="li")
    assert first.elapsed_cycles == second.elapsed_cycles
    assert first.registry.as_json() == second.registry.as_json()


def test_crash_under_message_loss_still_completes():
    """The two fault tiers compose: packet loss plus a crash."""
    faults = FaultConfig(drop_prob=0.01, crashes=CRASH.crashes)
    result = run_app(create_app("jacobi", n=24, iterations=3),
                     MachineConfig(nprocs=4,
                                   network=NetworkConfig.ethernet(),
                                   faults=faults),
                     protocol="lh")
    assert result.registry.total("faults.crashes_total") == 1
    assert result.registry.total("faults.drops_total") > 0


def test_rx_log_replays_messages_that_landed_while_down():
    """Messages that cleared receive accounting before the crash are
    replayed after restore, not lost: crash a node the instant a
    barrier episode is in flight toward it."""
    from repro.core.api import DsmApi
    from repro.core.machine import Machine

    # t=40 µs lands between a message's receive-overhead charge and
    # its dispatch on node 0, so the dispatch hits the receive log.
    config = MachineConfig(
        nprocs=2, network=NetworkConfig.ideal(),
        faults=FaultConfig(crashes=(
            CrashSpec(proc=0, at_us=40.0, down_us=50_000.0),)))
    machine = Machine(config, protocol="li")
    seg = machine.allocate("data", nwords=8)

    def worker(proc):
        api = DsmApi(machine.nodes[proc])
        if proc == 1:
            # Lands in node 0's handler pipeline around the crash.
            yield from api.acquire(0)
            yield from api.write_region(seg, 0, 1, [float(proc)])
            yield from api.release(0)
        yield from api.barrier(0)
        value = yield from api.read_region(seg, 0, 1)
        return float(value[0])

    result = machine.run(worker, app="rx-replay")
    assert result.app_result == [1.0, 1.0]
    assert result.registry.total("faults.recoveries_total") == 1
    assert result.registry.total("faults.recovery_replayed_total") >= 1
