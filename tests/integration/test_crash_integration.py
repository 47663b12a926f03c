"""Acceptance: applications survive a node crash and its recovery.

A node is killed mid-run and comes back after an outage long enough
that peers' retransmissions probe a dead NIC.  All four applications
must terminate under LI with *correct results* (``run_app`` calls each
app's ``finish`` hook, which asserts the answer), LH must survive on
both Ethernet and ATM, and the whole crash pipeline must be
deterministic: same seed, same config, byte identical metrics.  The
node a crash takes down is frozen, not emptied: it recovers holding
exactly what it held at the crash instant.
"""

import numpy as np
import pytest

from repro.analysis.experiments import APP_PARAMS
from repro.apps import create_app
from repro.core.config import (CrashSpec, FaultConfig, MachineConfig,
                               NetworkConfig)
from repro.core.machine import Machine
from repro.core.runner import run_app
from repro.sim.lifecycle import NodeLifecycleManager

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
    replayed at recovery, not lost: crash a node the instant a
    barrier episode is in flight toward it."""
    from repro.core.api import DsmApi

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


def _held(node):
    """What a node holds: its pages, clocks, log, diffs and copysets,
    its protocol's queues, and its lock and barrier progress."""
    protocol = node.protocol
    barriers = node.barrier_manager
    return dict(
        vc=node.vc, peer_seen=list(node.peer_seen),
        pages={page: (copy.snapshot(), copy.valid, copy.twin, copy.vc,
                      list(copy.written), dict(copy.applied),
                      list(copy.pending_notices))
               for page, copy in node.pagetable.copies.items()},
        log=list(node.interval_log._records.items()),
        diffs=dict(node.diff_store._diffs),
        copysets=dict(node.copysets._masks),
        unpropagated={iid: set(pages) for iid, pages
                      in protocol.unpropagated.items()},
        clocks=(protocol.last_barrier_vc, protocol._gc_prunable_vc),
        fetching=(set(getattr(protocol, "_miss_in_flight", ())),
                  {page: list(parked) for page, parked
                   in getattr(protocol, "_poison_records", {}).items()}),
        ownership=(dict(getattr(protocol, "mode", {})),
                   {page: (m.owner, set(m.copyset), m.busy,
                           list(m.pending))
                    for page, m in getattr(protocol, "managed",
                                           {}).items()},
                   set(getattr(protocol, "_fault_done", ()))),
        locks={lock: (s.has_token, s.held, list(s.queue),
                      list(s.early_forwards), s.last_granted_to,
                      s.probable_tail)
               for lock, s in node.lock_manager._locks.items()},
        barriers=(dict(barriers._episode), barriers._episodes_completed,
                  {key: dict(episode.arrived)
                   for key, episode in barriers._master.items()}))


@pytest.mark.parametrize("app_name,params", [
    ("jacobi", dict(n=24, iterations=3)),
    ("water", dict(nmols=12, steps=2)),
    ("cholesky", dict(k=4))], ids=["jacobi", "water", "cholesky"])
@pytest.mark.parametrize("protocol", ["li", "lu", "lh", "ec", "ei", "eu",
                                      "sc"])
def test_an_outage_leaves_the_node_as_it_was(protocol, app_name, params,
                                            monkeypatch):
    """Nothing reaches a down node's state: its workers are paused
    and its messages are logged, so at recovery it holds exactly what
    it held when it crashed, for every protocol, across many short
    outages that land on fetches and lock hand-offs in flight."""
    at_crash = {}
    compared = []
    crash, recover = (NodeLifecycleManager._crash,
                      NodeLifecycleManager._recover)

    def crash_and_record(self, ev):
        crash(self, ev)
        at_crash[ev.proc] = _held(self.machine.nodes[ev.proc])

    def compare_and_recover(self, proc):
        assert _held(self.machine.nodes[proc]) == at_crash.pop(proc)
        compared.append(proc)
        recover(self, proc)

    monkeypatch.setattr(NodeLifecycleManager, "_crash", crash_and_record)
    monkeypatch.setattr(NodeLifecycleManager, "_recover",
                        compare_and_recover)
    config = MachineConfig(nprocs=4, network=NetworkConfig.atm(),
                           faults=FaultConfig(crash_mttf_us=2000.0,
                                              crash_mttr_us=300.0,
                                              crash_horizon_us=20000.0))
    Machine(config, protocol=protocol).run_app(
        create_app(app_name, **params))
    assert len(compared) >= 10
