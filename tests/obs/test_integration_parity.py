"""The registry on a real run: series per node and per kind that
add up, the network's own counters, const labels, and the paper's
message-mix facts read straight off ``dsm.messages_total``.

Each fact is counted once, in a registry cell; ``RunResult``'s readers
total those cells.  A Jacobi run on the 100 Mbit ATM network exercises
every layer: the event kernel, the ATM model, the protocol engine, and
the lock/barrier managers.
"""

import json

import pytest

from repro.apps import create_app
from repro.core.config import FaultConfig, MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.net.message import MsgKind


def _jacobi_run(protocol="li", nprocs=4):
    return run_app(create_app("jacobi", n=24, iterations=3),
                   MachineConfig(nprocs=nprocs,
                                 network=NetworkConfig.atm()),
                   protocol=protocol)


@pytest.fixture(scope="module")
def result():
    return _jacobi_run()


def test_message_counts_match_per_node_and_kind(result):
    registry = result.registry
    assert registry.total("dsm.messages_total") == \
        result.total_messages > 0
    by_node = registry.by_label("dsm.messages_total", "node")
    by_type = registry.by_label("dsm.messages_total", "msg_type")
    assert sum(by_node.values()) == sum(by_type.values()) == \
        result.total_messages
    assert set(by_node) <= {str(proc) for proc in range(4)}
    assert set(by_type) <= {kind.value for kind in MsgKind}
    # NodeInstruments binds every node's cells eagerly, in proc order
    # (the order MetricsRegistry.from_dump restores).
    assert list(registry.by_label("cpu.compute_cycles_total",
                                  "node")) == ["0", "1", "2", "3"]


def test_network_stats_match_registry(result):
    registry = result.registry
    # The wire-time histogram saw every message.
    wire = registry.get("net.wire_cycles").labels()
    assert wire.count == registry.total("net.messages_total") > 0


def test_sim_event_count_matches_registry(result):
    assert result.registry.total("sim.events_dispatched_total") > 0
    assert result.registry.total("sim.queue_depth_peak") >= 1


def test_const_labels_describe_the_run(result):
    assert result.registry.const_labels == {
        "protocol": "li", "network": "atm", "nprocs": "4",
        "app": "jacobi"}


def test_barrier_messages_exist_on_multiproc_run(result):
    by_type = result.registry.by_label("dsm.messages_total",
                                       "msg_type")
    assert by_type.get(MsgKind.BARRIER_ARRIVE.value, 0) > 0
    assert by_type.get(MsgKind.BARRIER_DEPART.value, 0) > 0


def _water_run(protocol, nmols=16, faults=FaultConfig()):
    return run_app(create_app("water", nmols=nmols, steps=1),
                   MachineConfig(nprocs=4, network=NetworkConfig.atm(),
                                 faults=faults),
                   protocol=protocol)


def test_eu_flush_messages_dominate():
    """Paper section 6.2: '91% of EU's messages are updates sent
    during lock releases.'  In our accounting that's the FLUSH +
    FLUSH_ACK share of ``dsm.messages_total``."""
    by_type = _water_run("eu", nmols=24).registry.by_label(
        "dsm.messages_total", "msg_type")
    flush_traffic = (by_type.get(MsgKind.FLUSH.value, 0)
                     + by_type.get(MsgKind.FLUSH_ACK.value, 0))
    assert flush_traffic / sum(by_type.values()) > 0.5


def test_protocol_message_count_excludes_transport_traffic():
    """With faults on, acks and retransmissions reach the network
    (``net.messages_total``) but not the protocol's message count."""
    result = _water_run("lh", faults=FaultConfig(drop_prob=0.05,
                                                 seed=3))
    registry = result.registry
    assert registry.total("transport.retransmits_total") > 0
    assert registry.total("dsm.messages_total") == \
        result.total_messages
    assert registry.total("dsm.messages_total") < \
        registry.total("net.messages_total")


def test_stats_cli_json_matches_run_counters():
    """Acceptance: ``repro stats`` emits a JSON dump for a Jacobi /
    ATM / LI run whose message and diff counts equal the values the
    pre-existing experiments path reports."""
    from repro.cli import main

    import contextlib
    import io
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "stats.json")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(["stats", "jacobi", "--protocol", "li",
                         "--network", "atm", "--procs", "4",
                         "--scale", "small", "--output", out_path])
        assert code == 0
        with open(out_path) as handle:
            dump = json.load(handle)

    reference = run_app(
        create_app("jacobi", n=48, iterations=3),
        MachineConfig(nprocs=4, network=NetworkConfig.atm()),
        protocol="li")

    assert dump["const_labels"]["protocol"] == "li"
    assert dump["const_labels"]["network"] == "atm"
    by_name = {m["name"]: m for m in dump["metrics"]}
    assert by_name["dsm.messages_total"]["total"] == \
        reference.total_messages
    assert by_name["dsm.diffs_created_total"]["total"] == \
        reference.diffs_created
    assert by_name["net.messages_total"]["total"] == \
        reference.registry.total("net.messages_total")


def test_fault_injector_counters_are_views_of_the_registry():
    """Like ``NetworkStats``: the injector counts each fault in one
    cell — its own until ``attach_obs`` swaps in the ``faults.*``
    children, carrying earlier counts over — and the public names
    only read it."""
    from repro.faults import FaultInjector
    from repro.net.message import Message
    from repro.obs import Observability

    injector = FaultInjector(MachineConfig(
        nprocs=4, faults=FaultConfig(drop_prob=0.3, dup_prob=0.3,
                                     reorder_prob=0.3)))
    message = Message(src=0, dst=1, kind=MsgKind.FLUSH)

    def counts():
        return (injector.drops, injector.duplicates,
                injector.reorders, injector.delay_cycles_injected)

    for _ in range(60):
        injector.decide(message)
    before = counts()
    assert all(before)
    obs = Observability()
    injector.attach_obs(obs)
    registry = obs.registry
    names = ("faults.drops_total", "faults.duplicates_total",
             "faults.reorders_total", "faults.delay_cycles_total")
    assert tuple(registry.total(name) for name in names) == before
    for _ in range(60):
        injector.decide(message)
    assert tuple(registry.total(name) for name in names) == counts()
    assert all(now > then for now, then in zip(counts(), before))
    with pytest.raises(AttributeError):
        injector.drops = 0
