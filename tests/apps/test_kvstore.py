"""The DSM-backed key-value store and the event-driven pump."""

import pytest

from repro.apps import EventDrivenApplication, create_app
from repro.apps.kvstore import KvStore
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.obs import MemorySink, Observability, Tracer

SMALL = dict(nkeys=16, value_words=8, shards=4, requests=60,
             rate_rps=40_000.0)


def _config(nprocs=4):
    return MachineConfig(nprocs=nprocs, network=NetworkConfig.atm())


def test_create_app_knows_kvstore():
    app = create_app("kvstore", **SMALL)
    assert isinstance(app, KvStore)
    assert isinstance(app, EventDrivenApplication)


@pytest.mark.parametrize("protocol", ["li", "lh", "ei", "sc"])
def test_counters_match_schedule_across_protocols(protocol):
    # finish() raises AssertionError if any per-key write counter
    # diverges from the generator's schedule.
    result = run_app(create_app("kvstore", **SMALL), _config(),
                     protocol=protocol)
    served = sum(len(r["requests"]) for r in result.app_result if r)
    assert served == SMALL["requests"]


def test_finish_raises_on_diverged_counters():
    from repro.core.machine import Machine
    app = create_app("kvstore", **SMALL)
    machine = Machine(_config(), protocol="lh")
    shared = app.setup(machine)
    shared["observed"] = [0] * SMALL["nkeys"]
    shared["expected"] = [1] * SMALL["nkeys"]
    with pytest.raises(AssertionError, match="diverged"):
        app.finish(machine, shared, result=None)


def test_request_records_are_consistent():
    result = run_app(create_app("kvstore", **SMALL), _config(),
                     protocol="lh")
    seen = set()
    for per_proc in result.app_result:
        for (req_id, key, is_write, arrival, started,
             done) in per_proc["requests"]:
            seen.add(req_id)
            assert 0 <= key < SMALL["nkeys"]
            assert is_write in (0, 1)
            # Open loop: service never starts before the scheduled
            # arrival, and completion never precedes the start.
            assert started >= arrival
            assert done >= started
    assert seen == set(range(SMALL["requests"]))


def test_serve_metrics_are_installed_and_counted():
    result = run_app(create_app("kvstore", **SMALL), _config(),
                     protocol="lh")
    registry = result.registry
    assert registry.total("serve.requests_total") == SMALL["requests"]
    by_op = registry.by_label("serve.requests_total", "op")
    assert sum(by_op.values()) == SMALL["requests"]
    latency = registry.get("serve.request_latency_cycles").labels()
    wait = registry.get("serve.queue_wait_cycles").labels()
    assert latency.count == SMALL["requests"]
    assert wait.count == SMALL["requests"]
    # Latency includes queue wait plus at least the service time.
    assert latency.sum >= wait.sum


def test_an_op_that_never_occurs_gets_no_series():
    """The pump binds a counter child per op on that op's first
    request: an all-read mix has no ``put`` series, not a zero one."""
    result = run_app(create_app("kvstore", **dict(SMALL, read_fraction=1.0)),
                     _config(), protocol="lh")
    assert result.registry.by_label("serve.requests_total", "op") == {
        "get": SMALL["requests"]}


def test_paper_apps_do_not_grow_serve_metrics():
    result = run_app(create_app("jacobi", n=16, iterations=1),
                     _config(2), protocol="lh")
    assert "serve.requests_total" not in result.registry


def test_req_events_are_traced_with_causal_ids():
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    run_app(create_app("kvstore", **SMALL), _config(),
            protocol="lh", obs=obs)
    arrives = [e for e in sink.events if e.name == "req.arrive"]
    dones = [e for e in sink.events if e.name == "req.done"]
    assert len(arrives) == SMALL["requests"]
    assert len(dones) == SMALL["requests"]
    assert ({e.fields["req"] for e in arrives}
            == {e.fields["req"] for e in dones}
            == set(range(SMALL["requests"])))
    for event in arrives:
        # The worker can only dequeue at or after the scheduled
        # arrival it reports.
        assert event.ts >= event.fields["arrival"]
        assert event.fields["op"] in ("get", "put")


def test_shards_clamp_to_nkeys():
    app = KvStore(nkeys=2, shards=64, requests=1)
    assert app.shards == 2


def test_kvstore_rejects_bad_workload_at_setup():
    from repro.core.machine import Machine
    app = KvStore(**dict(SMALL, rate_rps=0.0))
    with pytest.raises(ValueError, match="arrival rate"):
        app.setup(Machine(_config(), protocol="lh"))
