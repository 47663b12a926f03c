"""CausalTrace indexing."""

import pytest

from repro.analysis.experiments import APP_PARAMS
from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.obs import (CausalTrace, JsonlSink, MemorySink,
                       Observability, TraceEvent, Tracer)


def traced_run(app="jacobi", protocol="li", network=None, nprocs=4):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    config = MachineConfig(nprocs=nprocs,
                           network=network or NetworkConfig.atm())
    result = run_app(create_app(app, **APP_PARAMS["small"][app]),
                     config, protocol=protocol, obs=obs)
    return CausalTrace(sink.events), result


@pytest.fixture(scope="module")
def jacobi_trace():
    return traced_run()


@pytest.fixture(scope="module")
def water_trace():
    return traced_run(app="water", protocol="lh")


def test_message_lifecycles_are_ordered(jacobi_trace, water_trace):
    for trace, _ in (jacobi_trace, water_trace):
        assert trace.messages
        for record in trace.messages.values():
            assert record.send_ts is not None
            assert record.recv_ts is not None
            assert record.accept_ts is not None
            assert (record.send_ts <= record.accept_ts
                    <= record.accept_ts + record.waited
                    <= record.recv_ts)
            assert record.src != record.dst
        # Emission order, not only timestamps: every message's first
        # msg.recv comes after its msg.send in the event stream.
        send_at, recv_at = {}, {}
        for index, event in enumerate(trace.events):
            if event.name == "msg.send":
                send_at.setdefault(event.fields["msg"], index)
            elif event.name == "msg.recv":
                recv_at.setdefault(event.fields["msg"], index)
        assert set(recv_at) == set(send_at) == set(trace.messages)
        assert all(send_at[msg] < recv_at[msg] for msg in recv_at)


def test_handler_sends_carry_a_live_cause(jacobi_trace):
    trace, _ = jacobi_trace
    handler_sends = [r for r in trace.messages.values()
                     if r.context == "handler"]
    assert handler_sends, "no handler-context sends traced"
    for record in handler_sends:
        assert record.cause is not None
        cause = trace.messages[record.cause]
        # The cause was delivered to the node that then sent this.
        assert cause.dst == record.src
        assert cause.recv_ts <= record.send_ts


def test_wakes_name_the_delivering_message(jacobi_trace):
    trace, _ = jacobi_trace
    assert trace.wakes
    for node, records in trace.wakes.items():
        assert [w.ts for w in records] == sorted(w.ts for w in records)
        for wake in records:
            assert wake.cause in trace.messages
            assert trace.messages[wake.cause].recv_ts <= wake.ts
            assert trace.messages[wake.cause].dst == node


def test_worker_finish_times_reconcile_with_result(jacobi_trace):
    trace, result = jacobi_trace
    assert set(trace.finish) == {0, 1, 2, 3}
    assert trace.elapsed == max(trace.finish.values())
    assert trace.elapsed == pytest.approx(result.elapsed_cycles,
                                          rel=0.01)


def test_latest_wake_bisects(jacobi_trace):
    trace, _ = jacobi_trace
    node = trace.last_finisher()
    records = trace.wakes[node]
    assert trace.latest_wake(node, records[0].ts - 1.0) is None
    assert trace.latest_wake(node, records[0].ts) is records[0]
    mid = (records[0].ts + records[1].ts) / 2.0
    assert trace.latest_wake(node, mid) is records[0]
    assert trace.latest_wake(node, trace.elapsed) is records[-1]


def test_compute_spans_clip_to_window(jacobi_trace):
    trace, _ = jacobi_trace
    node = trace.last_finisher()
    spans = trace.computes[node]
    assert spans
    assert all(cycles > 0 for _, _, cycles in spans)
    # Window ending at the first span's end captures exactly it.
    first_end = spans[0][1]
    inside = trace.compute_spans_in(node, 0.0, first_end)
    assert inside[-1][1] == first_end
    assert trace.compute_spans_in(node, first_end,
                                  first_end) == []


def test_duplicates_and_retransmits_keep_first_timestamps():
    wire = {"src": 0, "dst": 1, "kind": "page_req"}
    events = [
        TraceEvent(0.0, "msg.send", dict(wire, msg=7, data_bytes=64)),
        TraceEvent(5.0, "net.xmit", dict(wire, msg=7, wire=2.0,
                                         waited=1.0)),
        TraceEvent(9.0, "msg.recv", dict(wire, msg=7)),
        TraceEvent(12.0, "msg.recv", dict(wire, msg=7)),   # duplicate
        TraceEvent(14.0, "net.xmit", dict(wire, msg=7, wire=2.0,
                                          waited=99.0)),   # retransmit
    ]
    record = CausalTrace(events).messages[7]
    assert record.accept_ts == 5.0
    assert record.waited == 1.0
    assert record.recv_ts == 9.0


def test_from_jsonl_round_trips(tmp_path):
    path = str(tmp_path / "run.jsonl")
    sink = JsonlSink(path)
    obs = Observability(tracer=Tracer(sink))
    run_app(create_app("jacobi", **APP_PARAMS["small"]["jacobi"]),
            MachineConfig(nprocs=4, network=NetworkConfig.atm()),
            protocol="li", obs=obs)
    obs.close()
    replayed = CausalTrace.from_jsonl(path)
    live, _ = traced_run(protocol="li")
    assert len(replayed.events) == len(live.events)
    assert replayed.elapsed == live.elapsed
    # Message ids are a process-global counter, so compare the
    # structure of the journeys rather than the raw ids.
    def journeys(trace):
        return sorted((r.src, r.dst, r.kind, r.send_ts, r.recv_ts)
                      for r in trace.messages.values())
    assert journeys(replayed) == journeys(live)
