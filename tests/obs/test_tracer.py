"""Unit coverage for the tracer and its sinks."""

import io
import json

from repro.net.message import MsgKind
from repro.obs import (JsonlSink, MemorySink, NullSink, Observability,
                       TraceEvent, Tracer, read_jsonl)


# -- sinks -------------------------------------------------------------

def test_null_sink_disables_tracer():
    tracer = Tracer()  # NullSink by default
    assert not tracer
    assert not tracer.enabled
    tracer.emit("ignored", x=1)  # must be a no-op
    tracer.close()


def test_memory_sink_collects_and_filters():
    sink = MemorySink()
    clock_value = [0.0]
    tracer = Tracer(sink, clock=lambda: clock_value[0])
    assert tracer and tracer.enabled
    tracer.emit("msg.send", src=0, dst=1)
    clock_value[0] = 25.0
    tracer.emit("msg.recv", src=0, dst=1)
    tracer.emit("msg.send", src=1, dst=0)
    assert len(sink.events) == 3
    assert [e.name for e in sink.events] == ["msg.send", "msg.recv",
                                             "msg.send"]
    assert sink.events[0].ts == 0.0
    assert sink.events[1].ts == 25.0
    assert sink.events[1].fields == {"src": 0, "dst": 1}


def test_jsonl_sink_writes_one_json_object_per_line():
    buffer = io.StringIO()
    tracer = Tracer(JsonlSink(buffer), clock=lambda: 7.0)
    tracer.emit("sync.lock_acquired", lock=3, node=1, wait_cycles=40.0)
    tracer.emit("msg.send", kind=MsgKind.PAGE_REQ)  # enum -> .value
    tracer.close()  # flush; does not close a caller-owned file
    lines = buffer.getvalue().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"ts": 7.0, "name": "sync.lock_acquired",
                     "lock": 3, "node": 1, "wait_cycles": 40.0}
    second = json.loads(lines[1])
    assert second["kind"] == MsgKind.PAGE_REQ.value


def test_jsonl_round_trip_through_file(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer(JsonlSink(path), clock=lambda: 1.5)
    tracer.emit("a", x=1)
    tracer.emit("b", y="two")
    tracer.close()
    events = list(read_jsonl(path))
    assert events == [TraceEvent(ts=1.5, name="a", fields={"x": 1}),
                      TraceEvent(ts=1.5, name="b",
                                 fields={"y": "two"})]


def test_jsonable_serializes_containers_recursively():
    buffer = io.StringIO()
    tracer = Tracer(JsonlSink(buffer), clock=lambda: 0.0)
    tracer.emit("protocol.seal", vc=[1, (2, 3)],
                copyset={2, 1, 0},
                by_kind={MsgKind.PAGE_REQ: [1, {"n": (4,)}]},
                who=frozenset(["b", "a"]))
    tracer.close()
    record = json.loads(buffer.getvalue())
    assert record["vc"] == [1, [2, 3]]
    assert record["copyset"] == [0, 1, 2]   # sets sort for determinism
    assert record["by_kind"] == {           # dict keys stringify
        str(MsgKind.PAGE_REQ): [1, {"n": [4]}]}
    assert record["who"] == ["a", "b"]


def test_jsonl_sink_buffers_and_flushes_on_close(tmp_path):
    path = str(tmp_path / "buffered.jsonl")
    sink = JsonlSink(path, buffer_lines=100)
    tracer = Tracer(sink, clock=lambda: 2.0)
    for index in range(7):
        tracer.emit("msg.send", msg=index)
    # Under the buffer threshold: nothing has reached the file yet.
    assert open(path).read() == ""
    sink.flush()
    assert len(open(path).read().splitlines()) == 7
    tracer.emit("msg.send", msg=7)
    tracer.close()  # flush-on-close picks up the straggler
    lines = open(path).read().splitlines()
    assert [json.loads(line)["msg"] for line in lines] == list(range(8))


def test_jsonl_sink_flushes_at_buffer_threshold(tmp_path):
    path = str(tmp_path / "threshold.jsonl")
    sink = JsonlSink(path, buffer_lines=3)
    tracer = Tracer(sink, clock=lambda: 0.0)
    tracer.emit("a")
    tracer.emit("b")
    assert open(path).read() == ""
    tracer.emit("c")  # third line trips the buffer
    assert len(open(path).read().splitlines()) == 3
    sink.close()


def test_jsonl_sink_is_a_context_manager(tmp_path):
    path = str(tmp_path / "ctx.jsonl")
    with JsonlSink(path, buffer_lines=100) as sink:
        Tracer(sink, clock=lambda: 1.0).emit("a", x=1)
    events = list(read_jsonl(path))
    assert events == [TraceEvent(ts=1.0, name="a", fields={"x": 1})]


def test_jsonl_sink_writes_gzip_transparently(tmp_path):
    path = str(tmp_path / "trace.jsonl.gz")
    with JsonlSink(path) as sink:
        tracer = Tracer(sink, clock=lambda: 3.0)
        tracer.emit("msg.send", msg=1)
        tracer.emit("msg.recv", msg=1)
    raw = open(path, "rb").read()
    assert raw[:2] == b"\x1f\x8b"  # gzip magic: actually compressed
    events = list(read_jsonl(path))
    assert [e.name for e in events] == ["msg.send", "msg.recv"]


def test_sink_swap_toggles_every_emission_site_mid_run():
    """``if tracer:`` reads ``sink.enabled`` live, so swapping the
    sink mid-run enables/disables all instrumentation at once."""
    tracer = Tracer()  # disabled
    assert not tracer
    tracer.emit("msg.send", msg=0)
    sink = MemorySink()
    tracer.sink = sink  # enable mid-run
    assert tracer
    tracer.emit("msg.send", msg=1)
    tracer.sink = NullSink()  # disable again
    assert not tracer
    tracer.emit("msg.send", msg=2)
    assert [e.fields["msg"] for e in sink.events] == [1]


def test_observability_defaults_to_disabled_tracing():
    obs = Observability()
    assert isinstance(obs.tracer.sink, NullSink)
    assert not obs.tracer
