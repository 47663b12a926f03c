"""Message timeline tests, including the paper's EU statistic."""

from repro.analysis.timeline import MessageTimeline, attach_timeline
from repro.apps import Water
from repro.core import DsmApi, Machine, MachineConfig, NetworkConfig
from repro.core.config import FaultConfig
from repro.net.message import MsgKind
from repro.obs import MemorySink, Observability, Tracer


def run_water(protocol, nmols=16):
    return run_water_result(protocol, nmols)[0]


def run_water_result(protocol, nmols=16, obs=None,
                     faults=FaultConfig()):
    app = Water(nmols=nmols, steps=1)
    machine = Machine(MachineConfig(nprocs=4,
                                    network=NetworkConfig.atm(),
                                    faults=faults),
                      protocol=protocol, obs=obs)
    timeline = attach_timeline(machine)
    shared = app.setup(machine)
    result = machine.run(
        lambda p: app.worker(DsmApi(machine.nodes[p]), p, shared))
    return timeline, result


def test_timeline_counts_match_kinds():
    timeline = run_water("lh")
    assert len(timeline) > 0
    by_kind = timeline.count_by_kind()
    assert sum(by_kind.values()) == len(timeline)
    assert by_kind.get(MsgKind.BARRIER_ARRIVE, 0) >= 3


def test_events_are_time_ordered():
    timeline = run_water("li")
    times = [event.time for event in timeline.events]
    assert times == sorted(times)


def test_between_and_pair_matrix():
    timeline = run_water("lh")
    total = len(timeline.events)
    first_half = timeline.between(0.0, timeline.events[-1].time / 2)
    assert 0 < len(first_half) < total
    matrix = timeline.pair_matrix()
    assert sum(matrix.values()) == total
    assert timeline.busiest_pair() in matrix
    assert timeline.rate_per_mcycle() > 0


def test_eu_flush_messages_dominate():
    """Paper section 6.2: '91% of EU's messages are updates sent
    during lock releases.'  In our accounting that's the FLUSH +
    FLUSH_ACK traffic."""
    timeline = run_water("eu", nmols=24)
    by_kind = timeline.count_by_kind()
    flush_traffic = (by_kind.get(MsgKind.FLUSH, 0)
                     + by_kind.get(MsgKind.FLUSH_ACK, 0))
    assert flush_traffic / len(timeline) > 0.5


def test_timeline_is_a_query_over_the_trace():
    """The live timeline and a replay of the recorded events agree,
    the sink the tracer already had keeps every event, and the counts
    are the run's own."""
    sink = MemorySink()
    timeline, result = run_water_result(
        "lh", obs=Observability(tracer=Tracer(sink)))
    assert sink.named("msg.recv")
    replay = MessageTimeline()
    for event in sink.events:
        replay.emit(event)
    assert replay.events == timeline.events
    assert timeline.count_by_kind() == result.messages_by_kind()
    assert sum(timeline.data_by_kind().values()) / 1024.0 == \
        result.data_kbytes


def test_timeline_under_the_transport_holds_protocol_messages():
    """With faults on, acks and retransmissions reach the network but
    not the timeline (and tracing a lossy run works at all: the
    network models stamp net.xmit with the packet's msg id)."""
    timeline, result = run_water_result(
        "lh", faults=FaultConfig(drop_prob=0.05, seed=3))
    assert result.metric_total("transport.retransmits_total") > 0
    assert len(timeline) == result.total_messages
    assert len(timeline) < result.network_messages


def test_empty_timeline_is_graceful():
    timeline = MessageTimeline()
    assert timeline.count_by_kind() == {}
    assert timeline.busiest_pair() is None
    assert timeline.rate_per_mcycle() == 0.0
    assert timeline.fraction_by_kind(MsgKind.FLUSH) == 0.0
