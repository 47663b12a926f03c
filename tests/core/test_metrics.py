"""Unit tests for metrics aggregation."""

from collections import Counter

import pytest

from repro.core.metrics import NodeMetrics, RunResult
from repro.net.message import MsgKind
from repro.obs import Observability


def make_result(nodes=2, **overrides):
    metrics = []
    for proc in range(nodes):
        m = NodeMetrics(proc=proc)
        m.finish_time = 1000.0
        metrics.append(m)
    defaults = dict(app="test", protocol="lh", nprocs=nodes,
                    elapsed_cycles=1000.0, node_metrics=metrics,
                    network_messages=0, network_bytes=0,
                    network_contention_cycles=0.0)
    defaults.update(overrides)
    return RunResult(**defaults)


def test_messages_sent_counter_accumulates():
    m = NodeMetrics(proc=0,
                    messages_sent=Counter({MsgKind.LOCK_REQ: 1,
                                           MsgKind.PAGE_REPLY: 1}),
                    data_bytes_sent=100)
    assert m.total_messages == 2
    assert m.sync_messages == 1
    assert NodeMetrics.from_dict(m.to_dict()) == m


def test_run_result_aggregates_over_nodes():
    result = make_result(nodes=3)
    result.node_metrics[0].messages_sent[MsgKind.DIFF_REPLY] += 1
    result.node_metrics[0].data_bytes_sent += 512
    result.node_metrics[2].messages_sent[MsgKind.BARRIER_ARRIVE] += 1
    assert result.total_messages == 2
    assert result.sync_messages == 1
    assert result.data_kbytes == pytest.approx(0.5)
    by_kind = result.messages_by_kind()
    assert by_kind[MsgKind.DIFF_REPLY] == 1


def test_from_instruments_reads_every_registry_cell():
    """NodeMetrics is a view: each field comes from the node's
    registry children, cycle fields as floats even when untouched."""
    obs = Observability()
    ins = obs.node_instruments(3)
    ins.messages[MsgKind.FLUSH].value += 2
    ins.data_bytes.value += 64
    ins.diff_words.value += 7
    ins.lock_wait.observe(12.5)
    m = NodeMetrics.from_instruments(3, ins, finish_time=99.0)
    assert m.proc == 3 and m.finish_time == 99.0
    assert m.messages_sent == Counter({MsgKind.FLUSH: 2})
    assert (m.data_bytes_sent, m.diff_words_created) == (64, 7)
    assert m.lock_wait_cycles == 12.5
    assert m.compute_cycles == 0.0
    assert type(m.compute_cycles) is float
    assert obs.registry.by_label("dsm.messages_total",
                                 "msg_type") == {"flush": 2}


def test_speedup_over():
    base = make_result(elapsed_cycles=8000.0)
    fast = make_result(elapsed_cycles=2000.0)
    assert fast.speedup_over(base) == pytest.approx(4.0)
    broken = make_result(elapsed_cycles=0.0)
    with pytest.raises(ValueError):
        broken.speedup_over(base)


def test_summary_mentions_key_numbers():
    result = make_result()
    text = result.summary()
    assert "test/lh" in text
    assert "2 procs" in text


def test_time_breakdown_fractions():
    result = make_result(nodes=2)
    for m in result.node_metrics:
        m.compute_cycles = 400.0
        m.lock_wait_cycles = 500.0
        m.overhead_cycles = 50.0
    breakdown = result.time_breakdown()
    assert breakdown["compute"] == pytest.approx(0.4)
    assert breakdown["lock_wait"] == pytest.approx(0.5)
    assert breakdown["other"] >= 0.0


def test_time_breakdown_empty_run():
    result = make_result()
    for m in result.node_metrics:
        m.finish_time = 0.0
    assert result.time_breakdown() == {}
