"""Unit tests for the RunResult readers over a run's registry."""

import pytest

from repro.core.metrics import RunResult
from repro.net.message import MsgKind
from repro.obs import Observability


def make_result(nodes=2, **overrides):
    """A result over a fresh registry with one node's cells bound per
    processor (as a machine binds them), every node finished at 1000."""
    obs = Observability()
    for proc in range(nodes):
        obs.node_instruments(proc)
    defaults = dict(app="test", protocol="lh", nprocs=nodes,
                    elapsed_cycles=1000.0, finish_times=[1000.0] * nodes,
                    app_result=None, registry=obs.registry)
    defaults.update(overrides)
    return RunResult(**defaults)


def cells(result, proc):
    """Node ``proc``'s registry cells, as the simulator writes them."""
    return Observability(registry=result.registry).node_instruments(proc)


def test_run_result_aggregates_over_nodes():
    result = make_result(nodes=3)
    first, third = cells(result, 0), cells(result, 2)
    first.messages[MsgKind.DIFF_REPLY].value += 1
    first.data_bytes.value += 512
    third.messages[MsgKind.BARRIER_ARRIVE].value += 1
    assert result.total_messages == 2
    assert result.sync_messages == 1
    assert result.data_kbytes == pytest.approx(0.5)
    assert result.registry.by_label("dsm.messages_total", "node") == {
        "0": 1, "2": 1}


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
    for proc in range(2):
        ins = cells(result, proc)
        ins.compute_cycles.value += 400.0
        ins.lock_wait.observe(500.0)
        ins.overhead_cycles.value += 50.0
    breakdown = result.time_breakdown()
    assert breakdown["compute"] == pytest.approx(0.4)
    assert breakdown["lock_wait"] == pytest.approx(0.5)
    assert breakdown["other"] >= 0.0


def test_time_breakdown_empty_run():
    result = make_result(finish_times=[0.0, 0.0])
    assert result.time_breakdown() == {}
