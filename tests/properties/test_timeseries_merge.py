"""Property-based test (hypothesis) for the telemetry window grid.

Window boundaries lie on the fixed grid ``k * window_cycles``
(docs/observability.md), so every ``k`` adjacent windows of a run
sampled at ``window_us`` cover exactly one window of the same run
sampled at ``k * window_us``, and their deltas sum to it.  Checked
against real re-sampled runs at hypothesis-chosen coarsening factors;
taken as one, the windows hold the run's registry totals.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import create_app
from repro.core.config import MachineConfig, NetworkConfig
from repro.core.runner import run_app
from repro.obs import TimeseriesSampler

#: The per-window deltas that add across adjacent windows.
DELTAS = ("events", "wire_bytes", "data_bytes", "lock_wait_cycles",
          "diff_bytes")


def coarsened(windows, k):
    """Each run of ``k`` windows as one coarse window records it: the
    span, the summed deltas and message counts, and the queue depth
    read at the closing boundary."""
    out = []
    for start in range(0, len(windows), k):
        group = windows[start:start + k]
        messages = Counter()
        for window in group:
            messages.update(window["messages"])
        out.append({
            "t0_cycles": group[0]["t0_cycles"],
            "t1_cycles": group[-1]["t1_cycles"],
            "messages": messages,
            "queue_depth": group[-1]["queue_depth"],
            **{name: sum(w[name] for w in group)
               for name in DELTAS},
        })
    return out


_BASE_US = 50.0
_SAMPLED = {}


def _sampled(factor):
    """``(windows, result)`` of the same deterministic run sampled at
    ``factor * _BASE_US`` (memoized: hypothesis replays factors, the
    simulator does not need to)."""
    if factor not in _SAMPLED:
        sampler = TimeseriesSampler(window_us=_BASE_US * factor)
        result = run_app(
            create_app("jacobi", n=16, iterations=2),
            MachineConfig(nprocs=2, network=NetworkConfig.atm()),
            protocol="li", sampler=sampler)
        _SAMPLED[factor] = sampler.windows, result
    return _SAMPLED[factor]


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_merging_fine_windows_equals_coarser_sampling(factor):
    assert coarsened(_sampled(1)[0], factor) \
        == coarsened(_sampled(factor)[0], 1)


def test_merge_to_one_window_sums_everything():
    """The windows tile the whole run: taken as one, they hold the
    run's registry totals."""
    windows, result = _sampled(1)
    (whole,) = coarsened(windows, len(windows))
    registry = result.registry
    assert whole["t0_cycles"] == 0.0
    assert whole["events"] == registry.get(
        "sim.events_dispatched_total").total()
    assert +whole["messages"] == +Counter(registry.get(
        "dsm.messages_total").by_label("msg_type"))
    for name, metric in (("wire_bytes", "net.wire_bytes_total"),
                         ("data_bytes", "net.data_bytes_total"),
                         ("lock_wait_cycles", "sync.lock_wait_cycles")):
        assert whole[name] == registry.get(metric).total()
