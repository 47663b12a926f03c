"""Windowed time-series telemetry: the registry, over time.

Every number the registry reports is an end-of-run aggregate, so phase
behaviour — update bursts at lock releases, barrier-synchronized
message storms, crash-recovery dips, serving-latency transients — is
invisible.  A :class:`TimeseriesSampler` fixes that: attached to a
machine, it snapshots a fixed probe set (events dispatched, messages
by kind, wire/data bytes, lock wait, diff bytes, pending-event depth,
and — when the serving workload runs — per-window request completions
with nearest-rank p50/p99 and SLO burn rate) every ``window_us`` of
*simulated* time and emits **delta-encoded** windows: each window
carries the activity inside ``[t0, t1)``, not the cumulative total.

Window semantics (docs/observability.md):

- Boundaries lie on the fixed grid ``k * window_cycles``.  The
  scheduler closes all elapsed windows the moment a heap pop advances
  the clock to or past a boundary, *before* the popped callback runs,
  so an event dispatched exactly at a boundary lands in the window
  that starts there.  A clock jump across several boundaries closes
  one window holding the accrued deltas plus empty windows for the
  fully-skipped periods — metric state only changes when events
  dispatch, so the deltas genuinely belong to the window the jump
  started in.
- The run's trailing partial window ``[k * window_cycles, end]`` is
  closed by :meth:`TimeseriesSampler.finish`.
- ``queue_depth`` is a *gauge* (the pending-event count at the
  window's closing boundary), everything else in a window is a delta.

Free when disabled: the dispatch loop compares the clock against the
next window boundary only on a heap pop — the one place the clock
moves — and without a sampler that boundary is ``inf``; zero-delay
events never see the check, and the serving pump's ``if sampler is not
None:`` guard never fires — the golden dumps stay byte-identical and
the repo benchmark's ``obs.nullsink_overhead_ratio`` gate bounds the
disabled configuration under 1%.  Enabled sampling is pure observation: it
schedules nothing and only reads, so the simulation's event sequence,
metrics, and :class:`~repro.core.metrics.RunResult` are *identical*
with and without it (``tests/obs/test_timeseries.py`` asserts the
canonical dumps match byte for byte).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.config import WORD_SIZE

#: Bumped whenever the exported window layout changes.
TIMESERIES_SCHEMA = "repro.obs.timeseries/1"

#: Default SLO latency threshold (µs) and attainment target; the burn
#: rate of a window is ``violation_fraction / (1 - slo_target)`` — the
#: SRE convention where 1.0 means "spending error budget exactly as
#: fast as the target allows".
DEFAULT_SLO_US = 500.0
DEFAULT_SLO_TARGET = 0.999


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (the one
    rule behind every latency percentile: live windows, post-hoc
    windows and :func:`repro.analysis.serving.build_report`)."""
    if not values:
        return 0.0
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    rank = max(1, math.ceil(p / 100.0 * len(values)))
    return float(values[rank - 1])


@dataclass
class Window:
    """One closed sampling window ``[t0, t1)`` of delta-encoded
    activity."""

    index: int
    t0_cycles: float
    t1_cycles: float
    events: int
    messages: Dict[str, float]
    wire_bytes: float
    data_bytes: float
    lock_wait_cycles: float
    diff_bytes: float
    queue_depth: int
    requests: int
    slo_violations: int
    p50_us: float
    p99_us: float
    burn_rate: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "t0_cycles": self.t0_cycles,
            "t1_cycles": self.t1_cycles,
            "events": self.events,
            "messages": dict(sorted(self.messages.items())),
            "wire_bytes": self.wire_bytes,
            "data_bytes": self.data_bytes,
            "lock_wait_cycles": self.lock_wait_cycles,
            "diff_bytes": self.diff_bytes,
            "queue_depth": self.queue_depth,
            "requests": self.requests,
            "slo_violations": self.slo_violations,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "burn_rate": self.burn_rate,
        }


def request_stats(latencies: List[float], slo_us: float,
                  slo_target: float):
    """(requests, violations, p50, p99, burn) of one window's sorted
    latency list (µs)."""
    requests = len(latencies)
    violations = sum(1 for lat in latencies if lat > slo_us)
    burn = (violations / requests / (1.0 - slo_target)
            if requests else 0.0)
    return (requests, violations, percentile(latencies, 50),
            percentile(latencies, 99), burn)


class TimeseriesSampler:
    """Samples a machine's metrics registry on the simulated-time grid.

    Construct with the window size (and SLO parameters for the serving
    probes), then hand it to :func:`repro.core.runner.run_app` (or
    :class:`repro.core.machine.Machine`) via the ``sampler`` keyword —
    the machine calls :meth:`bind`, the scheduler's dispatch loop
    calls :meth:`advance_to` on boundary crossings, the serving
    pump feeds :meth:`record_request`, and the machine closes the
    trailing window with :meth:`finish` when the run ends.
    """

    def __init__(self, window_us: float,
                 slo_us: float = DEFAULT_SLO_US,
                 slo_target: float = DEFAULT_SLO_TARGET) -> None:
        if not window_us > 0:
            raise ValueError(
                f"window must be > 0 µs, got {window_us}")
        if not slo_us > 0:
            raise ValueError(f"SLO must be > 0 µs, got {slo_us}")
        if not 0.0 < slo_target < 1.0:
            raise ValueError(
                f"SLO target must be within (0, 1), got {slo_target}")
        self.window_us = float(window_us)
        self.slo_us = float(slo_us)
        self.slo_target = float(slo_target)
        self.windows: List[Window] = []
        self.window_cycles: float = 0.0
        self.next_boundary: float = math.inf
        self.cpu_mhz: float = 0.0
        self._sim = None
        self._registry = None
        self._origin = 0.0
        self._window_start = 0.0
        self._last: Optional[dict] = None
        self._latencies: List[float] = []

    # -- machine wiring ------------------------------------------------

    def bind(self, machine) -> None:
        """Resolve the probe handles against one machine and arm the
        first boundary.  Rejects windows finer than the scheduler's
        resolution (one cycle) — a grid the clock can never land on."""
        config = machine.config
        # µs × cycles/µs, computed directly (not through the
        # seconds-based helper) so integral windows stay exact floats:
        # the grid k * window_cycles must be reproducible across
        # window sizes, so k fine windows end where a coarse one does.
        self.window_cycles = self.window_us * config.cpu_mhz
        if self.window_cycles < 1.0:
            raise ValueError(
                f"window of {self.window_us} µs is "
                f"{self.window_cycles:.3f} cycles at "
                f"{config.cpu_mhz:g} MHz — smaller than the scheduler "
                "tick (1 cycle)")
        self.cpu_mhz = config.cpu_mhz
        self._sim = machine.sim
        self._registry = machine.obs.registry
        self._origin = machine.sim.now
        self._window_start = machine.sim.now
        self.next_boundary = self._origin + self.window_cycles
        self._last = self._snapshot()
        machine.sim.attach_sampler(self)

    def _snapshot(self) -> dict:
        """Cumulative probe values.  Every probe is *live* mid-run:
        the message/byte/lock/diff metrics are incremented per event
        by pre-bound registry children, and the dispatch loop brings
        ``processed_events`` up to date just before it calls
        :meth:`advance_to` (the batched obs counter is folded in only
        at loop exit, so it is not read here)."""
        registry = self._registry
        return {
            "events": self._sim.processed_events,
            "messages": registry.get(
                "dsm.messages_total").by_label("msg_type"),
            "wire_bytes": registry.get("net.wire_bytes_total").total(),
            "data_bytes": registry.get("net.data_bytes_total").total(),
            "lock_wait_cycles": registry.get(
                "sync.lock_wait_cycles").total(),
            "diff_bytes": registry.get("dsm.diff_words_total").total()
            * WORD_SIZE,
        }

    # -- sampling hooks (scheduler / serving pump) ---------------------

    def advance_to(self, time: float) -> float:
        """Close every window whose boundary is at or before ``time``;
        returns the new next boundary, which the dispatch loop keeps
        in a local.  Called on the heap pop that advances the clock,
        *before* the popped callback runs."""
        boundary = self.next_boundary
        while time >= boundary:
            self._close(boundary)
            # Boundaries come from the window index, not accumulation:
            # k * window_cycles is bit-identical however the grid is
            # walked, so every k fine windows line up exactly with one
            # of a coarser sampler's.
            boundary = (self._origin
                        + (len(self.windows) + 1) * self.window_cycles)
        self.next_boundary = boundary
        return boundary

    def record_request(self, latency_cycles: float) -> None:
        """One serving request completed ``latency_cycles`` after its
        scheduled arrival (fed by the serving pump under an
        ``if sampler is not None:`` guard)."""
        self._latencies.append(latency_cycles / self.cpu_mhz)

    def finish(self, now: float) -> None:
        """Close the trailing partial window (called by the machine
        when the run ends).  A zero-length window is emitted only when
        same-cycle events landed after the last boundary."""
        if self._last is None:
            return
        if now > self._window_start or self._has_residual():
            self._close(now)

    def _has_residual(self) -> bool:
        snap = self._snapshot()
        return snap != self._last or bool(self._latencies)

    def _close(self, t1: float) -> None:
        snap = self._snapshot()
        last = self._last
        messages = {
            kind: count - last["messages"].get(kind, 0)
            for kind, count in snap["messages"].items()
            if count - last["messages"].get(kind, 0)}
        latencies = sorted(self._latencies)
        self._latencies = []
        (requests, violations, p50,
         p99, burn) = request_stats(latencies, self.slo_us,
                                    self.slo_target)
        self.windows.append(Window(
            index=len(self.windows),
            t0_cycles=self._window_start,
            t1_cycles=t1,
            events=snap["events"] - last["events"],
            messages=messages,
            wire_bytes=snap["wire_bytes"] - last["wire_bytes"],
            data_bytes=snap["data_bytes"] - last["data_bytes"],
            lock_wait_cycles=(snap["lock_wait_cycles"]
                              - last["lock_wait_cycles"]),
            diff_bytes=snap["diff_bytes"] - last["diff_bytes"],
            queue_depth=self._sim.pending,
            requests=requests,
            slo_violations=violations,
            p50_us=p50,
            p99_us=p99,
            burn_rate=burn,
        ))
        self._window_start = t1
        self._last = snap

    # -- export --------------------------------------------------------

    def to_dict(self) -> dict:
        """The schema-versioned export ``repro timeseries export``
        writes (see docs/observability.md)."""
        return {
            "schema": TIMESERIES_SCHEMA,
            "window_us": self.window_us,
            "window_cycles": self.window_cycles,
            "cpu_mhz": self.cpu_mhz,
            "slo_us": self.slo_us,
            "slo_target": self.slo_target,
            "windows": [window.to_dict() for window in self.windows],
        }

    def as_json(self, indent: int = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent,
                          sort_keys=True)


def format_timeseries_table(sampler: TimeseriesSampler) -> str:
    """Fixed-width rendering of a sampler's windows — what ``repro
    timeseries report`` prints.  Times in µs at the bound machine's
    clock rate."""
    mhz = sampler.cpu_mhz or 1.0
    lines = [f"{'t0us':>9s} {'t1us':>9s} {'events':>8s} "
             f"{'msgs':>7s} {'wireKB':>8s} {'lockus':>8s} "
             f"{'depth':>6s} {'reqs':>5s} {'p50us':>8s} "
             f"{'p99us':>8s} {'burn':>7s}"]
    for w in sampler.windows:
        lines.append(
            f"{w.t0_cycles / mhz:9.0f} {w.t1_cycles / mhz:9.0f} "
            f"{w.events:8d} {sum(w.messages.values()):7.0f} "
            f"{w.wire_bytes / 1024:8.2f} "
            f"{w.lock_wait_cycles / mhz:8.1f} "
            f"{w.queue_depth:6d} {w.requests:5d} "
            f"{w.p50_us:8.1f} {w.p99_us:8.1f} {w.burn_rate:7.2f}")
    return "\n".join(lines)
