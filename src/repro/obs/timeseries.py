"""Windowed time-series telemetry: the registry, over time.

Every number the registry reports is an end-of-run aggregate, so phase
behaviour — update bursts at lock releases, barrier-synchronized
message storms, crash-recovery dips, serving-latency transients — is
invisible.  A :class:`TimeseriesSampler` fixes that: attached to a
machine, it snapshots a fixed probe set (events dispatched, messages
by kind, wire/data bytes, lock wait, diff bytes, pending-event depth)
every ``window_us`` of *simulated* time and emits **delta-encoded**
windows: each window carries the activity inside ``[t0, t1)``, not
the cumulative total.  A run asks for windows with
``RunSpec(window_us=...)`` and gets them back on
``RunResult.windows``.  The serving columns of a window (completions,
nearest-rank p50/p99, SLO burn rate) are not sampled:
:func:`repro.analysis.serving.timeseries` joins them from the run's
request records when the windows are read, so the SLO is a parameter
of the view, not of the run.

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
events never see the check — the golden dumps stay byte-identical and
the repo benchmark's ``obs.nullsink_overhead_ratio`` gate bounds the
disabled configuration under 1%.  Enabled sampling is pure observation: it
schedules nothing and only reads, so the simulation's event sequence,
metrics, and :class:`~repro.core.metrics.RunResult` are *identical*
with and without it (``tests/obs/test_timeseries.py`` asserts the
canonical dumps match byte for byte).
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.config import WORD_SIZE

#: Bumped whenever the exported window layout changes.
TIMESERIES_SCHEMA = "repro.obs.timeseries/1"


def window_cycles(window_us: float, cpu_mhz: float) -> float:
    """A window's length in cycles: µs × cycles/µs, computed directly
    (not through the seconds-based helper) so integral windows stay
    exact floats — the grid ``k * window_cycles`` must be reproducible
    across window sizes, so k fine windows end where a coarse one
    does.  Rejects a window finer than the scheduler's resolution (one
    cycle), a grid the clock can never land on."""
    cycles = window_us * cpu_mhz
    if cycles < 1.0:
        raise ValueError(
            f"window_us={window_us:g} is {cycles:.3f} cycles at "
            f"{cpu_mhz:g} MHz — smaller than the scheduler tick "
            "(1 cycle)")
    return cycles


class TimeseriesSampler:
    """Samples a machine's metrics registry on the simulated-time grid.

    Construct with the window size, then hand it to
    :func:`repro.core.runner.run_app` (or
    :class:`repro.core.machine.Machine`) via the ``sampler`` keyword —
    the machine calls :meth:`bind`, the scheduler's dispatch loop
    calls :meth:`advance_to` on boundary crossings, and the machine
    closes the trailing window with :meth:`finish` when the run ends.

    Each closed window ``[t0, t1)`` is one JSON-ready dict in
    :attr:`windows`: ``index``, ``t0_cycles``, ``t1_cycles``, the
    deltas ``events``, ``messages`` (by ``msg_type``), ``wire_bytes``,
    ``data_bytes``, ``lock_wait_cycles``, ``diff_bytes``, and the
    ``queue_depth`` gauge.
    """

    def __init__(self, window_us: float) -> None:
        if not window_us > 0:
            raise ValueError(
                f"window must be > 0 µs, got {window_us}")
        self.window_us = float(window_us)
        self.windows: List[dict] = []
        self.window_cycles: float = 0.0
        self.next_boundary: float = math.inf
        self._sim = None
        self._registry = None
        self._origin = 0.0
        self._window_start = 0.0
        self._last: Optional[dict] = None

    # -- machine wiring ------------------------------------------------

    def bind(self, machine) -> None:
        """Resolve the probe handles against one machine and arm the
        first boundary.  Rejects windows finer than the scheduler's
        resolution (one cycle) — a grid the clock can never land on."""
        self.window_cycles = window_cycles(self.window_us,
                                           machine.config.cpu_mhz)
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

    # -- sampling hooks (scheduler) -------------------------------------

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

    def finish(self, now: float) -> None:
        """Close the trailing partial window (called by the machine
        when the run ends).  A zero-length window is emitted only when
        same-cycle events landed after the last boundary."""
        if self._last is None:
            return
        if now > self._window_start or self._snapshot() != self._last:
            self._close(now)

    def _close(self, t1: float) -> None:
        snap = self._snapshot()
        last = self._last
        messages = {
            kind: count - last["messages"].get(kind, 0)
            for kind, count in sorted(snap["messages"].items())
            if count - last["messages"].get(kind, 0)}
        window = {"index": len(self.windows),
                  "t0_cycles": self._window_start, "t1_cycles": t1,
                  "messages": messages,
                  "queue_depth": self._sim.pending}
        for name in ("events", "wire_bytes", "data_bytes",
                     "lock_wait_cycles", "diff_bytes"):
            window[name] = snap[name] - last[name]
        self.windows.append(window)
        self._window_start = t1
        self._last = snap


def format_timeseries_table(timeseries: dict) -> str:
    """Fixed-width rendering of a timeseries export's windows — what
    ``repro timeseries report`` prints.  Times in µs at the run's
    clock rate."""
    mhz = timeseries["cpu_mhz"]
    lines = [f"{'t0us':>9s} {'t1us':>9s} {'events':>8s} "
             f"{'msgs':>7s} {'wireKB':>8s} {'lockus':>8s} "
             f"{'depth':>6s} {'reqs':>5s} {'p50us':>8s} "
             f"{'p99us':>8s} {'burn':>7s}"]
    for w in timeseries["windows"]:
        lines.append(
            f"{w['t0_cycles'] / mhz:9.0f} {w['t1_cycles'] / mhz:9.0f} "
            f"{w['events']:8d} {sum(w['messages'].values()):7.0f} "
            f"{w['wire_bytes'] / 1024:8.2f} "
            f"{w['lock_wait_cycles'] / mhz:8.1f} "
            f"{w['queue_depth']:6d} {w['requests']:5d} "
            f"{w['p50_us']:8.1f} {w['p99_us']:8.1f} "
            f"{w['burn_rate']:7.2f}")
    return "\n".join(lines)
