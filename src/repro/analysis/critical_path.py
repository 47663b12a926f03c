"""Critical-path extraction over a causal trace.

The critical path of a distributed execution is the chain of
dependent work that determines the elapsed time: shorten anything on
it and the run gets faster; shorten anything off it and nothing
changes.  The paper's breakdowns (Figures 6-18) are *averages* over
processors; the critical path answers the sharper question of *which*
compute, diff, wire, and stall time actually gated the run.

Algorithm — a backward walk with exact telescoping:

1. start at the last-finishing worker at its finish time;
2. walk that processor backward to its most recent scheduler wake-up
   (``sched.wake``), attributing the local window to *compute* (pure
   application cycles from ``cpu.compute`` spans), *diff* (interval
   seal costs), and *software overhead* (everything else: message
   handling, interrupt-stolen cycles, protocol bookkeeping);
3. jump through the message that caused the wake-up, attributing its
   journey to *software overhead* (send/receive processing),
   *contention stall* (medium/port queueing and Ethernet backoff),
   and *wire* (serialization + propagation);
4. from the sender continue at its send time — chaining through the
   handler's ``cause`` message when the send itself happened inside a
   remote-request handler — until time zero.

Every step attributes a contiguous, non-overlapping span of simulated
time, so the category totals sum *exactly* to the elapsed time — the
reconciliation the integration tests assert against the metrics
registry.  The walk is robust to partial traces (faults, reliable
transport, multithreaded nodes): missing hops degrade to coarser
categories instead of failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.causal import CausalTrace, MessageRecord

#: Paper cost categories, in presentation order.
CATEGORIES = ("compute", "diff", "wire", "contention", "overhead")

#: Backstop against degenerate traces; a real path has a few events
#: per synchronization operation, far below this.
MAX_STEPS = 5_000_000


@dataclass
class PathSegment:
    """One attributed span of the critical path (newest first)."""

    t0: float
    t1: float
    where: str       # "proc N" or "N->M (kind)"
    category: str    # dominant category of the span


@dataclass
class CriticalPathResult:
    """Category attribution of the critical path."""

    categories: Dict[str, float]
    elapsed: float
    start_proc: Optional[int]
    steps: int
    segments: List[PathSegment] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.categories.values())

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in CATEGORIES}
        return {name: self.categories[name] / total
                for name in CATEGORIES}

    def format(self) -> str:
        lines = [f"critical path: {self.total:,.0f} cycles "
                 f"(elapsed {self.elapsed:,.0f}, "
                 f"last finisher proc {self.start_proc}, "
                 f"{self.steps} hops)"]
        for name in CATEGORIES:
            value = self.categories[name]
            share = self.fractions()[name]
            lines.append(f"  {name:<11} {value:>16,.0f} cycles "
                         f"({share:6.1%})")
        return "\n".join(lines)


def critical_path(trace: CausalTrace,
                  keep_segments: bool = False) -> CriticalPathResult:
    """Walk the critical path of ``trace`` backward from the last
    finisher to time zero, attributing every cycle to a category."""
    categories = {name: 0.0 for name in CATEGORIES}
    start_proc = trace.last_finisher()
    segments: List[PathSegment] = []
    if start_proc is None:
        return CriticalPathResult(categories=categories, elapsed=0.0,
                                  start_proc=None, steps=0)

    proc = start_proc
    t = trace.finish[start_proc]
    pending: Optional[MessageRecord] = None
    steps = 0

    def note(t0: float, t1: float, where: str, category: str) -> None:
        if keep_segments and t1 > t0:
            segments.append(PathSegment(t0=t0, t1=t1, where=where,
                                        category=category))

    while t > 0.0 and steps < MAX_STEPS:
        steps += 1
        if pending is not None:
            message, pending = pending, None
            t, proc = _attribute_message(message, t, categories, note)
            if message.context == "handler":
                pending = _chase_cause(trace, message, t)
            continue

        wake = trace.latest_wake(proc, t)
        if wake is None:
            _attribute_local(trace, proc, 0.0, t, categories, note)
            break
        lo = min(wake.ts, t)
        _attribute_local(trace, proc, lo, t, categories, note)
        t = lo
        cause = (trace.messages.get(wake.cause)
                 if wake.cause is not None else None)
        if (cause is not None and cause.send_ts is not None
                and cause.recv_ts is not None
                and cause.recv_ts <= t and cause.send_ts < t):
            pending = cause
        else:
            # No usable cause (multithreaded handoff, lost message,
            # stale watchdog): the remaining time on this processor is
            # attributed locally in one final span.
            _attribute_local(trace, proc, 0.0, t, categories, note)
            break

    return CriticalPathResult(categories=categories,
                              elapsed=trace.finish[start_proc],
                              start_proc=start_proc, steps=steps,
                              segments=segments)


def _attribute_message(message: MessageRecord, t: float,
                       categories: Dict[str, float],
                       note) -> "tuple[float, int]":
    """Decompose ``(send_ts, t]`` of a message journey.  Boundaries
    are clamped monotonic so the pieces always sum exactly to the
    span, whatever the trace is missing (e.g. no ``net.xmit`` when
    the reliable transport re-packetizes)."""
    send_ts = message.send_ts if message.send_ts is not None else 0.0
    send_ts = min(send_ts, t)
    accept = (message.accept_ts
              if message.accept_ts is not None else send_ts)
    recv = message.recv_ts if message.recv_ts is not None else t
    # send overhead | contention | wire+latency | receive overhead
    b1 = min(max(accept, send_ts), t)
    b2 = min(b1 + max(message.waited, 0.0), t)
    b3 = min(max(recv, b2), t)
    where = f"{message.src}->{message.dst} ({message.kind})"
    categories["overhead"] += (b1 - send_ts) + (t - b3)
    categories["contention"] += b2 - b1
    categories["wire"] += b3 - b2
    note(b3, t, where, "overhead")
    note(b2, b3, where, "wire")
    note(b1, b2, where, "contention")
    note(send_ts, b1, where, "overhead")
    return send_ts, message.src


def _chase_cause(trace: CausalTrace, message: MessageRecord,
                 t: float) -> Optional[MessageRecord]:
    """The message was sent from a handler: the handler was itself
    triggered by ``message.cause``.  Follow it if it is
    time-consistent (guards against stale causes from deferred
    handler work)."""
    if message.cause is None:
        return None
    cause = trace.messages.get(message.cause)
    if (cause is not None and cause.send_ts is not None
            and cause.recv_ts is not None
            and cause.recv_ts <= t and cause.send_ts < t
            and cause.dst == message.src):
        return cause
    return None


def _attribute_local(trace: CausalTrace, proc: int, lo: float,
                     hi: float, categories: Dict[str, float],
                     note) -> None:
    """Attribute the local window ``(lo, hi]`` on ``proc``: pure
    compute cycles -> compute, interrupt-stolen span remainder ->
    overhead, seal costs -> diff, and whatever is left (message
    handling, protocol bookkeeping, request construction) ->
    overhead.  Totals telescope exactly to ``hi - lo``."""
    window = hi - lo
    if window <= 0:
        return
    span_total = 0.0
    pure = 0.0
    for started, end, cycles in trace.compute_spans_in(proc, lo, hi):
        s = max(started, lo)
        e = min(end, hi)
        if e <= s:
            continue
        length = e - s
        span_total += length
        pure += min(max(cycles, 0.0), length)
    if span_total > window:  # overlapping spans cannot happen, but
        span_total = window  # never let rounding break telescoping
    pure = min(pure, span_total)
    rest = window - span_total
    diff = min(trace.seal_cost_in(proc, lo, hi), rest)
    overhead = (span_total - pure) + (rest - diff)
    categories["compute"] += pure
    categories["diff"] += diff
    categories["overhead"] += overhead
    dominant = max((("compute", pure), ("diff", diff),
                    ("overhead", overhead)), key=lambda kv: kv[1])[0]
    note(lo, hi, f"proc {proc}", dominant)
