"""Message timeline: every message a simulation sends, as a query
over the tracer's ``msg.send`` events.

Used for debugging protocol behaviour, for the fine-grained traffic
statistics the paper quotes (e.g. "91% of EU's messages are updates
sent during lock releases"), and by tests that pin down *when* and
*why* traffic happens, not just how much.  An event's time is the
moment the node handed the message to the network stack (before its
send overhead); under the reliable transport the timeline holds the
protocol's messages, not the transport's acks and retransmissions.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import MESSAGE_HEADER_BYTES
from repro.core.machine import Machine
from repro.net.message import MsgKind
from repro.obs.tracer import NullSink, TraceEvent, TraceSink


@dataclass(frozen=True)
class MessageEvent:
    """One transmitted message, with its send time."""

    time: float
    src: int
    dst: int
    kind: MsgKind
    data_bytes: int
    size_bytes: int


class MessageTimeline(TraceSink):
    """Recorded sends, in send order: a trace sink that keeps the
    ``msg.send`` events and passes every event on to the sink it took
    the place of.  Feed it a recorded trace (a ``MemorySink``'s
    events, ``read_jsonl``) through :meth:`emit` for the same
    timeline after the fact."""

    def __init__(self, inner: Optional[TraceSink] = None) -> None:
        self.events: List[MessageEvent] = []
        self._inner = inner if inner is not None else NullSink()

    def emit(self, event: TraceEvent) -> None:
        if event.name == "msg.send":
            fields = event.fields
            data_bytes = fields["data_bytes"]
            self.events.append(MessageEvent(
                time=event.ts, src=fields["src"], dst=fields["dst"],
                kind=MsgKind(fields["kind"]), data_bytes=data_bytes,
                size_bytes=MESSAGE_HEADER_BYTES + data_bytes))
        if self._inner.enabled:
            self._inner.emit(event)

    def flush(self) -> None:
        self._inner.flush()

    def close(self) -> None:
        self._inner.close()

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def count_by_kind(self) -> Dict[MsgKind, int]:
        return dict(Counter(event.kind for event in self.events))

    def fraction_by_kind(self, kind: MsgKind) -> float:
        if not self.events:
            return 0.0
        return sum(1 for e in self.events if e.kind == kind) \
            / len(self.events)

    def between(self, start: float, end: float) -> List[MessageEvent]:
        return [e for e in self.events if start <= e.time < end]

    def pair_matrix(self) -> Dict[Tuple[int, int], int]:
        """(src, dst) -> message count: who talks to whom."""
        return dict(Counter((e.src, e.dst) for e in self.events))

    def busiest_pair(self) -> Optional[Tuple[int, int]]:
        matrix = self.pair_matrix()
        if not matrix:
            return None
        return max(matrix, key=matrix.get)

    def data_by_kind(self) -> Dict[MsgKind, int]:
        totals: Counter = Counter()
        for event in self.events:
            totals[event.kind] += event.data_bytes
        return dict(totals)

    def rate_per_mcycle(self, horizon: Optional[float] = None) -> float:
        """Messages per million cycles over the recorded span."""
        if not self.events:
            return 0.0
        span = horizon or (self.events[-1].time + 1.0)
        return len(self.events) / span * 1e6


def attach_timeline(machine: Machine) -> MessageTimeline:
    """Turn tracing on for ``machine`` (whatever sink its tracer had
    keeps receiving every event); returns the timeline being
    filled."""
    tracer = machine.obs.tracer
    tracer.sink = timeline = MessageTimeline(tracer.sink)
    return timeline
