"""Causal structure of a trace: the indexes behind the critical path.

:class:`CausalTrace` digests a raw event stream (from a
:class:`~repro.obs.tracer.MemorySink` or a JSONL file) into the
indexes the critical-path walker and the exporters need:

- every message's life cycle (``msg.send`` -> ``net.xmit`` ->
  ``msg.recv``), keyed by message id, with the causal ``cause`` link
  carried by handler-context sends;
- per-processor scheduler wake-ups (``sched.wake``), each naming the
  message whose arrival released the application;
- per-processor compute spans and interval-seal costs;
- per-worker finish times (from ``sim.process_done``).

The walker in :mod:`repro.analysis.critical_path` follows these
indexes backwards from the last finisher, which is what makes "why was
LH faster here" answerable causally.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.tracer import TraceEvent, read_jsonl

_WORKER = re.compile(r"^worker-(\d+)$")


@dataclass
class MessageRecord:
    """One message's reconstructed journey through the system."""

    msg_id: int
    src: int = -1
    dst: int = -1
    kind: str = ""
    context: str = "app"
    cause: Optional[int] = None
    reply_to: Optional[int] = None
    data_bytes: int = 0
    send_ts: Optional[float] = None    # handed to the network stack
    accept_ts: Optional[float] = None  # accepted by the medium model
    recv_ts: Optional[float] = None    # delivered at the destination
    wire: float = 0.0
    waited: float = 0.0                # medium/port contention
    backoff: float = 0.0               # Ethernet collision backoff


@dataclass
class RequestRecord:
    """One serving request's span (``req.arrive`` -> ``req.done``)."""

    req_id: int
    node: int = -1
    key: int = -1
    op: str = ""
    arrival: Optional[float] = None   # scheduled arrival (cycles)
    start_ts: Optional[float] = None  # dequeued by the worker
    done_ts: Optional[float] = None
    latency: float = 0.0              # done - scheduled arrival

    @property
    def queue_wait(self) -> float:
        if self.start_ts is None or self.arrival is None:
            return 0.0
        return self.start_ts - self.arrival


@dataclass
class WakeRecord:
    """A blocked application process was released."""

    ts: float
    node: int
    kind: str
    cause: Optional[int]


class CausalTrace:
    """Indexed view of one run's trace events."""

    def __init__(self, events: Iterable[TraceEvent]) -> None:
        self.events: List[TraceEvent] = list(events)
        self.messages: Dict[int, MessageRecord] = {}
        #: per-processor wake-ups, ascending by time
        self.wakes: Dict[int, List[WakeRecord]] = {}
        #: per-processor compute spans ``(started, end, cycles)``,
        #: ascending by end time
        self.computes: Dict[int, List[Tuple[float, float, float]]] = {}
        #: per-processor interval-seal costs ``(ts, cost)``
        self.seals: Dict[int, List[Tuple[float, float]]] = {}
        #: worker finish times by processor
        self.finish: Dict[int, float] = {}
        #: serving-request spans by request id (``req.*`` events)
        self.requests: Dict[int, RequestRecord] = {}
        self._index()

    @classmethod
    def from_jsonl(cls, path: str) -> "CausalTrace":
        return cls(read_jsonl(path))

    @classmethod
    def from_records(cls, records: Iterable[dict]) -> "CausalTrace":
        """Index a captured run's ``RunResult.trace``."""
        return cls(map(TraceEvent.from_record, records))

    # -- indexing --------------------------------------------------------

    def _message(self, msg_id: int) -> MessageRecord:
        record = self.messages.get(msg_id)
        if record is None:
            record = MessageRecord(msg_id=msg_id)
            self.messages[msg_id] = record
        return record

    def _request(self, req_id: int) -> RequestRecord:
        record = self.requests.get(req_id)
        if record is None:
            record = RequestRecord(req_id=req_id)
            self.requests[req_id] = record
        return record

    def _index(self) -> None:
        for event in self.events:
            name = event.name
            fields = event.fields
            if name == "msg.send":
                msg_id = fields.get("msg")
                if msg_id is None:
                    continue
                record = self._message(msg_id)
                record.src = fields.get("src", -1)
                record.dst = fields.get("dst", -1)
                record.kind = fields.get("kind", "")
                record.context = fields.get("context", "app")
                record.cause = fields.get("cause")
                record.reply_to = fields.get("reply_to")
                record.data_bytes = fields.get("data_bytes", 0)
                if record.send_ts is None:
                    record.send_ts = event.ts
            elif name == "net.xmit":
                msg_id = fields.get("msg")
                if msg_id is None:
                    continue
                record = self._message(msg_id)
                # Retransmissions re-enter the medium; the first
                # acceptance is the causally meaningful one.
                if record.accept_ts is None:
                    record.accept_ts = event.ts
                    record.wire = fields.get("wire", 0.0)
                    record.waited = fields.get("waited", 0.0)
                    record.backoff = fields.get("backoff", 0.0)
            elif name == "msg.recv":
                msg_id = fields.get("msg")
                if msg_id is None:
                    continue
                record = self._message(msg_id)
                if record.recv_ts is None:  # dups keep first delivery
                    record.recv_ts = event.ts
            elif name == "sched.wake":
                node = fields.get("node")
                if node is None:
                    continue
                self.wakes.setdefault(node, []).append(WakeRecord(
                    ts=event.ts, node=node,
                    kind=fields.get("kind", ""),
                    cause=fields.get("cause")))
            elif name == "cpu.compute":
                node = fields.get("node")
                started = fields.get("started")
                cycles = fields.get("cycles", 0.0)
                if node is None or started is None:
                    continue
                self.computes.setdefault(node, []).append(
                    (started, event.ts, cycles))
            elif name == "protocol.seal":
                node = fields.get("node")
                if node is None:
                    continue
                self.seals.setdefault(node, []).append(
                    (event.ts, fields.get("cost", 0.0)))
            elif name == "req.arrive":
                req_id = fields.get("req")
                if req_id is None:
                    continue
                record = self._request(req_id)
                record.node = fields.get("node", -1)
                record.key = fields.get("key", -1)
                record.op = fields.get("op", "")
                record.arrival = fields.get("arrival")
                record.start_ts = event.ts
            elif name == "req.done":
                req_id = fields.get("req")
                if req_id is None:
                    continue
                record = self._request(req_id)
                record.done_ts = event.ts
                record.latency = fields.get("latency_cycles", 0.0)
            elif name == "sim.process_done":
                match = _WORKER.match(fields.get("process", ""))
                if match:
                    proc = int(match.group(1))
                    self.finish[proc] = max(
                        self.finish.get(proc, 0.0), event.ts)
        for records in self.wakes.values():
            records.sort(key=lambda w: w.ts)
        for spans in self.computes.values():
            spans.sort(key=lambda s: s[1])
        for costs in self.seals.values():
            costs.sort(key=lambda s: s[0])

    # -- queries ---------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return max(self.finish.values()) if self.finish else 0.0

    def last_finisher(self) -> Optional[int]:
        if not self.finish:
            return None
        return max(self.finish, key=lambda p: (self.finish[p], p))

    def latest_wake(self, node: int,
                    before: float) -> Optional[WakeRecord]:
        """Most recent wake on ``node`` at or before ``before``."""
        records = self.wakes.get(node)
        if not records:
            return None
        index = bisect_right([w.ts for w in records], before) - 1
        return records[index] if index >= 0 else None

    def compute_spans_in(self, node: int, lo: float,
                         hi: float) -> List[Tuple[float, float, float]]:
        """Compute spans on ``node`` whose *end* lies in ``(lo, hi]``.
        Spans never cross a wake, so this captures exactly the
        computation executed inside a local window."""
        spans = self.computes.get(node)
        if not spans:
            return []
        ends = [s[1] for s in spans]
        start = bisect_right(ends, lo)
        stop = bisect_right(ends, hi)
        return spans[start:stop]

    def seal_cost_in(self, node: int, lo: float, hi: float) -> float:
        """Total interval-seal cost charged on ``node`` in
        ``(lo, hi]``."""
        costs = self.seals.get(node)
        if not costs:
            return 0.0
        return sum(cost for ts, cost in costs if lo < ts <= hi)
