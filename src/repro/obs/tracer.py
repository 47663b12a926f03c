"""Low-overhead structured event tracing with pluggable sinks.

A :class:`Tracer` stamps every event with the *simulated* clock and
hands it to its sink.  The disabled tracer (the default
:class:`NullSink`) is free on the hot path: emission sites guard with
``if tracer.sink.enabled:`` and never even build the fields dict.

Sinks:

- :class:`NullSink`   — drop everything (default);
- :class:`MemorySink` — keep events in a list (tests, analysis);
- :class:`JsonlSink`  — append one JSON object per line to a file
  (buffered; transparently gzipped for ``.gz`` paths), replayable
  with :func:`read_jsonl`.

The full event vocabulary lives in :data:`TRACE_EVENTS`; the table in
``docs/observability.md`` is kept in sync by the docs test suite.
Causal ids (message ids, lock/barrier ids, interval stamps) carried by
these events are what :mod:`repro.obs.causal` reconstructs the
happens-before graph from.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

#: Every trace event the simulator can emit, with the fields that make
#: it causally linkable.  ``docs/observability.md`` documents each row;
#: ``tests/docs`` asserts both stay in sync with the emission sites.
TRACE_EVENTS: Dict[str, str] = {
    "sim.process_spawn":
        "a simulation process started (process)",
    "sim.process_done":
        "a simulation process finished (process); worker-N names "
        "carry per-processor finish times",
    "msg.send":
        "a node handed a message to the network stack (msg, src, dst, "
        "kind, data_bytes, context=app|handler, reply_to, cause)",
    "msg.recv":
        "the network delivered a message to its destination (msg, "
        "src, dst, kind, data_bytes)",
    "net.xmit":
        "the network model accepted a message onto the medium (msg, "
        "src, dst, kind, wire, waited; Ethernet adds backoff)",
    "sched.wake":
        "a blocked application process was released by an incoming "
        "message (node, kind=reply|lock_grant|sc_grant|"
        "barrier_depart|barrier_all_arrived, cause=msg id)",
    "cpu.compute":
        "an application compute span completed (node, started, "
        "cycles=pure compute; ts-started-cycles is interrupt-stolen)",
    "sync.lock_request":
        "a node sent a remote lock request (lock, node, target)",
    "sync.lock_grant":
        "a token holder granted the lock to a requester (lock, node, "
        "to)",
    "sync.lock_handoff":
        "intra-node lock handoff between threads (lock, node)",
    "sync.lock_release":
        "a node began releasing a held lock (lock, node)",
    "sync.lock_acquired":
        "a lock acquire completed (lock, node, wait_cycles)",
    "sync.barrier_arrive":
        "a node arrived at a global barrier (barrier, episode, node, "
        "master)",
    "sync.barrier_depart":
        "the barrier master released an episode (barrier, episode, "
        "node)",
    "sync.barrier_done":
        "a barrier episode completed on a node (barrier, node, "
        "wait_cycles)",
    "protocol.page_fault":
        "an access miss began (page, node, write, cold)",
    "protocol.fault_done":
        "an access miss was resolved (page, node, waited)",
    "protocol.seal":
        "an interval was sealed, creating diffs (node, interval, "
        "pages, cost, vc)",
    "protocol.diff_apply":
        "pending diffs were applied to a page copy (page, node, "
        "diffs)",
    "protocol.notices_in":
        "write notices were incorporated from a peer (node, records, "
        "pages)",
    "transport.retx":
        "the reliable transport retransmitted a packet (src, dst, "
        "seq, rto)",
    "node.crash":
        "a node crashed: processes frozen, NIC dead, incoming "
        "messages logged (node, down_cycles or crash-stop)",
    "node.recover":
        "a crashed node replayed its receive log and rejoined (node, "
        "outage_cycles, replayed)",
    "req.arrive":
        "a serving request was dequeued by its node's worker (req, "
        "node, key, op, arrival=scheduled cycles; ts-arrival is "
        "queue wait)",
    "req.done":
        "a serving request completed (req, node, key, op, "
        "latency_cycles measured from the scheduled arrival)",
}


@dataclass
class TraceEvent:
    """One structured trace record."""

    ts: float
    name: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> dict:
        """The event as one JSON-ready object: ``ts``, ``name``, then
        the fields (a JSONL line, or an entry of a captured run's
        ``RunResult.trace``)."""
        record = {"ts": self.ts, "name": self.name}
        for key, value in self.fields.items():
            record[key] = _jsonable(value)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=False)

    @staticmethod
    def from_record(record: dict) -> "TraceEvent":
        """The event a record holds, fields in key order (so a record
        read back from a sorted JSON dump re-serializes the same)."""
        fields = {key: record[key] for key in sorted(record)
                  if key not in ("ts", "name")}
        return TraceEvent(ts=record["ts"], name=record["name"],
                          fields=fields)


def _jsonable(value: Any) -> Any:
    """JSON-safe view of a field value.  Containers are serialized
    recursively (lists/tuples as arrays, dicts with stringified keys,
    sets sorted for determinism) so structured fields survive JSONL
    round-trips; enums collapse to their ``.value``; anything else
    falls back to ``str``."""
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    value_attr = getattr(value, "value", None)  # enums (MsgKind)
    if isinstance(value_attr, (int, float, str)):
        return value_attr
    if isinstance(value, dict):
        return {str(key): _jsonable(item)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(item) for item in value),
                      key=lambda x: (str(type(x)), str(x)))
    return str(value)


class TraceSink:
    """Sink interface; subclasses override :meth:`emit`."""

    enabled = True

    def emit(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullSink(TraceSink):
    """Drops every event; marks the tracer disabled."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:
        pass


class MemorySink(TraceSink):
    """Keeps every event in ``self.events``."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)


class JsonlSink(TraceSink):
    """Appends one JSON line per event to ``path`` (or a file-like).

    Lines are buffered (``buffer_lines`` at a time) and flushed on
    :meth:`flush`/:meth:`close`; the sink is a context manager, and a
    path ending in ``.gz`` is written gzip-compressed transparently
    (:func:`read_jsonl` reads it back the same way).  A caller-owned
    file object is flushed but never closed."""

    def __init__(self, path_or_file: Union[str, Any],
                 buffer_lines: int = 1024) -> None:
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._owns = False
        else:
            path = str(path_or_file)
            if path.endswith(".gz"):
                self._file = gzip.open(path, "wt", encoding="utf-8")
            else:
                self._file = open(path, "w")
            self._owns = True
        self._buffer: List[str] = []
        self._buffer_lines = max(1, buffer_lines)

    def emit(self, event: TraceEvent) -> None:
        self._buffer.append(event.to_json())
        if len(self._buffer) >= self._buffer_lines:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._file.write("\n".join(self._buffer) + "\n")
            self._buffer.clear()
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns:
            self._file.close()


def read_jsonl(path: str) -> Iterator[TraceEvent]:
    """Replay a JSONL trace file (gzipped if ``.gz``) as
    :class:`TraceEvent` objects."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield TraceEvent.from_record(json.loads(line))


class Tracer:
    """Emission front-end: ``tracer.emit("msg.send", src=0, dst=1)``.

    ``tracer.sink.enabled`` answers "is anyone listening?": emission
    sites write ``if tracer.sink.enabled: tracer.emit(...)`` — two
    attribute reads, no call — and skip the emit (and its keyword-dict
    construction) entirely when tracing is off.  The guard reads the
    sink live, so swapping ``tracer.sink`` mid-run enables or disables
    every emission site at once.  Truth-testing the tracer gives the
    same answer through a Python-level ``__bool__``; the simulator's
    own sites do not use it.
    """

    def __init__(self, sink: Optional[TraceSink] = None,
                 clock: Optional[Callable[[], float]] = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.clock = clock or (lambda: 0.0)

    @property
    def enabled(self) -> bool:
        return self.sink.enabled

    def __bool__(self) -> bool:
        return self.sink.enabled

    def emit(self, name: str, **fields) -> None:
        if self.sink.enabled:
            self.sink.emit(TraceEvent(ts=self.clock(), name=name,
                                      fields=fields))

    def close(self) -> None:
        self.sink.close()
