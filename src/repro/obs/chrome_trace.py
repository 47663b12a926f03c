"""Chrome trace-event JSON export (loadable in Perfetto).

Layout:

- process 1, "processors": one track (thread) per simulated
  processor, carrying complete (``X``) slices for compute spans,
  interval seals (diff creation), lock/barrier waits, and access
  misses;
- process 2, "network": one track per destination port, carrying the
  wire occupancy of every transmission;
- process 3, "telemetry" (only when a timeseries is passed):
  counter (``C``) tracks sampled per window — events dispatched,
  messages, wire KB, lock wait, queue depth, and the serving series
  (requests, p99 µs, SLO burn rate);
- flow events (``s``/``f``) arrow every message from its sender's
  track to its receiver's track, keyed by message id.

Timestamps are simulated processor *cycles* written into the
trace-event ``ts`` field (which viewers display as microseconds) —
relative magnitudes, not wall time.  See docs/tracing.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.causal import CausalTrace

_PID_PROCS = 1
_PID_NET = 2
_PID_TELEMETRY = 3


def _meta(pid: int, tid: Optional[int], name: str,
          what: str) -> Dict[str, Any]:
    event: Dict[str, Any] = {"ph": "M", "pid": pid, "name": what,
                             "args": {"name": name}}
    if tid is not None:
        event["tid"] = tid
    return event


def _slice(pid: int, tid: int, name: str, ts: float, dur: float,
           cat: str, args: Optional[dict] = None) -> Dict[str, Any]:
    event: Dict[str, Any] = {"ph": "X", "pid": pid, "tid": tid,
                             "name": name, "cat": cat,
                             "ts": ts, "dur": max(dur, 0.0)}
    if args:
        event["args"] = args
    return event


def _counter(name: str, ts: float, value: float) -> Dict[str, Any]:
    return {"ph": "C", "pid": _PID_TELEMETRY, "name": name,
            "cat": "telemetry", "ts": ts, "args": {"value": value}}


def _counter_tracks(timeseries) -> List[Dict[str, Any]]:
    """Counter (``C``) events for a timeseries export's windows, one
    sample per window at the window's start.  Perfetto draws each
    named counter as a stepped track under the telemetry process."""
    events: List[Dict[str, Any]] = [
        _meta(_PID_TELEMETRY, None, "telemetry", "process_name")]
    serving = any(w["requests"] for w in timeseries["windows"])
    for w in timeseries["windows"]:
        ts = w["t0_cycles"]
        events.append(_counter("events dispatched", ts, w["events"]))
        events.append(_counter("messages", ts,
                               sum(w["messages"].values())))
        events.append(_counter("wire KB", ts, w["wire_bytes"] / 1024))
        events.append(_counter("lock wait cycles", ts,
                               w["lock_wait_cycles"]))
        events.append(_counter("queue depth", ts, w["queue_depth"]))
        if serving:
            events.append(_counter("requests", ts, w["requests"]))
            events.append(_counter("p99 us", ts, w["p99_us"]))
            events.append(_counter("SLO burn rate", ts,
                                   w["burn_rate"]))
    return events


def chrome_trace(trace: CausalTrace,
                 timeseries=None) -> Dict[str, Any]:
    """Render ``trace`` as a Chrome trace-event JSON object.  With a
    timeseries export (:func:`repro.analysis.serving.timeseries`) in
    ``timeseries``, it also carries the windows as counter tracks."""
    events: List[Dict[str, Any]] = []
    procs = sorted(set(trace.computes) | set(trace.wakes)
                   | set(trace.finish)
                   | {m.src for m in trace.messages.values()
                      if m.src >= 0}
                   | {m.dst for m in trace.messages.values()
                      if m.dst >= 0})

    events.append(_meta(_PID_PROCS, None, "processors",
                        "process_name"))
    events.append(_meta(_PID_NET, None, "network", "process_name"))
    for proc in procs:
        events.append(_meta(_PID_PROCS, proc, f"cpu {proc}",
                            "thread_name"))
        events.append(_meta(_PID_NET, proc, f"port->{proc}",
                            "thread_name"))

    for proc, spans in trace.computes.items():
        for started, end, cycles in spans:
            events.append(_slice(_PID_PROCS, proc, "compute",
                                 started, end - started, "cpu",
                                 {"pure_cycles": cycles}))
    for proc, seals in trace.seals.items():
        for ts, cost in seals:
            if cost > 0:
                events.append(_slice(_PID_PROCS, proc, "diff (seal)",
                                     ts, cost, "protocol"))

    for event in trace.events:
        name = event.name
        fields = event.fields
        if name == "sync.lock_acquired":
            waited = fields.get("wait_cycles", 0.0)
            if waited > 0:
                events.append(_slice(
                    _PID_PROCS, fields.get("node", 0),
                    f"lock {fields.get('lock')} wait",
                    event.ts - waited, waited, "sync"))
        elif name == "sync.barrier_done":
            waited = fields.get("wait_cycles", 0.0)
            if waited > 0:
                events.append(_slice(
                    _PID_PROCS, fields.get("node", 0),
                    f"barrier {fields.get('barrier')} wait",
                    event.ts - waited, waited, "sync"))
        elif name == "protocol.fault_done":
            waited = fields.get("waited", 0.0)
            if waited > 0:
                events.append(_slice(
                    _PID_PROCS, fields.get("node", 0),
                    f"page {fields.get('page')} miss",
                    event.ts - waited, waited, "protocol"))

    for message in trace.messages.values():
        if message.accept_ts is not None:
            events.append(_slice(
                _PID_NET, max(message.dst, 0), message.kind,
                message.accept_ts + message.waited, message.wire,
                "net",
                {"msg": message.msg_id, "src": message.src,
                 "waited": message.waited}))
        if message.send_ts is None or message.recv_ts is None:
            continue
        flow = {"pid": _PID_PROCS, "cat": "msg",
                "name": message.kind or "msg", "id": message.msg_id}
        events.append({**flow, "ph": "s", "tid": max(message.src, 0),
                       "ts": message.send_ts})
        events.append({**flow, "ph": "f", "bp": "e",
                       "tid": max(message.dst, 0),
                       "ts": message.recv_ts})

    if timeseries is not None and timeseries["windows"]:
        events.extend(_counter_tracks(timeseries))

    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"time_unit": "cycles"}}


def validate_chrome_trace(obj: Any) -> List[str]:
    """Minimal structural schema check of a Chrome trace-event JSON
    object.  Returns a list of problems (empty when valid)."""
    errors: List[str] = []
    if not isinstance(obj, dict):
        return ["top level is not an object"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    flows: Dict[Tuple[Any, Any], set] = {}
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("M", "X", "s", "f", "B", "E", "i", "C"):
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if "pid" not in event:
            errors.append(f"{where}: missing pid")
        if ph == "M":
            if event.get("name") not in ("process_name",
                                         "thread_name"):
                errors.append(f"{where}: metadata name "
                              f"{event.get('name')!r}")
            if "name" not in event.get("args", {}):
                errors.append(f"{where}: metadata without args.name")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            errors.append(f"{where}: missing numeric ts")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{where}: X event needs dur >= 0")
            if not event.get("name"):
                errors.append(f"{where}: X event without name")
        elif ph == "C":
            if not event.get("name"):
                errors.append(f"{where}: counter event without name")
            args = event.get("args")
            if not isinstance(args, dict) or not args:
                errors.append(f"{where}: counter event needs a "
                              "non-empty args object")
            elif not all(isinstance(v, (int, float))
                         for v in args.values()):
                errors.append(f"{where}: counter args must be numeric")
        elif ph in ("s", "f"):
            if "id" not in event:
                errors.append(f"{where}: flow event without id")
            else:
                flows.setdefault((event.get("cat"), event["id"]),
                                 set()).add(ph)
    for (cat, flow_id), phases in flows.items():
        if phases != {"s", "f"}:
            errors.append(f"flow {cat}/{flow_id}: has {sorted(phases)}"
                          ", needs both start (s) and finish (f)")
    return errors
