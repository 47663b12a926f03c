"""Shared-memory trace recording, replay, and persistence."""

from repro.trace.events import SegmentSpec, Trace, TraceOp
from repro.trace.recorder import (RecordingApi, RecordingMachine,
                                   record_app)
from repro.trace.replay import TraceReplayApp, replay_trace
from repro.trace.serialize import (load_trace, save_trace,
                                   trace_from_dict, trace_to_dict)

__all__ = [
    "RecordingApi", "RecordingMachine", "SegmentSpec", "Trace", "TraceOp",
    "TraceReplayApp", "load_trace", "record_app", "replay_trace",
    "save_trace", "trace_from_dict", "trace_to_dict",
]
