"""Recording wrapper around :class:`repro.core.api.DsmApi`.

``RecordingApi`` duck-types the application API: every operation is
appended to the trace, then delegated to the real DSM.
``RecordingMachine`` hands one to each worker and logs the segment
layout; :func:`record_app` runs a whole application on one.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.api import DsmApi
from repro.core.machine import Machine
from repro.trace.events import SegmentSpec, Trace, TraceOp


class RecordingApi:
    """DsmApi stand-in that logs every call into a :class:`Trace`."""

    def __init__(self, api: DsmApi, trace: Trace) -> None:
        self._api = api
        self._trace = trace
        self.proc = api.proc
        self.nprocs = api.nprocs
        self._ops = trace.ops.setdefault(api.proc, [])

    # -- shared data ----------------------------------------------------

    def read_region(self, segment, start: int, end: int) -> Generator:
        self._ops.append(TraceOp("read", a=start, b=end,
                                 segment=segment.name))
        values = yield from self._api.read_region(segment, start, end)
        return values

    def write_region(self, segment, start: int, end: int,
                     values) -> Generator:
        if np.isscalar(values):
            recorded = tuple([float(values)] * (end - start))
        else:
            recorded = tuple(float(v) for v in values)
        self._ops.append(TraceOp("write", a=start, b=end,
                                 segment=segment.name,
                                 values=recorded))
        yield from self._api.write_region(segment, start, end, values)

    def read(self, segment, index: int) -> Generator:
        value = yield from self.read_region(segment, index, index + 1)
        return float(value[0])

    def write(self, segment, index: int, value: float) -> Generator:
        yield from self.write_region(segment, index, index + 1,
                                     np.array([value]))

    def touch(self, segment, start: int, end: int) -> Generator:
        self._ops.append(TraceOp("read", a=start, b=end,
                                 segment=segment.name))
        yield from self._api.touch(segment, start, end)

    # -- synchronization ---------------------------------------------------

    def acquire(self, lock_id: int) -> Generator:
        self._ops.append(TraceOp("acquire", a=lock_id))
        yield from self._api.acquire(lock_id)

    def release(self, lock_id: int) -> Generator:
        self._ops.append(TraceOp("release", a=lock_id))
        yield from self._api.release(lock_id)

    def barrier(self, barrier_id: int) -> Generator:
        self._ops.append(TraceOp("barrier", a=barrier_id))
        yield from self._api.barrier(barrier_id)

    # -- computation ----------------------------------------------------------

    def compute(self, cycles: float) -> Generator:
        self._ops.append(TraceOp("compute", a=float(cycles)))
        yield from self._api.compute(cycles)

    @property
    def now(self) -> float:
        return self._api.now


class RecordingMachine(Machine):
    """A machine that records its application into ``trace``: every
    segment the app allocates and, through :class:`RecordingApi`,
    every operation its workers issue."""

    def __init__(self, config, protocol: str, trace: Trace) -> None:
        super().__init__(config, protocol=protocol)
        self.trace = trace

    def allocate(self, name: str, nwords: int, init=None,
                 owner="striped"):
        self.trace.segments.append(SegmentSpec(
            name=name, nwords=nwords, owner=owner,
            init=None if init is None else tuple(float(v)
                                                 for v in init)))
        return super().allocate(name, nwords, init=init, owner=owner)

    def api(self, proc: int) -> RecordingApi:
        return RecordingApi(super().api(proc), self.trace)


def record_app(app, config, protocol: str = "lh"):
    """Run ``app`` while recording its trace.  Returns
    ``(trace, run_result)``."""
    trace = Trace(nprocs=config.nprocs)
    return trace, RecordingMachine(config, protocol, trace).run_app(app)
