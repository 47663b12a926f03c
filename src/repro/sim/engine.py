"""Discrete-event simulation engine.

The engine is a classic time-ordered event loop.  Model code runs as
*processes*: Python generators that yield waitables (:class:`Event`,
timeouts, other processes) and are resumed with the waitable's value.

Time is a float in whatever unit the model chooses; this project uses
processor cycles throughout (see :mod:`repro.core.config`).

Scheduling (docs/performance.md has the full design discussion): the
pending-event set is a two-tier bucketed queue rather than a single
global heap.  Zero-delay events — the majority in every profiled
workload (event.succeed wake-ups, process resume hops, same-cycle
handler chains) — go to an O(1) FIFO *ready bucket* holding events due
at the current time; only genuinely timed events (wire delays, compute
spans, protocol timers) pay for the heap.  The pop rule compares the
ready head's sequence number against the heap top when the heap top is
due *now*, which preserves the exact ``(time, seq)`` total order of the
single-heap scheduler — the golden-parity suite in ``tests/perf`` pins
elapsed times, event counts, and metric dumps bit for bit.  Timer
cancellation is lazy: a cancelled :class:`~repro.sim.events.Timer` (or
transport timer) stays queued and its dispatch becomes a no-op, so
cancellation never pays a heap repair.

There is one dispatch loop, :meth:`Simulator._dispatch`, so the pop
rule appears once; ``run``, ``run_until``, ``run_process`` and ``step``
only choose its stop conditions (an object whose ``.triggered`` ends
the run, an ``until`` time, an event budget).  It dispatches inline (no
method call per event) and batches the event/queue-depth counters into
local ints folded in when it exits; plain numeric yields take a fast
path that never allocates an :class:`Event`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from math import inf
from typing import (Any, Callable, Deque, Generator, List, Optional,
                    Tuple)

from repro.sim.events import AllOf, Event, Timeout, Timer


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Stop object for runs that wait on nothing (``run``, ``step``): "no
#: stop event" is an event nobody can fire rather than a branch (and
#: the loop head reads ``.triggered`` off one type either way).
_NEVER = Event(None, "never")


class Process(Event):
    """A running generator.  As an :class:`Event`, it fires (with the
    generator's return value) when the generator finishes, so processes
    can be joined by yielding them."""

    __slots__ = ("generator", "_paused", "_deferred", "_resume",
                 "_delay_elapsed")

    def __init__(self, sim, generator: Generator, name: str = "") -> None:
        super().__init__(sim, name=name or getattr(generator, "__name__",
                                                   "process"))
        self.generator = generator
        self._paused = False
        self._deferred: Optional[List[Optional[Event]]] = None
        # The two wake-ups, bound once: every wait queues one of them,
        # so a wait allocates no bound method.
        self._resume = self._step
        self._delay_elapsed = self._delay_done
        tracer = sim.tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit("sim.process_spawn", process=self.name)
        sim.schedule(0.0, self._resume, None)

    def pause(self) -> None:
        """Freeze the process: resumes that would fire while paused are
        deferred (the triggering waitable keeps its value) and replayed
        by :meth:`unpause`.  Used by the node lifecycle manager to halt
        a crashed node's workers without tearing down their
        continuations."""
        self._paused = True

    def unpause(self) -> None:
        """Thaw the process, rescheduling any resume deferred while it
        was paused at the current simulated time."""
        self._paused = False
        deferred, self._deferred = self._deferred, None
        if deferred:
            for waited in deferred:
                self.sim.schedule(0.0, self._resume, waited)

    def _step(self, waited: Optional[Event]) -> None:
        """``_resume``: send the generator ``waited``'s value and queue
        the wake-up for what it yields next.  The queueing is
        ``Event.add_callback`` / ``Simulator.schedule`` spelled out in
        this frame, entry for entry: the same sequence numbers and the
        same ``now + delay`` float arithmetic."""
        if self._paused:
            if self._deferred is None:
                self._deferred = []
            self._deferred.append(waited)
            return
        try:
            target = self.generator.send(
                None if waited is None else waited.value)
        except StopIteration as stop:
            # Nothing can wake a finished process: drop the bound
            # wake-ups so it no longer references itself.
            self._resume = self._delay_elapsed = None
            tracer = self.sim.tracer
            if tracer is not None and tracer.sink.enabled:
                tracer.emit("sim.process_done", process=self.name)
            self.succeed(stop.value)
            return
        if isinstance(target, Event):
            if target is self:
                raise SimulationError(
                    f"process {self.name!r} waits on itself")
            if target.triggered:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                sim._ready.append((seq, self._resume, (target,)))
            else:
                target._callbacks.append(self._resume)
        elif isinstance(target, (int, float)):
            # Fast path for plain numeric yields: the same two
            # dispatches a Timeout would cost (fire, then the resume)
            # without allocating an Event.  Identical sequence numbers,
            # identical event counts.
            if not 0 <= target < inf:
                raise ValueError(
                    f"process {self.name!r} yielded delay {target!r}; "
                    "a delay is a finite number >= 0")
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            if target == 0:
                sim._ready.append((seq, self._delay_elapsed, ()))
            else:
                heappush(sim._queue, (sim.now + float(target), seq,
                                      self._delay_elapsed, ()))
        elif isinstance(target, (list, tuple)):
            # A fresh AllOf has not fired (even an empty one fires on
            # the next delta cycle), so the wake-up simply waits on it.
            AllOf(self.sim, target)._callbacks.append(self._resume)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected an "
                "Event, a delay, or a list of Events")

    def _delay_done(self) -> None:
        """``_delay_elapsed``: second hop of the numeric-yield fast path
        (mirrors ``Timeout._fire`` + ``Event.succeed`` scheduling)."""
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        sim._ready.append((seq, self._resume, (None,)))


class Simulator:
    """Event loop: schedules callbacks and drives processes.

    Pending events live in two tiers sharing one sequence-number space:

    - ``_ready`` — deque of ``(seq, callback, args)`` due at ``now``
      (every zero-delay schedule lands here; O(1) append/popleft);
    - ``_queue`` — heap of ``(time, seq, callback, args)`` for timed
      events (``time`` may equal ``now`` when a positive delay rounds
      to zero in float arithmetic — the pop rule covers that corner).

    Invariant: every ready entry is due exactly at ``now`` (entries are
    appended at the current time and the loop never advances ``now``
    while the bucket is non-empty), so dispatch order is the global
    ``(time, seq)`` order even across the two tiers.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._ready: Deque[Tuple[int, Callable, Any]] = deque()
        self._queue: List[Tuple[float, int, Callable, Any]] = []
        self._seq = 0
        self.processed_events = 0
        # Observability (optional): bound registry *children* (one
        # attribute access + one addition per flush), attached by the
        # machine via attach_obs().  The tracer reference only feeds
        # the rare spawn/finish events — the dispatch loop never
        # touches it.
        self._obs_events = None
        self._obs_queue_depth = None
        self.tracer = None
        # Windowed telemetry (optional): a TimeseriesSampler attached
        # by the machine, read once per dispatch call; without one the
        # loop's window boundary is ``inf``.
        self._sampler = None

    def attach_obs(self, obs) -> None:
        """Emit event-dispatch and queue-depth metrics to ``obs``.
        Metric handles are resolved once here, never per event."""
        self._obs_events = obs.registry.get(
            "sim.events_dispatched_total").labels()
        self._obs_queue_depth = obs.registry.get(
            "sim.queue_depth_peak").labels()
        self.tracer = obs.tracer

    def attach_sampler(self, sampler) -> None:
        """Have subsequent runs close a telemetry window whenever a
        heap pop advances the clock to or past
        ``sampler.next_boundary`` (see :mod:`repro.obs.timeseries`)."""
        self._sampler = sampler

    # -- scheduling ------------------------------------------------------

    @property
    def pending(self) -> int:
        """Number of queued events across both tiers."""
        return len(self._ready) + len(self._queue)

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at ``now + delay``."""
        if delay == 0.0:
            self._seq = seq = self._seq + 1
            self._ready.append((seq, callback, args))
            return
        if not 0 < delay < inf:
            raise SimulationError(
                f"cannot schedule {delay!r} cycles ahead: a delay is a "
                "finite number >= 0")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (self.now + delay, seq, callback, args))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def timer(self, delay: float, value: Any = None) -> Timer:
        """A cancellable timeout (see :class:`repro.sim.events.Timer`)."""
        return Timer(self, delay, value)

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def all_of(self, events) -> AllOf:
        return AllOf(self, events)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, generator, name=name)

    # -- execution -------------------------------------------------------

    def _dispatch(self, stop, until: float = inf,
                  max_events: Optional[int] = None) -> None:
        """The one dispatch loop: runs events in ``(time, seq)`` order
        until both tiers drain, ``stop.triggered`` turns true,
        ``max_events`` callbacks have returned, or the next event lies
        beyond ``until`` (the clock then stops at ``until``; if
        ``max_events`` ends the run first it stays where it is).

        ``until`` and the sampler are checked only on the heap-pop
        branch, where the clock moves: every ready entry is due at
        ``now``, and ``now <= until`` and ``now < boundary`` hold on
        entry and after every heap pop.  A telemetry window closes on
        the heap pop that reaches its boundary, *before* the popped
        callback runs — an event at exactly ``k * window`` lands in
        window ``k`` whatever the window size, the exact-merge property
        the timeseries tests pin.

        Counters are batched in locals and folded in by the ``finally``
        — whether or not a callback raised, exactly those that returned
        are counted — and ``processed_events`` is also made current
        just before the sampler reads it."""
        ready = self._ready
        queue = self._queue
        pop = heappop
        popleft = ready.popleft
        # ``now`` mirrors self.now in a local (an attribute read per
        # dispatched event otherwise); callbacks never advance time —
        # only the heap pops below do — so the mirror cannot go stale.
        now = self.now
        if until < now:
            raise SimulationError(
                f"cannot run until {until}: the clock is at {now}")
        sampler = self._sampler
        boundary = inf if sampler is None else sampler.next_boundary
        base = self.processed_events
        dispatched = 0
        depth_peak = 0
        try:
            while (ready or queue) and not stop.triggered:
                if max_events is not None and dispatched >= max_events:
                    break
                depth = len(ready) + len(queue)
                if ready and not (queue and queue[0][0] == now
                                  and queue[0][1] < ready[0][0]):
                    _seq, callback, args = popleft()
                else:
                    if queue[0][0] > until:
                        # Not recorded in depth_peak: the tail beyond
                        # ``until`` was never up for dispatch.
                        self.now = until
                        break
                    time, _seq, callback, args = pop(queue)
                    if time < now:
                        raise SimulationError("time went backwards")
                    self.now = now = time
                    if time >= boundary:
                        self.processed_events = base + dispatched
                        boundary = sampler.advance_to(time)
                if depth > depth_peak:
                    depth_peak = depth
                callback(*args)
                dispatched += 1
        finally:
            self.processed_events = base + dispatched
            if self._obs_events is not None and dispatched:
                self._obs_events.inc(dispatched)
            if self._obs_queue_depth is not None:
                self._obs_queue_depth.set_max(depth_peak)

    def step(self) -> bool:
        """Run the earliest pending event.  Returns False when empty."""
        if not self.pending:
            return False
        self._dispatch(_NEVER, max_events=1)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` have been processed.  Returns the final time."""
        self._dispatch(_NEVER, inf if until is None else until,
                       max_events)
        return self.now

    def run_process(self, process: Process,
                    max_events: Optional[int] = None) -> Any:
        """Run until ``process`` completes; returns its return value."""
        self._dispatch(process, max_events=max_events)
        if not process.triggered:
            raise SimulationError(
                f"process {process.name!r} did not finish: "
                + unfinished_reason(self, "the process", max_events))
        return process.value

    def run_until(self, event: Event,
                  max_events: Optional[int] = None) -> float:
        """Run until ``event`` triggers, the queue drains, or
        ``max_events`` have been processed.  Returns the final time."""
        self._dispatch(event, max_events=max_events)
        return self.now


def unfinished_reason(sim: Simulator, who: str,
                      max_events: Optional[int]) -> str:
    """Why a run ended with ``who`` still waiting: only ``max_events``
    stops the loop early, so an empty queue is a deadlock."""
    if not sim.pending:
        return (f"event queue drained at t={sim.now:g} with {who} "
                "blocked (deadlock)")
    return (f"stopped at max_events={max_events} with {sim.pending} "
            f"events pending at t={sim.now:g}")
