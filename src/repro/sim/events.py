"""Events and waitable primitives for the simulation kernel.

An :class:`Event` is a one-shot waitable: processes yield it to suspend
until some other party calls :meth:`Event.succeed`.  :class:`AllOf`
composes several events into one that fires when every child has fired.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional


class Event:
    """One-shot synchronization point carrying an optional value."""

    __slots__ = ("sim", "_callbacks", "triggered", "value", "name")

    def __init__(self, sim, name: str = "") -> None:
        self.sim = sim
        self._callbacks: List[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None
        self.name = name

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event, waking every waiter at the current time."""
        if self.triggered:
            raise RuntimeError(f"event {self.name!r} already triggered")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        # Zero-delay schedule inlined (one wake per waiter per fire —
        # the busiest single call site in whole-run profiles).
        sim = self.sim
        ready = sim._ready
        seq = sim._seq
        for callback in callbacks:
            seq += 1
            ready.append((seq, callback, (self,)))
        sim._seq = seq
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs now if already triggered."""
        if self.triggered:
            sim = self.sim
            sim._seq = seq = sim._seq + 1
            sim._ready.append((seq, callback, (self,)))
        else:
            self._callbacks.append(callback)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Timeout(Event):
    """Event that fires ``delay`` cycles after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout: {delay}")
        # Name rendered lazily in __repr__: Timeouts are allocated on
        # the hot path and the f-string cost is measurable.
        super().__init__(sim, name="timeout")
        self.delay = delay
        sim.schedule(delay, self._fire, value)

    def _fire(self, value: Any) -> None:
        self.succeed(value)

    def __repr__(self) -> str:
        state = "triggered" if self.triggered else "pending"
        return f"<Timeout({self.delay:g}) {state}>"


class Timer(Timeout):
    """A cancellable timeout.

    The underlying heap entry cannot be removed, so :meth:`cancel`
    marks the timer dead and the scheduled fire becomes a no-op.  This
    is the waitable form (a process can yield it).  The transport's
    retransmission and delayed-ack timers, which nothing waits on, are
    bare flagged heap entries with the same dispatch cost instead (see
    :mod:`repro.net.transport`).
    """

    __slots__ = ("cancelled",)

    def __init__(self, sim, delay: float, value: Any = None) -> None:
        self.cancelled = False
        super().__init__(sim, delay, value)

    def cancel(self) -> None:
        """Prevent the timer from firing; idempotent, and a no-op if
        the timer already fired."""
        self.cancelled = True

    def _fire(self, value: Any) -> None:
        if not self.cancelled:
            self.succeed(value)


class AllOf(Event):
    """Fires once every child event has fired; value is their values."""

    __slots__ = ("_pending", "_events")

    def __init__(self, sim, events) -> None:
        super().__init__(sim, name="allof")
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            # Nothing to wait for: fire on the next delta cycle.
            sim.schedule(0.0, lambda _=None: self.succeed([]))
            return
        for event in self._events:
            event.add_callback(self._child_done)

    def _child_done(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([event.value for event in self._events])
