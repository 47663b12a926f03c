"""Simulated-time timers and spans.

A :class:`Span` measures a stretch of *simulated* time (the sim clock,
not the host's), optionally feeding a histogram and emitting paired
``<name>.begin`` / ``<name>.end`` trace events.  Spans are ordinary
context managers and work inside simulation generators: the ``with``
block survives across ``yield``s, so the exit reads the clock after
the waited-on events have advanced it.
"""

from __future__ import annotations

from typing import Callable, Optional


class Span:
    """Measure one simulated-time interval.

    >>> with Span(clock, "barrier.wait", histogram=hist,
    ...           tracer=tracer, barrier=3):
    ...     ...  # simulated work; clock advances
    """

    def __init__(self, clock: Callable[[], float], name: str,
                 histogram=None, tracer=None, **fields) -> None:
        self._clock = clock
        self.name = name
        self._histogram = histogram
        self._tracer = tracer
        self._fields = fields
        self.start: Optional[float] = None
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Span":
        self.start = self._clock()
        tracer = self._tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit(self.name + ".begin", **self._fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.elapsed = self._clock() - self.start
        if self._histogram is not None:
            self._histogram.observe(self.elapsed)
        tracer = self._tracer
        if tracer is not None and tracer.sink.enabled:
            tracer.emit(self.name + ".end", cycles=self.elapsed,
                        **self._fields)
        return False
