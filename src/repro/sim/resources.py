"""Shared-resource primitives built on the event kernel."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sim.events import Event


class Resource:
    """FIFO resource with ``capacity`` concurrent holders.

    ``request()`` returns an event that fires when a slot is granted;
    call ``release()`` exactly once per granted request.
    """

    def __init__(self, sim, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiting: Deque[Event] = deque()
        # Aggregate statistics.
        self.total_waits = 0
        self.total_wait_cycles = 0.0

    def request(self) -> Event:
        event = Event(self.sim, name=f"{self.name}-request")
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed(self.sim.now)
        else:
            self.total_waits += 1
            event.value = self.sim.now  # stash request time for stats
            self._waiting.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._waiting:
            event = self._waiting.popleft()
            requested_at, event.value = event.value, None
            self.total_wait_cycles += self.sim.now - requested_at
            event.succeed(self.sim.now)
        else:
            self.in_use -= 1
