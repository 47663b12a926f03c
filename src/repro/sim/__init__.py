"""Discrete-event simulation kernel (events, processes, resources)."""

from repro.sim.engine import Process, SimulationError, Simulator
from repro.sim.events import AllOf, Event, Timeout, Timer
from repro.sim.resources import Resource

__all__ = [
    "AllOf", "Event", "Process", "Resource",
    "SimulationError", "Simulator", "Timeout", "Timer",
]
