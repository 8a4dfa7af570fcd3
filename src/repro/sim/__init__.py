"""A from-scratch discrete-event simulation engine.

Provides the execution substrate for the LEED reproduction: generator
processes, one-shot events, timeouts, counted resources, and FIFO
stores.  Time is measured in **microseconds**.
"""

from repro.sim.core import Simulator
from repro.sim.errors import EventAlreadyTriggered, SimulationError
from repro.sim.events import Condition, Event, Timeout, all_of
from repro.sim.process import Process
from repro.sim.queues import Store
from repro.sim.resources import Resource
from repro.sim.rng import RngRegistry

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Condition",
    "Process",
    "Resource",
    "Store",
    "RngRegistry",
    "SimulationError",
    "EventAlreadyTriggered",
    "all_of",
]
