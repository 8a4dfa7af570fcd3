"""Exception types raised by the simulation engine."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulation-engine errors."""


class StopSimulation(SimulationError):
    """Raised internally to terminate :meth:`Simulator.run` early."""

    def __init__(self, value=None):
        super().__init__(value)
        self.value = value


class EventAlreadyTriggered(SimulationError):
    """An event was succeeded or failed more than once."""
