"""Shared resources with bounded capacity.

:class:`Resource` models a pool of interchangeable slots (e.g. NVMe
submission-queue entries, CPU cores).  Processes request a slot, hold
it across simulated time, and release it; waiters queue FCFS — the
queueing discipline LEED uses throughout (§3.4).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

from repro.sim.events import Event


class ResourceRequest(Event):
    """Pending acquisition of ``amount`` resource slots."""

    __slots__ = ("amount",)

    def __init__(self, resource: "Resource", amount: int):
        super().__init__(resource.sim)
        self.amount = amount


class Resource:
    """A counted resource with FCFS waiters."""

    def __init__(self, sim, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise ValueError("capacity must be >= 1, got %r" % capacity)
        self.sim = sim
        self.name = name
        self.capacity = int(capacity)
        self._in_use = 0
        self._waiters: Deque[ResourceRequest] = deque()

    # -- acquire / release ----------------------------------------------------

    def acquire(self, amount: int = 1) -> ResourceRequest:
        """Request ``amount`` slots; returns an event granting them."""
        if amount < 1 or amount > self.capacity:
            raise ValueError(
                "cannot acquire %r slots from %r with capacity %r"
                % (amount, self.name, self.capacity)
            )
        request = ResourceRequest(self, amount)
        self._waiters.append(request)
        self._grant()
        return request

    def release(self, amount: int = 1) -> None:
        """Return ``amount`` previously-acquired slots."""
        if amount > self._in_use:
            raise ValueError(
                "release(%r) exceeds in_use=%r on %r" % (amount, self._in_use, self.name)
            )
        self._in_use -= amount
        self._grant()

    def _grant(self) -> None:
        while self._waiters:
            request = self._waiters[0]
            if request.triggered:
                self._waiters.popleft()
                continue
            if request.amount > self.capacity - self._in_use:
                break
            self._waiters.popleft()
            self._in_use += request.amount
            request.succeed(self)

    def __repr__(self):
        return "<Resource %s %d/%d queued=%d>" % (
            self.name, self._in_use, self.capacity, len(self._waiters))
