"""DRAM capacity and bandwidth accounting.

Challenge C1 is the skewed Flash:DRAM ratio — a SmartNIC JBOF has
~1024x more flash than DRAM, so every in-memory index byte matters.
:class:`Dram` is a strict allocator: stores must reserve the bytes
their in-memory structures occupy, and allocation fails when the
modeled capacity is exhausted.  This is what limits FAWN-JBOF to
7.7 % and KVell-JBOF to 0.9 % usable flash in Table 3.
"""

from __future__ import annotations

from typing import Dict, Optional


class OutOfMemoryError(Exception):
    """A reservation exceeded the modeled DRAM capacity."""


class Dram:
    """Byte-accurate DRAM capacity accounting with named reservations."""

    def __init__(self, capacity_bytes: int, bandwidth_bpus: float = 4390.0,
                 name: str = "dram"):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_bytes = int(capacity_bytes)
        #: Onboard memory bandwidth in bytes/µs (Stingray: 4390 MB/s, §4.8).
        self.bandwidth_bpus = float(bandwidth_bpus)
        self.name = name
        self._reservations: Dict[str, int] = {}

    @property
    def used_bytes(self) -> int:
        return sum(self._reservations.values())

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def reserve(self, label: str, nbytes: int) -> None:
        """Reserve ``nbytes`` under ``label`` (adds to prior reservations)."""
        if nbytes < 0:
            raise ValueError("negative reservation")
        if nbytes > self.free_bytes:
            raise OutOfMemoryError(
                "%s: reserving %d bytes for %r but only %d free of %d"
                % (self.name, nbytes, label, self.free_bytes, self.capacity_bytes))
        self._reservations[label] = self._reservations.get(label, 0) + nbytes

    def resize(self, label: str, nbytes: int) -> None:
        """Set the reservation for ``label`` to exactly ``nbytes``."""
        current = self._reservations.get(label, 0)
        delta = nbytes - current
        if delta > self.free_bytes:
            raise OutOfMemoryError(
                "%s: growing %r by %d bytes but only %d free"
                % (self.name, label, delta, self.free_bytes))
        if nbytes:
            self._reservations[label] = nbytes
        else:
            self._reservations.pop(label, None)

    def release(self, label: str) -> int:
        """Free the reservation for ``label``; returns the bytes freed."""
        return self._reservations.pop(label, 0)

    def reservation(self, label: str) -> int:
        return self._reservations.get(label, 0)

    def transfer_time_us(self, nbytes: int) -> float:
        """Time to move ``nbytes`` through the memory system."""
        return nbytes / self.bandwidth_bpus

    def __repr__(self):
        return "<Dram %s %d/%d bytes used>" % (
            self.name, self.used_bytes, self.capacity_bytes)


class IndexBudget:
    """The DRAM an in-memory index holds: ``bytes_per_object`` for each
    object it indexes, reserved under one label of the node's
    :class:`Dram` (none: unlimited).  FAWN's hash index and KVell's
    B-tree keep one each; a store refuses a new key with STORE_FULL
    when :meth:`take` finds no room for it."""

    def __init__(self, dram: Optional[Dram], label: str,
                 bytes_per_object: int):
        self.dram = dram
        self.label = label
        self.bytes_per_object = bytes_per_object

    def take(self) -> bool:
        """Reserve one more object's bytes; False when out of memory."""
        if self.dram is not None:
            try:
                self.dram.reserve(self.label, self.bytes_per_object)
            except OutOfMemoryError:
                return False
        return True

    def give_back(self) -> None:
        """Release one object's bytes."""
        if self.dram is not None:
            current = self.dram.reservation(self.label)
            self.dram.resize(self.label,
                             max(current - self.bytes_per_object, 0))
