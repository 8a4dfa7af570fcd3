"""FIFO message channels between simulation processes.

:class:`Store` is the lockless concurrent queue of the paper's
intra-JBOF engine (§3.4): producers ``put`` items, consumers ``get``
them, both sides may block (bounded capacity on the producer side,
emptiness on the consumer side).  Discipline is strictly FCFS.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Event


class StorePut(Event):
    """Pending put of ``item`` into a store."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item


class StoreGet(Event):
    """Pending get from a store."""

    __slots__ = ()


class Store:
    """A bounded FIFO channel."""

    def __init__(self, sim, capacity: float = float("inf"), name: str = "store"):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    # -- inspection -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.items)

    # -- operations -------------------------------------------------------------

    def put(self, item: Any) -> StorePut:
        """Event that fires once ``item`` has been enqueued."""
        put_event = StorePut(self, item)
        self._putters.append(put_event)
        self._dispatch()
        return put_event

    def try_put(self, item: Any) -> bool:
        """Enqueue immediately when space allows; never waits."""
        if len(self.items) < self.capacity:
            self.items.append(item)
            self._dispatch()
            return True
        return False

    def get(self) -> StoreGet:
        """Event that fires with the next item."""
        get_event = StoreGet(self.sim)
        self._getters.append(get_event)
        self._dispatch()
        return get_event

    def try_get(self) -> Optional[Any]:
        """Dequeue immediately, or None when empty."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item
        return None

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move waiting puts into the buffer while space remains.
            while self._putters and len(self.items) < self.capacity:
                put_event = self._putters.popleft()
                if put_event.triggered:
                    continue
                self.items.append(put_event.item)
                put_event.succeed()
                progressed = True
            # Serve waiting gets from the buffer.
            while self._getters and self.items:
                get_event = self._getters.popleft()
                if get_event.triggered:
                    continue
                get_event.succeed(self.items.popleft())
                progressed = True

    def __repr__(self):
        return "<Store %s len=%d cap=%s>" % (self.name, len(self.items), self.capacity)
