"""The in-memory segment table — SegTbl (§3.2.3).

The only per-object index state LEED keeps in DRAM: for each segment,
K bits of chain length and a 4-byte offset into the key log, plus one
lock bit for concurrency control.  Everything else lives on flash,
which is how LEED indexes ~4 TB with 8 GB of SmartNIC DRAM.

The table reserves its modeled footprint from the node's
:class:`~repro.hw.dram.Dram`, so exceeding the platform's memory
budget fails loudly (the effect that caps FAWN/KVell capacity in
Table 3).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.hw.dram import Dram
from repro.sim.core import Simulator
from repro.sim.events import Event

#: Modeled DRAM bytes per SegTbl entry: 4 B offset + chain-length bits
#: + lock bit, padded — the paper's "K-bits + 4B offset" (§3.2.3).
SEGTBL_ENTRY_BYTES = 5

#: Sentinel offset for a segment that has never been written.
NO_OFFSET = -1


class SegmentEntry:
    """One segment's DRAM state."""

    __slots__ = ("offset", "chain_len", "locked", "_waiters")

    def __init__(self):
        self.offset: int = NO_OFFSET
        self.chain_len: int = 0
        self.locked: bool = False
        #: FCFS lock waiters, created by the first contended ``lock``.
        self._waiters: Optional[Deque[Event]] = None

    @property
    def exists(self) -> bool:
        return self.offset != NO_OFFSET


class SegTbl:
    """Array of :class:`SegmentEntry`, with lock-bit concurrency control."""

    def __init__(self, sim: Simulator, num_segments: int,
                 dram: Optional[Dram] = None, name: str = "segtbl"):
        if num_segments < 1:
            raise ValueError("need at least one segment")
        self.sim = sim
        self.name = name
        self.num_segments = num_segments
        self.entries: List[SegmentEntry] = [SegmentEntry()
                                            for _ in range(num_segments)]
        self.dram = dram
        if dram is not None:
            dram.reserve(name, num_segments * SEGTBL_ENTRY_BYTES)
        self.lock_waits = 0

    def footprint_bytes(self) -> int:
        """Modeled DRAM footprint of the table."""
        return self.num_segments * SEGTBL_ENTRY_BYTES

    # -- index updates -----------------------------------------------------------

    def update(self, seg_id: int, offset: int, chain_len: int) -> None:
        """Point ``seg_id`` at its new key-log location."""
        entry = self.entries[seg_id]
        entry.offset = offset
        entry.chain_len = chain_len

    def location(self, seg_id: int):
        """(offset, chain_len) or None when the segment does not exist."""
        entry = self.entries[seg_id]
        if entry.offset == NO_OFFSET:
            return None
        return entry.offset, entry.chain_len

    # -- lock bit -----------------------------------------------------------------

    def try_lock(self, seg_id: int) -> bool:
        """Take the lock bit if free; never waits (compaction uses this
        to *skip* locked segments, §3.3.1)."""
        entry = self.entries[seg_id]
        if entry.locked:
            return False
        entry.locked = True
        return True

    def lock(self, seg_id: int) -> Event:
        """Event that fires once the lock bit is held (FCFS waiters)."""
        entry = self.entries[seg_id]
        event = Event(self.sim)
        if not entry.locked:
            entry.locked = True
            event.succeed(seg_id)
        else:
            self.lock_waits += 1
            if entry._waiters is None:
                entry._waiters = deque()
            entry._waiters.append(event)
        return event

    def unlock(self, seg_id: int) -> None:
        """Release the lock bit, handing it to the next FCFS waiter."""
        entry = self.entries[seg_id]
        if not entry.locked:
            raise RuntimeError("unlock of unlocked segment %d" % seg_id)
        waiters = entry._waiters
        while waiters:
            waiter = waiters.popleft()
            if not waiter.triggered:
                # Hand the lock directly to the next waiter, which
                # resumes inside this dispatch.
                waiter.succeed_inline(seg_id)
                return
        entry.locked = False

    # -- iteration ------------------------------------------------------------------

    def existing_segments(self):
        """Yield ids of segments that have an on-log location."""
        for seg_id, entry in enumerate(self.entries):
            if entry.exists:
                yield seg_id

    def __len__(self) -> int:
        return self.num_segments

    def __repr__(self):
        populated = sum(1 for e in self.entries if e.exists)
        return "<SegTbl %s %d/%d populated>" % (self.name, populated,
                                                self.num_segments)
