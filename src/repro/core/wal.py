"""Per-partition write-ahead log for replication-level recovery.

The store's own crash recovery (:mod:`repro.core.recovery`) rebuilds a
partition's *local* index from flash.  What it cannot recover is the
**replication state**: a write this replica applied whose downstream
acknowledgment never arrived may exist nowhere else when the replica
comes back — re-mirroring from surviving chain members only restores
data the survivors hold.  The WAL closes that gap: every replicated
write appends an intent record before it executes, the record is
retired when the protocol acknowledges it (chain backward ack, ABD
quorum commit), and :meth:`JBOFNode.recover` replays whatever is
still outstanding through the active
:class:`~repro.core.replication.base.ReplicationPolicy`.

The log models the capacitor-backed NVRAM region SmartNIC JBOFs
dedicate to intent journals: appends are synchronous memory writes
(no simulated SSD I/O, no scheduler events), so enabling the WAL
never perturbs the event schedule — schedule digests are byte-
identical with the WAL on or off.  Only byte accounting is modeled.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.record import Record

#: Fixed per-record header: lsn, op, stamp, lengths.
WAL_RECORD_HEADER_BYTES = 32


class WalRecord(Record):
    """One replicated-write intent."""

    __slots__ = _FIELDS = ("lsn", "op", "key", "value", "stamp",
                           "ring_version")

    def __init__(self, lsn: int, op: str, key: bytes,
                 value: Optional[bytes], stamp: object = 0,
                 ring_version: int = 0):
        self.lsn = lsn
        self.op = op                 # "put" | "del"
        self.key = key
        self.value = value
        #: Protocol ordering stamp: the chain's per-key version (int)
        #: or the ABD logical timestamp tuple.  Replay compares it
        #: against the cluster's current state to skip already-durable
        #: writes.
        self.stamp = stamp
        #: Ring version when the intent was journaled.  Chain version
        #: counters are only comparable within one ring epoch, so
        #: chain replay refuses records from a reconfigured-away epoch
        #: rather than risk re-proposing a stale value over a newer
        #: acked write (0 = unknown epoch: replay unconditionally, the
        #: pre-epoch behavior ABD still uses — its stamps are globally
        #: ordered).
        self.ring_version = ring_version

    def wire_bytes(self) -> int:
        return (WAL_RECORD_HEADER_BYTES + len(self.key)
                + (len(self.value) if self.value else 0))


@dataclass
class WalStats:
    """Cumulative write-ahead-log counters."""

    appended: int = 0
    acked: int = 0
    dropped: int = 0             # capacity evictions (oldest-first)
    replayed: int = 0
    replay_skipped: int = 0      # already durable at replay time
    bytes_appended: int = 0


class WriteAheadLog:
    """Append-only intent log with ack-based retirement.

    Acknowledged records are dropped immediately — only outstanding
    intents are retained, so memory stays bounded by the protocol's
    in-flight window (plus a hard ``capacity`` backstop for writes
    whose acks are lost to a crash).
    """

    def __init__(self, name: str, capacity: int = 65536):
        self.name = name
        self.capacity = capacity
        self.stats = WalStats()
        self._next_lsn = 1
        #: lsn -> record, in append (= lsn) order.
        self._unacked: "OrderedDict[int, WalRecord]" = OrderedDict()
        #: key -> outstanding lsns in append order (FIFO ack matching).
        self._by_key: Dict[bytes, Deque[int]] = {}

    def __len__(self) -> int:
        return len(self._unacked)

    def append(self, op: str, key: bytes, value: Optional[bytes],
               stamp: object = 0, ring_version: int = 0) -> WalRecord:
        """Journal one write intent; returns the record."""
        record = WalRecord(self._next_lsn, op, key, value, stamp,
                           ring_version)
        self._next_lsn += 1
        self._unacked[record.lsn] = record
        self._by_key.setdefault(key, deque()).append(record.lsn)
        self.stats.appended += 1
        self.stats.bytes_appended += record.wire_bytes()
        while len(self._unacked) > self.capacity:
            _lsn, evicted = self._unacked.popitem(last=False)
            self._forget_key(evicted)
            self.stats.dropped += 1
        return record

    def ack(self, key: bytes) -> Optional[WalRecord]:
        """Retire the oldest outstanding intent for ``key``.

        Chain acks carry only the key; per-key writes are acknowledged
        in the order they were forwarded, so FIFO matching is exact.
        """
        lsns = self._by_key.get(key)
        if not lsns:
            return None
        lsn = lsns.popleft()
        if not lsns:
            del self._by_key[key]
        record = self._unacked.pop(lsn, None)
        if record is not None:
            self.stats.acked += 1
        return record

    def ack_record(self, lsn: int) -> Optional[WalRecord]:
        """Retire one intent by lsn (quorum commits know their record)."""
        record = self._unacked.pop(lsn, None)
        if record is None:
            return None
        self._forget_key(record)
        self.stats.acked += 1
        return record

    def unacknowledged(self) -> List[WalRecord]:
        """Outstanding intents in append order (the replay worklist)."""
        return list(self._unacked.values())

    def mark_replayed(self, lsn: int, skipped: bool = False) -> None:
        """Retire an intent after recovery replay handled it."""
        record = self._unacked.pop(lsn, None)
        if record is None:
            return
        self._forget_key(record)
        if skipped:
            self.stats.replay_skipped += 1
        else:
            self.stats.replayed += 1

    def _forget_key(self, record: WalRecord) -> None:
        lsns = self._by_key.get(record.key)
        if not lsns:
            return
        try:
            lsns.remove(record.lsn)
        except ValueError:
            return
        if not lsns:
            del self._by_key[record.key]

    def __repr__(self):
        return "<WriteAheadLog %s unacked=%d appended=%d>" % (
            self.name, len(self._unacked), self.stats.appended)
