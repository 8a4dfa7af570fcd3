"""The FAWN-KV data store (Andersen et al., SOSP '09), reimplemented.

FAWN's back-end store is log-structured: a single on-flash data log
holds ``(key, value)`` records appended in write order, and an
in-DRAM hash index maps each key to its log offset.  The index costs
**6 bytes per object** (15-bit key fragment, valid bit, 4-byte log
pointer) — cheap on a FAWN node with 1 GB DRAM and 16 GB of flash,
but ruinous on a SmartNIC JBOF where flash is 1024x DRAM (Table 3's
7.7 % / 24.1 % usable-capacity rows).

Command costs: GET = 1 device read, PUT = 1 device write, DEL = 1
device write (tombstone) — half of LEED's, which is why FAWN-JBOF has
the best single-access latency in Table 3.

Log cleaning is the classic single-threaded semispace sweep — the
process §4.2 observes LEED's parallel sub-compactions beating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.analysis import FAWN_INDEX_BYTES_PER_OBJECT
from repro.core.circular_log import CircularLog, LogFullError, LogRangeError
from repro.core.datastore import (
    NOT_FOUND,
    OK,
    STORE_FULL,
    OpResult,
    OpStats,
    cpu_charge,
)
from repro.core.segment import (
    pack_value_entry,
    unpack_value_entry,
    value_entry_size,
)
from repro.hw.cpu import CYCLE_COSTS, Core
from repro.hw.dram import Dram, IndexBudget
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator
from repro.sim.resources import Resource


@dataclass
class FawnConfig:
    """Geometry and policy for one FAWN datastore partition."""

    log_bytes: int = 32 << 20
    compact_high_watermark: float = 0.80
    compact_low_watermark: float = 0.60


@dataclass
class FawnStats(OpStats):
    """Cumulative statistics."""

    cleanings: int = 0
    bytes_reclaimed: int = 0


class FawnDataStore:
    """One FAWN-KV back-end partition.

    FAWN-DS performs *synchronous* I/O: one command at a time per
    datastore (the original implementation blocks in read()/write()).
    This is what caps FAWN-JBOF at ~60-90 KQPS per node in Table 3
    despite the NVMe drives' parallelism.
    """

    def __init__(self, sim: Simulator, ssd: NVMeSSD, config: FawnConfig,
                 region_offset: int = 0, dram: Optional[Dram] = None,
                 core: Optional[Core] = None, name: str = "fawn",
                 store_id: int = 0):
        self.sim = sim
        self.ssd = ssd
        self.config = config
        self.name = name
        self.store_id = store_id
        self.core = core
        self._cpu_event = cpu_charge(sim, core)
        self.log = CircularLog(ssd, region_offset, config.log_bytes,
                               name=name + ".log")
        #: In-memory hash index: key -> (virtual offset, entry size).
        #: Functionally a dict; its modeled cost is 6 B per object,
        #: reserved from node DRAM.
        self.index: Dict[bytes, Tuple[int, int]] = {}
        self.index_budget = IndexBudget(dram, name + ".index",
                                        FAWN_INDEX_BYTES_PER_OBJECT)
        self.stats = FawnStats()
        self.live_objects = 0
        self._cleaning = False
        #: Called with this store by a write that finds the log past
        #: the high watermark (see :mod:`repro.core.compaction`).
        self.on_pressure = None
        self._serial = Resource(sim, 1, name + ".sync")

    # -- commands ----------------------------------------------------------------------

    def _serially(self, command):
        """Generator: run one command generator under the serial lock."""
        yield self._serial.acquire()
        try:
            return (yield from command)
        finally:
            self._serial.release()

    def get(self, key: bytes, trace=None):
        """Generator: GET — one device read.  ``trace`` is accepted and
        ignored (also by :meth:`put` and :meth:`delete`): FAWN runs
        untraced."""
        return self._serially(self._get(key))

    def put(self, key: bytes, value: bytes, trace=None):
        """Generator: PUT — one device write."""
        self._check_pressure()
        return self._serially(self._put(key, value))

    def delete(self, key: bytes, trace=None):
        """Generator: DEL — one tombstone append."""
        self._check_pressure()
        return self._serially(self._delete(key))

    def _get(self, key: bytes):
        start = self.sim.now
        self.stats.gets += 1
        yield self._cpu_event(CYCLE_COSTS["hash_lookup"])
        entry = self.index.get(key)
        if entry is None:
            return self.stats.book("get", OpResult(NOT_FOUND), start,
                                   self.sim.now, 0.0, 0)
        result = OpResult(NOT_FOUND)
        offset, size = entry
        t0 = self.sim.now
        try:
            blob = yield from self.log.read(offset, size)
        except LogRangeError:
            blob = None
        if blob is not None:
            _sid, stored_key, value, _sz, _own = unpack_value_entry(blob)
            if stored_key == key:
                result = OpResult(OK, value=value)
        return self.stats.book("get", result, start, self.sim.now,
                               self.sim.now - t0, 1)

    def _put(self, key: bytes, value: bytes):
        if not value:
            raise ValueError("empty values are reserved as tombstones")
        start = self.sim.now
        self.stats.puts += 1
        yield self._cpu_event(CYCLE_COSTS["hash_lookup"]
                              + CYCLE_COSTS["log_append_bookkeeping"])
        existing = self.index.get(key)
        if existing is None and not self.index_budget.take():
            return self.stats.book("put", OpResult(STORE_FULL), start,
                                   self.sim.now, 0.0, 0)
        entry = pack_value_entry(0, key, value, owner_id=self.store_id)
        t0 = self.sim.now
        try:
            offset = yield from self.log.append_bytes(entry)
        except LogFullError:
            if existing is None:
                self.index_budget.give_back()
            return self.stats.book("put", OpResult(STORE_FULL), start,
                                   self.sim.now, 0.0, 0)
        ssd_us = self.sim.now - t0
        self.index[key] = (offset, len(entry))
        if existing is None:
            self.live_objects += 1
        return self.stats.book("put", OpResult(OK), start, self.sim.now,
                               ssd_us, 1)

    def _delete(self, key: bytes):
        start = self.sim.now
        self.stats.dels += 1
        yield self._cpu_event(CYCLE_COSTS["hash_lookup"])
        if key not in self.index:
            return self.stats.book("del", OpResult(NOT_FOUND), start,
                                   self.sim.now, 0.0, 0)
        tombstone = pack_value_entry(0, key, b"", owner_id=self.store_id)
        t0 = self.sim.now
        try:
            yield from self.log.append_bytes(tombstone)
        except LogFullError:
            return self.stats.book("del", OpResult(STORE_FULL), start,
                                   self.sim.now, 0.0, 0)
        ssd_us = self.sim.now - t0
        del self.index[key]
        self.index_budget.give_back()
        self.live_objects -= 1
        return self.stats.book("del", OpResult(OK), start, self.sim.now,
                               ssd_us, 1)

    # -- scan (COPY substrate) -----------------------------------------------------------

    def scan(self, predicate, visit):
        """Generator: call ``visit(key, value)`` for every live pair
        whose key passes ``predicate`` (None: every key), each read
        from the log; see :meth:`LeedDataStore.scan`.  A key whose
        index entry moved while its read was in flight is read again,
        so ``visit`` sees the value the index holds at that dispatch."""
        for key in list(self.index):
            if predicate is not None and not predicate(key):
                continue
            entry = self.index.get(key)
            while entry is not None:
                offset, size = entry
                try:
                    blob = yield from self.log.read(offset, size)
                except LogRangeError:
                    blob = None
                moved = self.index.get(key)
                if moved == entry:
                    break
                entry = moved
            if entry is None or blob is None:
                continue
            _sid, stored_key, value, _sz, _own = unpack_value_entry(blob)
            if stored_key != key:
                continue
            wait = visit(key, value)
            if wait is not None:
                yield wait

    # -- log cleaning --------------------------------------------------------------------

    def _check_pressure(self) -> None:
        """At every write's start: kick ``on_pressure`` when the log
        is past the high watermark."""
        if (self.on_pressure is not None and self.log.fill_fraction()
                >= self.config.compact_high_watermark):
            self.on_pressure(self)

    def maintenance(self):
        """Generator: clean the log when the watermark demands it."""
        if (self.log.fill_fraction() < self.config.compact_high_watermark
                or self._cleaning):
            return 0
        reclaimed = yield from self.clean()
        return reclaimed

    def clean(self, target_fill: Optional[float] = None):
        """Generator: one single-threaded cleaning pass.

        Reads entries sequentially from the head; entries the index
        still points at are re-appended, and the index is repointed if
        it still points at the old copy once the append lands (a PUT
        or DEL of the key during the append wins); everything else is
        dropped.
        """
        if self._cleaning:
            return 0
        self._cleaning = True
        target = (self.config.compact_low_watermark
                  if target_fill is None else target_fill)
        start_head = self.log.head
        try:
            scan = self.log.head
            end_tail = self.log.tail
            header = value_entry_size(0, 0)
            while self.log.fill_fraction() > target and scan < end_tail:
                chunk_len = min(end_tail - scan, 64 * 1024)
                blob = yield from self.log.read(scan, chunk_len)
                cursor = 0
                while cursor + header <= len(blob):
                    try:
                        _sid, key, value, size, _own = unpack_value_entry(
                            blob, cursor)
                    except Exception:
                        break
                    if size <= header or cursor + size > len(blob):
                        break
                    entry_offset = scan + cursor
                    entry = (entry_offset, size)
                    if self.index.get(key) == entry:
                        yield self._cpu_event(
                            CYCLE_COSTS["compaction_per_entry"])
                        new_offset = yield from self.log.append_bytes(
                            blob[cursor:cursor + size])
                        if self.index.get(key) == entry:
                            self.index[key] = (new_offset, size)
                    cursor += size
                if cursor == 0:
                    scan = min(scan + self.log.block_size, end_tail)
                else:
                    scan += cursor
                self.log.advance_head(min(scan, self.log.tail))
            self.stats.cleanings += 1
            self.stats.bytes_reclaimed += self.log.head - start_head
            return self.log.head - start_head
        finally:
            self._cleaning = False

    def __repr__(self):
        return "<FawnDataStore %s live=%d log=%.0f%%>" % (
            self.name, self.live_objects, 100 * self.log.fill_fraction())
