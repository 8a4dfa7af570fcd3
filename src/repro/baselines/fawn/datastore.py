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

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.analysis import FAWN_INDEX_BYTES_PER_OBJECT
from repro.core.circular_log import CircularLog, LogFullError, LogRangeError
from repro.core.datastore import NOT_FOUND, OK, STORE_FULL, OpResult
from repro.core.segment import (
    pack_value_entry,
    unpack_value_entry,
    value_entry_size,
)
from repro.hw.cpu import CYCLE_COSTS, Core
from repro.hw.dram import Dram, OutOfMemoryError
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator
from repro.sim.resources import Resource


@dataclass
class FawnConfig:
    """Geometry and policy for one FAWN datastore partition."""

    log_bytes: int = 32 << 20
    compact_high_watermark: float = 0.80
    compact_low_watermark: float = 0.60
    #: DRAM the index may use; None = take what the node grants.
    index_budget_bytes: Optional[int] = None
    #: FAWN-DS performs *synchronous* I/O: one outstanding device
    #: operation per datastore (the original implementation blocks in
    #: read()/write()).  This is what caps FAWN-JBOF at ~60-90 KQPS
    #: per node in Table 3 despite the NVMe drives' parallelism.
    synchronous_io: bool = True


@dataclass
class FawnStats:
    """Cumulative statistics."""

    gets: int = 0
    puts: int = 0
    dels: int = 0
    hits: int = 0
    misses: int = 0
    cleanings: int = 0
    bytes_reclaimed: int = 0
    ssd_time_us: float = 0.0
    cpu_time_us: float = 0.0
    op_latency_us: Dict[str, float] = field(default_factory=lambda: {
        "get": 0.0, "put": 0.0, "del": 0.0})


class FawnDataStore:
    """One FAWN-KV back-end partition."""

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
        self.dram = dram
        self.log = CircularLog(ssd, region_offset, config.log_bytes,
                               name=name + ".log")
        #: In-memory hash index: key -> (virtual offset, entry size).
        #: Functionally a dict; its modeled cost is 6 B per object,
        #: reserved from node DRAM.
        self.index: Dict[bytes, Tuple[int, int]] = {}
        self.stats = FawnStats()
        self.live_objects = 0
        self._dram_label = name + ".index"
        self._cleaning = False
        #: Called with this store by a write that finds the log past
        #: the high watermark (see :mod:`repro.core.compaction`).
        self.on_pressure = None
        self._serial = Resource(sim, 1, name + ".sync") \
            if config.synchronous_io else None
        if config.index_budget_bytes is not None:
            self.max_objects: Optional[int] = (
                config.index_budget_bytes // FAWN_INDEX_BYTES_PER_OBJECT)
        elif dram is not None:
            self.max_objects = None  # limited by Dram reservations
        else:
            self.max_objects = None

    # -- helpers ----------------------------------------------------------------------

    def _charge_cpu(self, cycles: int):
        if self.core is not None:
            yield from self.core.execute(cycles)
        else:
            yield self.sim.timeout(cycles / 3.0e3)

    def _reserve_index_slot(self) -> bool:
        """Account one more object in DRAM; False when out of memory."""
        if self.max_objects is not None and len(self.index) >= self.max_objects:
            return False
        if self.dram is not None:
            try:
                self.dram.reserve(self._dram_label,
                                  FAWN_INDEX_BYTES_PER_OBJECT)
            except OutOfMemoryError:
                return False
        return True

    def _release_index_slot(self) -> None:
        if self.dram is not None:
            current = self.dram.reservation(self._dram_label)
            self.dram.resize(self._dram_label,
                             max(current - FAWN_INDEX_BYTES_PER_OBJECT, 0))

    # -- commands ----------------------------------------------------------------------

    def get(self, key: bytes, trace=None):
        """Generator: GET — one device read (synchronous by default).
        ``trace`` is accepted and ignored: FAWN runs untraced."""
        if self._serial is not None:
            yield self._serial.acquire()
        try:
            result = yield from self._get(key)
        finally:
            if self._serial is not None:
                self._serial.release()
        return result

    def _get(self, key: bytes):
        start = self.sim.now
        self.stats.gets += 1
        t0 = self.sim.now
        yield from self._charge_cpu(CYCLE_COSTS["hash_lookup"])
        cpu_us = self.sim.now - t0
        entry = self.index.get(key)
        result: OpResult
        ssd_us = 0.0
        if entry is None:
            self.stats.misses += 1
            result = OpResult(NOT_FOUND)
        else:
            offset, size = entry
            t0 = self.sim.now
            try:
                blob = yield from self.log.read(offset, size)
            except LogRangeError:
                blob = None
            ssd_us = self.sim.now - t0
            if blob is None:
                self.stats.misses += 1
                result = OpResult(NOT_FOUND)
            else:
                _sid, stored_key, value, _sz, _own = unpack_value_entry(blob)
                if stored_key != key:
                    self.stats.misses += 1
                    result = OpResult(NOT_FOUND)
                else:
                    self.stats.hits += 1
                    result = OpResult(OK, value=value)
        result.total_us = self.sim.now - start
        result.ssd_us = ssd_us
        result.cpu_us = result.total_us - ssd_us
        result.nvme_accesses = 1 if entry is not None else 0
        self.stats.ssd_time_us += ssd_us
        self.stats.cpu_time_us += result.cpu_us
        self.stats.op_latency_us["get"] += result.total_us
        return result

    def put(self, key: bytes, value: bytes, trace=None):
        """Generator: PUT — one device write (synchronous by default)."""
        self._check_pressure()
        if self._serial is not None:
            yield self._serial.acquire()
        try:
            result = yield from self._put(key, value)
        finally:
            if self._serial is not None:
                self._serial.release()
        return result

    def _put(self, key: bytes, value: bytes):
        if not value:
            raise ValueError("empty values are reserved as tombstones")
        start = self.sim.now
        self.stats.puts += 1
        t0 = self.sim.now
        yield from self._charge_cpu(CYCLE_COSTS["hash_lookup"]
                                    + CYCLE_COSTS["log_append_bookkeeping"])
        cpu_us = self.sim.now - t0
        existing = self.index.get(key)
        if existing is None and not self._reserve_index_slot():
            result = OpResult(STORE_FULL)
            result.total_us = self.sim.now - start
            result.cpu_us = result.total_us
            self.stats.op_latency_us["put"] += result.total_us
            return result
        entry = pack_value_entry(0, key, value, owner_id=self.store_id)
        t0 = self.sim.now
        try:
            offset = yield from self.log.append_bytes(entry)
        except LogFullError:
            if existing is None:
                self._release_index_slot()
            result = OpResult(STORE_FULL)
            result.total_us = self.sim.now - start
            self.stats.op_latency_us["put"] += result.total_us
            return result
        ssd_us = self.sim.now - t0
        self.index[key] = (offset, len(entry))
        if existing is None:
            self.live_objects += 1
        result = OpResult(OK)
        result.total_us = self.sim.now - start
        result.ssd_us = ssd_us
        result.cpu_us = result.total_us - ssd_us
        result.nvme_accesses = 1
        self.stats.ssd_time_us += ssd_us
        self.stats.cpu_time_us += result.cpu_us
        self.stats.op_latency_us["put"] += result.total_us
        return result

    def delete(self, key: bytes, trace=None):
        """Generator: DEL — tombstone append (synchronous by default)."""
        self._check_pressure()
        if self._serial is not None:
            yield self._serial.acquire()
        try:
            result = yield from self._delete(key)
        finally:
            if self._serial is not None:
                self._serial.release()
        return result

    def _delete(self, key: bytes):
        start = self.sim.now
        self.stats.dels += 1
        yield from self._charge_cpu(CYCLE_COSTS["hash_lookup"])
        if key not in self.index:
            result = OpResult(NOT_FOUND)
            result.total_us = self.sim.now - start
            result.cpu_us = result.total_us
            self.stats.op_latency_us["del"] += result.total_us
            return result
        tombstone = pack_value_entry(0, key, b"", owner_id=self.store_id)
        t0 = self.sim.now
        try:
            yield from self.log.append_bytes(tombstone)
        except LogFullError:
            result = OpResult(STORE_FULL)
            result.total_us = self.sim.now - start
            self.stats.op_latency_us["del"] += result.total_us
            return result
        ssd_us = self.sim.now - t0
        del self.index[key]
        self._release_index_slot()
        self.live_objects -= 1
        result = OpResult(OK)
        result.total_us = self.sim.now - start
        result.ssd_us = ssd_us
        result.cpu_us = result.total_us - ssd_us
        result.nvme_accesses = 1
        self.stats.ssd_time_us += ssd_us
        self.stats.cpu_time_us += result.cpu_us
        self.stats.op_latency_us["del"] += result.total_us
        return result

    # -- scan (COPY substrate) -----------------------------------------------------------

    def scan(self, predicate=None, batch_size: int = 32, visit=None):
        """Generator: iterate live pairs with real device reads."""
        collected = []
        batch = []
        for key, (offset, size) in list(self.index.items()):
            if predicate is not None and not predicate(key):
                continue
            try:
                blob = yield from self.log.read(offset, size)
            except LogRangeError:
                continue
            _sid, stored_key, value, _sz, _own = unpack_value_entry(blob)
            if stored_key != key or not value:
                continue
            batch.append((stored_key, value))
            if visit is not None and len(batch) >= batch_size:
                yield from visit(batch)
                batch = []
        if visit is not None:
            if batch:
                yield from visit(batch)
            return None
        collected.extend(batch)
        return collected

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
        still points at are re-appended (and the index repointed);
        everything else is dropped.
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
                    live = self.index.get(key) == (entry_offset, size)
                    if live:
                        yield from self._charge_cpu(
                            CYCLE_COSTS["compaction_per_entry"])
                        new_offset = yield from self.log.append_bytes(
                            blob[cursor:cursor + size])
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
