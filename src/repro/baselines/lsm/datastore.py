"""A leveled LSM-tree store (LevelDB/RocksDB-style), reimplemented.

The design LEED's circular log argues against (§3.2.1): writes land
in a WAL (1 device write) plus an in-memory memtable; a full memtable
flushes to a sorted L0 run; levels compact by **merge-sorting** runs
into the next level — the CPU-hungry sorting phase, charged per
record merged, plus the write amplification of rewriting every level.

A full memtable is frozen as the *immutable* memtable while it
flushes, and writes go on into a fresh one; reads check memtable →
immutable memtable → L0 runs (newest first) → one run per deeper
level, with Bloom filters skipping most tables.  One merge runs at a
time, and it replaces only the runs it read.

Space is managed as a bump allocator over the store's device region;
compaction garbage is reclaimed by recycling table extents (kept in
a free list of fixed-size slabs for simplicity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.lsm.sstable import DELETED, SSTable, write_sstable
from repro.core.datastore import (
    NOT_FOUND,
    OK,
    STORE_FULL,
    OpResult,
    OpStats,
    cpu_charge,
)
from repro.hw.cpu import Core
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator

#: CPU cycles to merge one record during compaction (compare + copy +
#: iterator advance) — the "sorting phase" cost of §3.2.1.
MERGE_CYCLES_PER_RECORD = 500

#: CPU cycles to insert into / look up the sorted memtable.
MEMTABLE_OP_CYCLES = 800


@dataclass
class LsmConfig:
    """Geometry for one LSM store."""

    region_bytes: int = 32 << 20
    #: Memtable flush threshold, bytes of raw records.
    memtable_bytes: int = 256 << 10
    #: L0 runs allowed before compaction into L1.
    l0_limit: int = 4
    #: L1 size budget in bytes.
    l1_bytes: int = 1 << 20
    bits_per_key: int = 10


@dataclass
class LsmStats(OpStats):
    """Cumulative statistics."""

    memtable_hits: int = 0
    flushes: int = 0
    compactions: int = 0
    records_merged: int = 0
    tables_probed: int = 0
    bloom_skips: int = 0
    user_bytes_written: int = 0
    device_bytes_written: int = 0

    def write_amplification(self) -> float:
        if not self.user_bytes_written:
            return 0.0
        return self.device_bytes_written / self.user_bytes_written


class LsmDataStore:
    """A leveled LSM-tree key-value store on one device region."""

    #: Per-level size ratio (level i holds ratio^i x L1 budget).
    LEVEL_RATIO = 4
    #: Number of levels past L0.
    MAX_LEVELS = 4

    def __init__(self, sim: Simulator, ssd: NVMeSSD, config: LsmConfig,
                 region_offset: int = 0, dram: Optional[Dram] = None,
                 core: Optional[Core] = None, name: str = "lsm",
                 store_id: int = 0):
        self.sim = sim
        self.ssd = ssd
        self.config = config
        self.name = name
        self.store_id = store_id
        self.core = core
        self._cpu_event = cpu_charge(sim, core)
        self.dram = dram
        self.block_size = ssd.block_size
        self.region_offset = region_offset
        # Extent allocator: fixed-size slabs big enough for the largest
        # single table we expect (one level's budget).
        self._next_extent = region_offset
        self._region_end = region_offset + config.region_bytes
        self._free_extents: Dict[int, List[int]] = {}
        #: In-memory write buffer: key -> value (None == tombstone).
        self.memtable: Dict[bytes, Optional[bytes]] = {}
        self.memtable_bytes = 0
        #: The memtable a flush is writing out (empty between flushes):
        #: newer than every run, older than ``memtable``.
        self.immutable: Dict[bytes, Optional[bytes]] = {}
        self.immutable_bytes = 0
        #: WAL tail (sequential appends within a dedicated extent).
        self._wal_base = self._allocate(config.memtable_bytes * 2)
        self._wal_cursor = 0
        #: levels[0] = list of L0 runs (newest first); levels[i>0] =
        #: one sorted run per level (merged).
        self.levels: List[List[SSTable]] = [[] for _ in
                                            range(self.MAX_LEVELS + 1)]
        self._table_ids = 0
        #: table_id -> allocated extent size (for exact recycling).
        self._extent_sizes: Dict[int, int] = {}
        self.stats = LsmStats()
        #: Rough live-object estimate (exact tracking would need a read
        #: per write once the memtable has flushed; scans give truth).
        self.live_objects = 0
        self._flushing = False
        self._compacting = False
        #: Called with this store by a write that finds L0 over its
        #: run limit and no flush merging it (see
        #: :mod:`repro.core.compaction`).
        self.on_pressure = None

    # -- helpers -----------------------------------------------------------------

    def _allocate(self, nbytes: int) -> int:
        """Claim a block-aligned extent; raises when the region is full."""
        nbytes = -(-nbytes // self.block_size) * self.block_size
        bucket = self._free_extents.get(nbytes)
        if bucket:
            return bucket.pop()
        if self._next_extent + nbytes > self._region_end:
            raise MemoryError("LSM region exhausted")
        extent = self._next_extent
        self._next_extent += nbytes
        return extent

    def _release(self, offset: int, nbytes: int) -> None:
        nbytes = -(-nbytes // self.block_size) * self.block_size
        self._free_extents.setdefault(nbytes, []).append(offset)

    def _level_budget(self, level: int) -> int:
        return self.config.l1_bytes * (self.LEVEL_RATIO
                                       ** max(level - 1, 0))

    def _account_index(self) -> None:
        if self.dram is None:
            return
        total = sum(t.index_bytes for level in self.levels for t in level)
        total += self.memtable_bytes + self.immutable_bytes
        self.dram.resize(self.name + ".index", total)

    # -- commands ---------------------------------------------------------------------

    def put(self, key: bytes, value: bytes, trace=None):
        """Generator: WAL append + memtable insert; maybe flush.
        ``trace`` is accepted and ignored (also by :meth:`get` and
        :meth:`delete`): the LSM runs untraced."""
        if not value:
            raise ValueError("empty values are reserved as tombstones")
        return (yield from self._write(key, value, "put"))

    def delete(self, key: bytes, trace=None):
        """Generator: tombstone write."""
        return (yield from self._write(key, None, "del"))

    def _write(self, key: bytes, value: Optional[bytes], op: str):
        # A flush merges the L0 it overfills itself.
        if (self.on_pressure is not None and not self._flushing
                and len(self.levels[0]) > self.config.l0_limit):
            self.on_pressure(self)
        start = self.sim.now
        self.stats.puts += op == "put"
        self.stats.dels += op == "del"
        record_bytes = len(key) + (len(value) if value else 0) + 8

        yield self._cpu_event(MEMTABLE_OP_CYCLES)

        # WAL append: one device write for durability.
        t0 = self.sim.now
        wal_offset = self._wal_base + (self._wal_cursor
                                       % (self.config.memtable_bytes * 2))
        wal_block = (wal_offset // self.block_size) * self.block_size
        yield from self.ssd.write(wal_block, b"\x00" * self.block_size)
        ssd_us = self.sim.now - t0
        self._wal_cursor += record_bytes
        self.stats.device_bytes_written += self.block_size

        existed = key in self.memtable and self.memtable[key] is not None
        self.memtable[key] = value
        self.memtable_bytes += record_bytes
        if value is not None:
            self.stats.user_bytes_written += record_bytes
            if not existed:
                self.live_objects += 1
        elif existed:
            self.live_objects -= 1
        self._account_index()

        status = OK
        if self.memtable_bytes >= self.config.memtable_bytes \
                and not self._flushing:
            try:
                yield from self._flush_memtable()
            except MemoryError:
                status = STORE_FULL
        return self.stats.book(op, OpResult(status), start, self.sim.now,
                               ssd_us, 1)

    def get(self, key: bytes, trace=None):
        """Generator: memtable, immutable memtable, then L0
        newest-first, then each level."""
        start = self.sim.now
        self.stats.gets += 1
        yield self._cpu_event(MEMTABLE_OP_CYCLES)
        ssd_us = 0.0
        accesses = 0

        memtable = (self.memtable if key in self.memtable
                    else self.immutable if key in self.immutable else None)
        if memtable is not None:
            self.stats.memtable_hits += 1
            value = memtable[key]
            result = OpResult(OK, value=value) if value is not None \
                else OpResult(NOT_FOUND)
        else:
            result = None
            for level_tables in self.levels:
                if result is not None:
                    break
                for table in level_tables:
                    if not table.bloom.might_contain(key):
                        self.stats.bloom_skips += 1
                        continue
                    self.stats.tables_probed += 1
                    t0 = self.sim.now
                    found = yield from table.get(key)
                    ssd_us += self.sim.now - t0
                    accesses += 1
                    if found is DELETED:
                        result = OpResult(NOT_FOUND)
                        break
                    if found is not None:
                        result = OpResult(OK, value=found)
                        break
            if result is None:
                result = OpResult(NOT_FOUND)
        return self.stats.book("get", result, start, self.sim.now, ssd_us,
                               accesses)

    # -- flush & compaction --------------------------------------------------------------

    def _flush_memtable(self):
        """Generator: memtable -> new L0 run (sequential write).

        The memtable is frozen as :attr:`immutable` before the first
        yield, so writes landing mid-flush go to a fresh memtable (and
        trigger the next flush); when the region has no room for the
        run, the frozen records go back under the newer ones and the
        MemoryError propagates."""
        self._flushing = True
        try:
            records = sorted(self.memtable.items())
            self.immutable, self.memtable = self.memtable, {}
            self.immutable_bytes, self.memtable_bytes = self.memtable_bytes, 0
            yield self._cpu_event(
                MERGE_CYCLES_PER_RECORD * max(len(records), 1))
            size_estimate = sum(len(k) + (len(v) if v else 0) + 8
                                for k, v in records) * 2 \
                + self.block_size * 4
            try:
                extent = self._allocate(size_estimate)
            except MemoryError:
                self.immutable.update(self.memtable)
                self.memtable, self.immutable = self.immutable, {}
                self.memtable_bytes += self.immutable_bytes
                self.immutable_bytes = 0
                raise
            self._table_ids += 1
            table = yield from write_sstable(
                self.ssd, extent, self.block_size, records,
                table_id=self._table_ids,
                bits_per_key=self.config.bits_per_key)
            if table is not None:
                self._extent_sizes[table.table_id] = size_estimate
                self.levels[0].insert(0, table)
                self.stats.device_bytes_written += table.size_bytes
            self.immutable = {}
            self.immutable_bytes = 0
            self.stats.flushes += 1
            self._account_index()
            if len(self.levels[0]) > self.config.l0_limit:
                yield from self._compact()
        finally:
            self._flushing = False

    def _compact(self):
        """Generator: merge L0 down (cascading), unless a merge is
        already running; returns 1 when it merged."""
        if self._compacting:
            return 0
        self._compacting = True
        try:
            yield from self._compact_level(0)
        finally:
            self._compacting = False
        return 1

    def _compact_level(self, level: int):
        """Generator: merge a level's runs into the next level.  Runs
        flushed to L0 while it merges stay, ahead of the merged run."""
        if level + 1 >= len(self.levels):
            return
        sources = self.levels[level] + self.levels[level + 1]
        if not sources:
            return
        self.stats.compactions += 1
        # Read every source run (sequential reads), merge in memory.
        merged: Dict[bytes, Optional[bytes]] = {}
        total_records = 0
        # Oldest first so newer runs overwrite older entries.
        for table in reversed(sources):
            records = yield from table.scan_all()
            total_records += len(records)
            for key, value in records:
                merged[key] = value
        yield self._cpu_event(
            MERGE_CYCLES_PER_RECORD * max(total_records, 1))
        self.stats.records_merged += total_records
        is_last_level = level + 1 == len(self.levels) - 1
        output: List[Tuple[bytes, Optional[bytes]]] = []
        for key in sorted(merged):
            value = merged[key]
            if value is None and is_last_level:
                continue  # tombstones die at the bottom
            output.append((key, value))
        # Release the old extents, write the merged run.
        for table in sources:
            self._release(table.offset,
                          self._extent_sizes.get(table.table_id,
                                                 table.size_bytes))
        merged_ids = {table.table_id for table in sources}
        self.levels[level] = [table for table in self.levels[level]
                              if table.table_id not in merged_ids]
        self.levels[level + 1] = []
        if output:
            size_estimate = sum(len(k) + (len(v) if v else 0) + 8
                                for k, v in output) * 2 \
                + self.block_size * 4
            extent = self._allocate(size_estimate)
            self._table_ids += 1
            table = yield from write_sstable(
                self.ssd, extent, self.block_size, output,
                table_id=self._table_ids,
                bits_per_key=self.config.bits_per_key)
            self._extent_sizes[table.table_id] = size_estimate
            self.levels[level + 1] = [table]
            self.stats.device_bytes_written += table.size_bytes
        self._account_index()
        # Cascade when the next level exceeds its budget.
        next_size = sum(t.size_bytes for t in self.levels[level + 1])
        if next_size > self._level_budget(level + 1) and not is_last_level:
            yield from self._compact_level(level + 1)

    # -- scan and maintenance -------------------------------------------------------------

    def scan(self, predicate, visit):
        """Generator: call ``visit(key, value)`` for every live pair
        whose key passes ``predicate`` (None: every key), in key order,
        once every run is read; see :meth:`LeedDataStore.scan`."""
        view: Dict[bytes, Optional[bytes]] = {}
        for level_tables in reversed(self.levels):
            for table in reversed(level_tables):
                records = yield from table.scan_all()
                for key, value in records:
                    view[key] = value
        view.update(self.immutable)
        view.update(self.memtable)
        for key, value in sorted(view.items()):
            if value is None or (predicate is not None
                                 and not predicate(key)):
                continue
            wait = visit(key, value)
            if wait is not None:
                yield wait

    def maintenance(self):
        """Generator: compact L0 when over its run limit."""
        if len(self.levels[0]) > self.config.l0_limit:
            return (yield from self._compact())
        return 0

    def __repr__(self):
        shape = "/".join(str(len(level)) for level in self.levels)
        return "<LsmDataStore %s live=%d levels=%s>" % (
            self.name, self.live_objects, shape)
