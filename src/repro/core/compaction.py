"""Key-log and value-log compaction with the paper's optimizations (§3.3.1).

Compaction reclaims fragmented/outdated entries from the log head so
the SSD capacity is fully utilized.  It is heavyweight — it consumes
compute and I/O bandwidth and can stall PUTs on the same bucket — so
LEED adds two optimizations, both reproduced here behind flags so
Fig. 13 can ablate them:

* **prefetching**: while compacting entry N, the blocks of entry N+1
  are already being read, hiding SSD read latency;
* **sub-compactions**: one compaction is split into S parallel
  workers that pipeline read-verify-append over consecutive entries
  (intra-parallelism); several compactions can also be co-scheduled
  (inter-parallelism).

Key-log entries are self-describing (the first bucket header carries
the segment id and chain length), so the scanner walks the head
without any extra index.  Value-log entries carry ``owner_id`` and
``seg_id``, which also lets the compactor merge *swapped* values back
to their home SSD (§3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.circular_log import LogFullError
from repro.core.datastore import LeedDataStore
from repro.core.segment import (
    KeyItem,
    Segment,
    pack_value_entry,
    peek_segment_header,
    unpack_value_entry,
    value_entry_size,
)
from repro.hw.cpu import CYCLE_COSTS
from repro.sim.core import Simulator
from repro.sim.queues import Store


@dataclass
class CompactionConfig:
    """Policy knobs for the compactor (Fig. 13 ablation points)."""

    #: Prefetch the next entry's blocks while processing the current one.
    prefetch: bool = True
    #: Number of parallel sub-compaction workers (intra-parallelism).
    subcompactions: int = 4


@dataclass
class CompactionStats:
    """Cumulative compactor statistics."""

    key_rounds: int = 0
    value_rounds: int = 0
    segments_scanned: int = 0
    segments_relocated: int = 0
    segments_dropped: int = 0
    values_scanned: int = 0
    values_relocated: int = 0
    values_merged_home: int = 0
    tombstones_dropped: int = 0
    key_bytes_reclaimed: int = 0
    value_bytes_reclaimed: int = 0
    busy_time_us: float = 0.0


class Compactor:
    """Runs key-log and value-log compaction for one store."""

    def __init__(self, store: LeedDataStore,
                 config: Optional[CompactionConfig] = None):
        self.store = store
        self.sim: Simulator = store.sim
        self.config = config or CompactionConfig()
        self.stats = CompactionStats()
        self._key_round_active = False
        self._value_round_active = False

    #: A key-log worker whose re-append finds the log full waits for
    #: another worker's commit to advance the head and retries — up to
    #: this many times, then the round is abandoned.
    KEY_APPEND_RETRIES = 20
    KEY_APPEND_BACKOFF_US = 100.0
    #: Value entries examined per scan chunk (one relocation wave; more
    #: entries expose more work to the parallel sub-compaction workers).
    VALUE_SCAN_CHUNK = 64

    # ------------------------------------------------------------------ key log

    def compact_key_log(self, target_fill: Optional[float] = None):
        """Generator: one key-log compaction round.

        Walks entries from the head; live segments (SegTbl points at
        them) are re-appended at the tail with tombstones dropped;
        dead entries are skipped.  Stops once the fill fraction falls
        below the low watermark (or ``target_fill``).

        Fails soft like the value-log round: when a re-append finds no
        room and no commit frees any (a full log whose head entry is
        the live segment being moved), the round is abandoned without
        advancing past that segment, counted in
        ``StoreStats.compaction_aborted``, and the next maintenance
        poll retries.
        """
        if self._key_round_active:
            return 0
        self._key_round_active = True
        started = self.sim.now
        try:
            reclaimed = yield from self._key_round(
                self.store.config.compact_low_watermark
                if target_fill is None else target_fill)
            self.stats.key_rounds += 1
            self.stats.key_bytes_reclaimed += reclaimed
            return reclaimed
        finally:
            self.stats.busy_time_us += self.sim.now - started
            self._key_round_active = False

    def _key_round(self, target_fill: float):
        store = self.store
        log = store.key_log
        block = log.block_size
        workers = max(self.config.subcompactions, 1)
        start_head = log.head

        # Pipeline: a scanner discovers entry boundaries (they are
        # self-describing, so discovery is serial) and S workers
        # relocate live segments concurrently.  The head only advances
        # past entries whose relocation completed (in-order commit).
        tasks: Store = Store(self.sim, capacity=workers * 2)
        done_offsets: Dict[int, int] = {}  # entry offset -> entry end
        commit_head = [log.head]
        abandoned: List[int] = []  # offsets whose re-append gave up

        def advance_commit():
            while done_offsets and commit_head[0] in done_offsets:
                end = done_offsets.pop(commit_head[0])
                commit_head[0] = end
            if commit_head[0] > log.head:
                log.advance_head(commit_head[0])

        def worker():
            while True:
                task = yield tasks.get()
                if task is None:
                    return
                if abandoned:
                    continue  # drain the queue; nothing more commits
                offset, seg_id, chain_len, first_block = task
                end = offset + chain_len * block
                live = store.segtbl.location(seg_id) == (offset, chain_len)
                if live:
                    if not store.segtbl.try_lock(seg_id):
                        yield store.segtbl.lock(seg_id)
                    try:
                        # Re-check under the lock: a PUT may have moved it.
                        if store.segtbl.location(seg_id) == (offset, chain_len):
                            blob = first_block
                            if chain_len > 1:
                                blob += yield from log.read(
                                    offset + block, (chain_len - 1) * block)
                            segment = store._segments.get(offset)
                            segment = (Segment.unpack(blob, block)
                                       if segment is None else segment.clone())
                            yield store._cpu_event(
                                CYCLE_COSTS["compaction_per_entry"]
                                * max(sum(len(bucket.items)
                                          for bucket in segment.buckets), 1))
                            self.stats.tombstones_dropped += segment.drop_tombstones()
                            if segment.live_items():
                                for _attempt in range(self.KEY_APPEND_RETRIES):
                                    try:
                                        yield from store._write_segment(
                                            segment)
                                        break
                                    except LogFullError:
                                        # Absolute worst case: wait for
                                        # another worker's commit to
                                        # advance the head.
                                        yield self.sim.timeout(
                                            self.KEY_APPEND_BACKOFF_US)
                                else:
                                    abandoned.append(offset)
                                    continue
                                self.stats.segments_relocated += 1
                            else:
                                # Fully-deleted segment: forget it.
                                store.segtbl.update(seg_id, -1, 0)
                                store._segments.pop(offset, None)
                                self.stats.segments_dropped += 1
                    finally:
                        store.segtbl.unlock(seg_id)
                done_offsets[offset] = end
                advance_commit()

        worker_procs = [self.sim.process(worker(),
                                         name=store.name + ".kcompact.w%d" % i)
                        for i in range(workers)]

        scan = log.head
        end_tail = log.tail  # do not chase our own re-appended entries
        prefetched: Optional[tuple] = None  # (offset, held read event)
        while (not abandoned and log.fill_fraction() > target_fill
               and scan < end_tail):
            # First block of the entry at ``scan`` — possibly prefetched.
            if prefetched is None or prefetched[0] != scan:
                first_block = yield from log.read(scan, block)
            elif prefetched[1].processed:
                first_block = prefetched[1].value
            else:
                first_block = yield prefetched[1]
            seg_id, chain_len = peek_segment_header(first_block)
            self.stats.segments_scanned += 1
            entry_end = scan + chain_len * block
            if self.config.prefetch and entry_end < end_tail:
                # One aligned block never wraps the region.
                prefetched = (entry_end, log.read_event(entry_end, block))
            else:
                prefetched = None
            yield tasks.put((scan, seg_id, chain_len, first_block))
            scan = entry_end
        for _ in worker_procs:
            yield tasks.put(None)
        yield self.sim.all_of(worker_procs)
        advance_commit()
        if abandoned:
            store.stats.compaction_aborted += 1
        return log.head - start_head

    # ------------------------------------------------------------------ value log

    def compact_value_log(self, target_fill: Optional[float] = None):
        """Generator: one value-log compaction round.

        For each entry at the head: resolve the owning store via the
        ``owner_id`` tag, verify liveness against its segment, and
        re-append live values — to the *owner's home* value log, which
        both compacts and merges swapped data back (§3.6).  The owning
        segments are locked while their items are repointed.
        """
        if self._value_round_active:
            return 0
        self._value_round_active = True
        started = self.sim.now
        try:
            reclaimed = yield from self._value_round(
                self.store.config.compact_low_watermark
                if target_fill is None else target_fill)
            self.stats.value_rounds += 1
            self.stats.value_bytes_reclaimed += reclaimed
            return reclaimed
        except LogFullError:
            # An owner's key log had no room for a repointed segment.
            # Fail soft: everything committed so far stays (the head
            # only ever advanced past fully relocated batches) and the
            # next maintenance poll retries once the key log has room.
            self.store.stats.compaction_aborted += 1
            return 0
        finally:
            self.stats.busy_time_us += self.sim.now - started
            self._value_round_active = False

    def _value_round(self, target_fill: float):
        store = self.store
        log = store.value_log
        start_head = log.head
        header_size = value_entry_size(0, 0)

        scan = log.head
        end_tail = log.tail  # do not chase our own re-appended entries
        while log.fill_fraction() > target_fill and scan < end_tail:
            # Read a chunk of entries (one device read amortized over
            # VALUE_SCAN_CHUNK entries on average).
            chunk_len = min(end_tail - scan, 64 * 1024)
            blob = yield from log.read(scan, chunk_len)
            cursor = 0
            batch: List[tuple] = []
            while cursor + header_size <= len(blob) and len(batch) < \
                    self.VALUE_SCAN_CHUNK:
                try:
                    seg_id, key, value, size, owner = unpack_value_entry(
                        blob, cursor)
                except Exception:
                    break
                if size <= header_size or cursor + size > len(blob):
                    break
                batch.append((scan + cursor, seg_id, key, value, size, owner))
                cursor += size
            if not batch:
                # Nothing parseable (zero padding at a wrap, or a torn
                # chunk): step over one block defensively.
                scan = min(scan + log.block_size, log.tail)
                if scan > log.head:
                    log.advance_head(scan)
                continue

            yield from self._relocate_value_batch(batch)
            scan += cursor
            log.advance_head(min(scan, log.tail))
        return log.head - start_head

    def _relocate_value_batch(self, batch: List[tuple]):
        """Generator: verify & relocate one batch of value entries.

        Groups are split across ``subcompactions`` parallel workers —
        the intra-parallelism of §3.3.1/Fig. 13a applied to the value
        log.  Each group locks its owning segment, so workers never
        race on segment state.
        """
        store = self.store
        groups: Dict[tuple, List[tuple]] = {}
        for entry in batch:
            offset, seg_id, key, value, size, owner = entry
            self.stats.values_scanned += 1
            groups.setdefault((owner, seg_id), []).append(entry)
        group_items = list(groups.items())
        workers = max(min(self.config.subcompactions, len(group_items)), 1)
        if workers == 1:
            yield from self._relocate_groups(group_items)
            return
        shares = [group_items[i::workers] for i in range(workers)]
        processes = [
            self.sim.process(self._guarded(self._relocate_groups(share)),
                             name=store.name + ".vcompact.w")
            for share in shares if share]
        # Let every worker finish (none may still hold a segment lock
        # or be mid-append when the round is abandoned), then surface
        # the first failure.
        yield self.sim.all_of(processes)
        for process in processes:
            if process.value is not None:
                raise process.value

    @staticmethod
    def _guarded(generator):
        """Generator: run ``generator``; return its LogFullError, if any."""
        try:
            yield from generator
        except LogFullError as exc:
            return exc
        return None

    def _relocate_groups(self, group_items):

        """Generator: process (owner, seg_id) groups sequentially."""
        store = self.store
        for (owner, seg_id), entries in group_items:
            owner_store = store.peer_stores.get(owner)
            if owner_store is None:
                continue  # owner store was removed; entries are dead
            location = owner_store.segtbl.location(seg_id)
            if location is None:
                continue
            # Through the lock event even when the bit is free: a PUT
            # the previous group's unlock just woke submits its device
            # accesses before this loop's next read.
            yield owner_store.segtbl.lock(seg_id)
            try:
                location = owner_store.segtbl.location(seg_id)
                if location is None:
                    continue
                segment = (yield from owner_store._read_segment(
                    *location)).clone()
                dirty = False
                for offset, _seg_id, key, value, size, _owner in entries:
                    item = segment.find(key)
                    live = (item is not None and not item.is_tombstone
                            and item.voffset == offset
                            and item.ssd_id == store.store_id)
                    if not live:
                        continue
                    # Re-append to the owner's HOME value log: this is
                    # both relocation and swap merge-back.
                    home_log = owner_store.value_log
                    new_entry = pack_value_entry(seg_id, key, value,
                                                 owner_id=owner)
                    new_offset = yield from home_log.append_bytes(new_entry)
                    if item.ssd_id != owner_store.store_id:
                        self.stats.values_merged_home += 1
                    segment.replace(item, KeyItem(
                        item.key, item.vlen, new_offset,
                        owner_store.store_id, item.khash))
                    dirty = True
                    self.stats.values_relocated += 1
                    yield store._cpu_event(
                        CYCLE_COSTS["compaction_per_entry"])
                if dirty:
                    yield from owner_store._write_segment(segment)
            finally:
                owner_store.segtbl.unlock(seg_id)

    # ------------------------------------------------------------------ driver

    def maintenance(self):
        """Generator: run whatever compactions the watermarks demand."""
        ran = 0
        if self.store.needs_key_compaction() and not self._key_round_active:
            ran += yield from self.compact_key_log()
        if self.store.needs_value_compaction() and not self._value_round_active:
            ran += yield from self.compact_value_log()
        return ran

    def maintenance_loop(self, poll_us: float = 200.0):
        """Generator: background maintenance process for one store."""
        while True:
            yield self.sim.timeout(poll_us)
            yield from self.maintenance()
