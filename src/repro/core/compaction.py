"""Key-log and value-log compaction with the paper's optimizations (§3.3.1).

Compaction reclaims fragmented/outdated entries from the log head so
the SSD capacity is fully utilized.  It is heavyweight — it consumes
compute and I/O bandwidth and can stall PUTs on the same bucket — so
LEED adds two optimizations, both reproduced here:

* **prefetching**: while compacting entry N, the blocks of entry N+1
  are already being read, hiding SSD read latency;
* **sub-compactions**: one compaction is split into S parallel
  workers that pipeline read-verify-append over consecutive entries
  (intra-parallelism, ``CompactionConfig.subcompactions``, Fig. 13a);
  several compactions can also be co-scheduled (inter-parallelism).

One round body serves both logs (:meth:`Compactor._round`): a scanner
walks from the head with the next read prefetched, a bounded queue
feeds ``subcompactions`` long-lived workers, and the head advances
past an entry only once its relocation is done (in-order commit).  The
logs differ in two small functions each: parsing the bytes a scan read
returns into tasks, and relocating a task under its owning segment's
lock.  Key-log entries are self-describing (the first bucket header
carries the segment id and chain length), so the scanner walks the
head without any extra index and verifies as it parses: only entries
the SegTbl still points at are queued, and the worker checks again
under the segment lock.  Value-log entries carry ``owner_id`` and
``seg_id``, which also lets the compactor merge *swapped* values back
to their home SSD (§3.6).

Nothing polls.  Every store checks its maintenance condition at the
start of every write — LEED a log past ``compact_high_watermark``,
FAWN its log, the LSM an L0 over ``l0_limit`` — and calls its
``on_pressure`` hook, a :class:`Trigger`, when it holds.  The trigger
starts its host's maintenance body inside that write's dispatch, or
drops the kick when the host is already busy: the next write kicks
again.  The check runs before the write can be refused, so a full log
whose PUTs all end ``store_full`` still restarts compaction.

Which runs compact which log: Fig. 13 (``repro.bench.experiments.fig13``)
compacts only the value log; leedbench's ``ycsb_wr_compact``, Fig. 9
(node join/leave) and the sanitizer's compacting run (``python -m
repro.lint.sanitize -w WR --ops 12000``) compact only the key log; no
other figure, scenario golden or explore trial compacts either.  A
change to one log's functions moves only the runs that compact that
log.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.circular_log import CircularLog, LogFullError
from repro.core.datastore import LeedDataStore
from repro.core.segment import (
    VALUE_ENTRY_HEADER,
    KeyItem,
    Segment,
    pack_value_entry,
    peek_segment_header,
    unpack_value_entry,
)
from repro.hw.cpu import CYCLE_COSTS
from repro.sim.core import Simulator
from repro.sim.queues import Store


@dataclass
class CompactionConfig:
    """Policy knob for the compactor (the Fig. 13a ablation point)."""

    #: Number of parallel sub-compaction workers (intra-parallelism).
    subcompactions: int = 4


@dataclass
class CompactionStats:
    """Cumulative compactor statistics."""

    key_rounds: int = 0
    value_rounds: int = 0
    segments_scanned: int = 0
    segments_relocated: int = 0
    #: Scanned entries SegTbl no longer pointed at: committed by the
    #: scanner, never queued (``segments_scanned`` minus these were).
    segments_dead: int = 0
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
        #: The logs a round is running on (at most one round per log).
        self._active: Set[CircularLog] = set()

    #: A worker whose re-append finds its log full waits for another
    #: worker's commit to advance the head and retries — up to this
    #: many times, then the round is abandoned.
    APPEND_RETRIES = 20
    APPEND_BACKOFF_US = 100.0
    #: Bytes one value-log scan read covers (a key-log scan read is one
    #: block: the next entry's first, whose header gives its length).
    VALUE_SCAN_BYTES = 64 * 1024

    def compact(self, log: CircularLog, target_fill: Optional[float] = None):
        """Generator: one compaction round on ``log`` — the store's key
        log or its value log; returns the bytes reclaimed.

        Stops once the fill fraction falls below the low watermark (or
        ``target_fill``).  Key log: live segments (SegTbl points at
        them) are re-appended at the tail with tombstones dropped, dead
        entries are skipped.  Value log: live values are re-appended to
        the *owner's home* value log, which both compacts and merges
        swapped data back (§3.6), and the owning segment is rewritten.

        Fails soft: a re-append that still finds no room after
        ``APPEND_RETRIES`` back-offs (no commit freed any) abandons the
        round without advancing past the entry it was moving, counted
        in ``StoreStats.compaction_aborted``; the next write that finds
        the log past its watermark starts another.
        """
        store = self.store
        if log is not store.key_log and log is not store.value_log:
            raise ValueError("%s is not a log of %s" % (log.name, store.name))
        if log in self._active:
            return 0
        self._active.add(log)
        started = self.sim.now
        stats = self.stats
        if target_fill is None:
            target_fill = store.config.compact_low_watermark
        try:
            if log is store.key_log:
                reclaimed = yield from self._round(
                    log, log.block_size, self._key_tasks,
                    self._relocate_segment, target_fill)
                stats.key_rounds += 1
                stats.key_bytes_reclaimed += reclaimed
            else:
                reclaimed = yield from self._round(
                    log, self.VALUE_SCAN_BYTES, self._value_tasks,
                    self._relocate_values, target_fill)
                stats.value_rounds += 1
                stats.value_bytes_reclaimed += reclaimed
            return reclaimed
        finally:
            stats.busy_time_us += self.sim.now - started
            self._active.discard(log)

    def _round(self, log: CircularLog, scan_bytes: int, parse, relocate,
               target_fill: float):
        """Generator: the compaction pipeline, written once for both logs.

        A scanner reads up to ``scan_bytes`` at the scan point — the
        read already in flight when the previous one issued it there
        (prefetch) — and ``parse(offset, blob)`` turns the bytes into
        tasks and the next scan point; the key log's parse verifies,
        so a dead entry yields no task.  S workers run
        ``relocate(task)`` concurrently.  A task's first field lists
        the ``(start, end)`` log spans it covers; the head only
        advances past spans whose relocation completed (in-order
        commit).  A read that yields no task commits its span through
        the same path, so the head never passes a live entry still
        being relocated ahead of it.
        """
        sim = self.sim
        workers = max(self.config.subcompactions, 1)
        start_head = log.head
        tasks: Store = Store(sim, capacity=workers * 2)
        done: Dict[int, int] = {}  # span start -> end, not yet committed
        commit_head = [log.head]
        abandoned: List[tuple] = []  # tasks whose re-append gave up

        def advance_commit():
            while commit_head[0] in done:
                commit_head[0] = done.pop(commit_head[0])
            if commit_head[0] > log.head:
                log.advance_head(commit_head[0])

        def worker():
            while True:
                task = yield tasks.get()
                if task is None:
                    return
                if abandoned:
                    continue  # drain the queue; nothing more commits
                try:
                    yield from relocate(task)
                except LogFullError:
                    abandoned.append(task)
                    continue
                for start, end in task[0]:
                    done[start] = end
                advance_commit()

        worker_procs = [sim.process(worker(),
                                    name="%s.compact.w%d" % (log.name, i))
                        for i in range(workers)]

        scan = log.head
        end_tail = log.tail  # do not chase our own re-appended entries
        prefetched: Optional[tuple] = None  # (offset, held read event)
        while (not abandoned and log.fill_fraction() > target_fill
               and scan < end_tail):
            if prefetched is None or prefetched[0] != scan:
                blob = yield from log.read(
                    scan, min(end_tail - scan, scan_bytes))
            elif prefetched[1].processed:
                blob = prefetched[1].value
            else:
                blob = yield prefetched[1]
            found, next_scan = parse(scan, blob)
            prefetched = None
            if next_scan < end_tail:
                length = min(end_tail - next_scan, scan_bytes)
                if next_scan % log.size + length <= log.size:
                    # Only a read that does not wrap the region is
                    # held; one aligned key-log block never does.
                    prefetched = (next_scan,
                                  log.read_event(next_scan, length))
            if not found:
                done[scan] = next_scan  # nothing to move: commit as is
                advance_commit()
            for task in found:
                yield tasks.put(task)
            scan = next_scan
        for _ in worker_procs:
            yield tasks.put(None)
        yield sim.all_of(worker_procs)
        advance_commit()
        if abandoned:
            self.store.stats.compaction_aborted += 1
        return log.head - start_head

    def _retrying(self, append, *args):
        """Generator: ``append(*args)``; on LogFullError wait for another
        worker's commit to advance the head and retry.  After
        ``APPEND_RETRIES`` back-offs the LogFullError abandons the
        round (the worker catches it)."""
        for _attempt in range(self.APPEND_RETRIES):
            try:
                return (yield from append(*args))
            except LogFullError:
                yield self.sim.timeout(self.APPEND_BACKOFF_US)
        raise LogFullError("%s: compaction re-append found no room after "
                           "%d retries" % (self.store.name,
                                           self.APPEND_RETRIES))

    # ------------------------------------------------------------------ key log

    def _key_tasks(self, scan: int, first_block: bytes):
        """The entry whose first block was read at ``scan``: one task
        ``(spans, seg_id, chain_len, first_block)`` while SegTbl still
        points at it, none once a newer write moved the segment."""
        seg_id, chain_len = peek_segment_header(first_block)
        stats = self.stats
        stats.segments_scanned += 1
        end = scan + chain_len * self.store.key_log.block_size
        if self.store.segtbl.location(seg_id) != (scan, chain_len):
            stats.segments_dead += 1
            return [], end
        return [(((scan, end),), seg_id, chain_len, first_block)], end

    def _relocate_segment(self, task):
        """Generator: re-append one live key-log segment at the tail with
        its tombstones dropped, or forget it if nothing live is left."""
        ((offset, _end),), seg_id, chain_len, first_block = task
        store = self.store
        segtbl = store.segtbl
        if segtbl.location(seg_id) != (offset, chain_len):
            return  # died after its scan: a newer write moved it
        if not segtbl.try_lock(seg_id):
            yield segtbl.lock(seg_id)
        try:
            # Re-check under the lock: a PUT may have moved it.
            if segtbl.location(seg_id) != (offset, chain_len):
                return
            block = store.key_log.block_size
            blob = first_block
            if chain_len > 1:
                blob += yield from store.key_log.read(
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
                yield from self._retrying(store._write_segment, segment)
                self.stats.segments_relocated += 1
            else:
                # Fully-deleted segment: forget it.
                segtbl.update(seg_id, -1, 0)
                store._segments.pop(offset, None)
                self.stats.segments_dropped += 1
        finally:
            segtbl.unlock(seg_id)

    # ------------------------------------------------------------------ value log

    def _value_tasks(self, scan: int, blob: bytes):
        """The value entries read at ``scan``: one task
        ``(spans, owner, seg_id, entries)`` per ``(owner, seg_id)``
        group, so a segment is rewritten once per group.  Nothing
        parseable (zero padding at a wrap, or a torn read) steps over
        one block defensively."""
        header_size = VALUE_ENTRY_HEADER.size
        groups: Dict[tuple, List[tuple]] = {}
        cursor = 0
        while cursor + header_size <= len(blob):
            try:
                seg_id, key, value, size, owner = unpack_value_entry(
                    blob, cursor)
            except struct.error:
                break
            if size <= header_size or cursor + size > len(blob):
                break
            self.stats.values_scanned += 1
            groups.setdefault((owner, seg_id), []).append(
                (scan + cursor, size, key, value))
            cursor += size
        if not cursor:
            return [], scan + min(self.store.value_log.block_size, len(blob))
        return [(tuple((offset, offset + size)
                       for offset, size, _key, _value in entries),
                 owner, seg_id, entries)
                for (owner, seg_id), entries in groups.items()], scan + cursor

    def _relocate_values(self, task):
        """Generator: re-append one group's live values to the owner's
        HOME value log — relocation and swap merge-back at once — and
        rewrite the owning segment with the items repointed."""
        _spans, owner, seg_id, entries = task
        store = self.store
        owner_store = store.peer_stores.get(owner)
        if owner_store is None:
            return  # owner store was removed; entries are dead
        segtbl = owner_store.segtbl
        if segtbl.location(seg_id) is None:
            return
        # Through the lock event even when the bit is free: a PUT the
        # previous group's unlock just woke submits its device accesses
        # before this worker's next read.
        yield segtbl.lock(seg_id)
        try:
            location = segtbl.location(seg_id)
            if location is None:
                return
            segment = (yield from owner_store._read_segment(
                *location)).clone()
            home_log = owner_store.value_log
            dirty = False
            for offset, _size, key, value in entries:
                item = segment.find(key)
                if (item is None or item.is_tombstone
                        or item.voffset != offset
                        or item.ssd_id != store.store_id):
                    continue
                new_offset = yield from self._retrying(
                    home_log.append_bytes,
                    pack_value_entry(seg_id, key, value, owner_id=owner))
                if item.ssd_id != owner_store.store_id:
                    self.stats.values_merged_home += 1
                segment.replace(item, KeyItem(
                    item.key, item.vlen, new_offset,
                    owner_store.store_id, item.khash))
                dirty = True
                self.stats.values_relocated += 1
                yield store._cpu_event(CYCLE_COSTS["compaction_per_entry"])
            if dirty:
                yield from self._retrying(owner_store._write_segment, segment)
        finally:
            segtbl.unlock(seg_id)

    # ------------------------------------------------------------------ driver

    def maintenance(self):
        """Generator: run whatever compactions the watermarks demand."""
        store = self.store
        ran = 0
        for log in (store.key_log, store.value_log):
            if store.needs_compaction(log):
                ran += yield from self.compact(log)
        return ran


class Trigger:
    """The ``on_pressure`` hook of one host's stores: a kick from
    ``store`` runs ``body(store)`` — the host's maintenance pass — as a
    process started inside the kicking write's dispatch.

    At most ``limit`` bodies run at once, and at most one per kicking
    store; a kick beyond that is dropped, since the next write kicks
    again.
    """

    def __init__(self, sim: Simulator, body, limit: int = 1,
                 name: str = "maintenance"):
        self.sim = sim
        self.body = body
        self.limit = limit
        self.name = name
        #: The stores whose kick started a body that is still running.
        self.running: Set[object] = set()

    def __call__(self, store) -> None:
        running = self.running
        if len(running) < self.limit and store not in running:
            running.add(store)
            self.sim.process_inline(self._run(store), name=self.name)

    def _run(self, store):
        try:
            yield from self.body(store)
        finally:
            self.running.discard(store)
