"""Key-log and value-log compaction with the paper's optimizations (§3.3.1).

Compaction reclaims fragmented/outdated entries from the log head so
the SSD capacity is fully utilized.  It is heavyweight — it consumes
compute and I/O bandwidth and can stall PUTs on the same bucket — so
LEED adds two optimizations, both reproduced here:

* **prefetching**: the next scan read is in flight while the entries
  of the current one are verified and queued.  The paper reads entry
  by entry; here a read covers ``SCAN_BYTES`` (DESIGN.md says why);
* **sub-compactions**: one compaction is split into S parallel
  workers that pipeline read-verify-append over consecutive entries
  (intra-parallelism, ``CompactionConfig.subcompactions``, Fig. 13a);
  several compactions can also be co-scheduled (inter-parallelism).

One round body serves both logs (:meth:`Compactor._round`): a scanner
walks from the head in ``SCAN_BYTES`` reads with the next one
prefetched, a bounded queue feeds ``subcompactions`` long-lived
workers, and the head advances past an entry only once its relocation
is done (in-order commit).  The logs differ in two small functions
each: parsing the bytes a scan read returns into tasks, and relocating
a task under its owning segment's lock.  Key-log entries are
self-describing (the first bucket header carries the segment id and
chain length), so the scanner walks the head without any extra index
and verifies as it parses: an entry the SegTbl no longer points at is
committed by the scanner, a live one is queued with its bytes, and the
worker checks again under the segment lock.  Value-log entries carry
``owner_id`` and ``seg_id``, which also lets the compactor merge
*swapped* values back to their home SSD (§3.6).

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
other figure or scenario golden compacts either.  A change to one
log's functions moves only the runs that compact that log.
"""

from __future__ import annotations

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
    #: ``segments_dead / segments_scanned`` is the dead ratio.
    segments_dead: int = 0
    segments_dropped: int = 0
    #: Device reads the scanner issued, on both logs.
    scan_reads: int = 0
    #: Bytes re-appended by relocation: key-log segments and value-log
    #: entries (not the segments a value relocation rewrites).
    bytes_relocated: int = 0
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
    #: Bytes one scan read covers, on either log.
    SCAN_BYTES = 64 * 1024

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
                # The first read is one block: a dead head entry shows
                # in its header, and its commit frees room before the
                # reserve check of the write that kicked the round.
                reclaimed = yield from self._round(
                    log, log.block_size, self._key_tasks,
                    self._relocate_segment, target_fill)
                stats.key_rounds += 1
                stats.key_bytes_reclaimed += reclaimed
            else:
                reclaimed = yield from self._round(
                    log, self.SCAN_BYTES, self._value_tasks,
                    self._relocate_values, target_fill)
                stats.value_rounds += 1
                stats.value_bytes_reclaimed += reclaimed
            return reclaimed
        finally:
            stats.busy_time_us += self.sim.now - started
            self._active.discard(log)

    def _round(self, log: CircularLog, first_read: int, parse, relocate,
               target_fill: float):
        """Generator: the compaction pipeline, written once for both logs.

        A scanner reads ``SCAN_BYTES`` (the round's first read:
        ``first_read``) at the scan point — the read already in flight
        when the previous one issued it there (prefetch) — and
        ``parse(offset, blob)`` turns the bytes into tasks, the spans
        of dead entries, and the next scan point: at the first entry
        the read does not hold whole, which the next read covers (twice
        as long when it alone did not fit).  S workers run
        ``relocate(task)`` concurrently.  A task's first field lists
        the ``(start, end)`` log spans it covers; the head only
        advances past spans whose relocation completed (in-order
        commit).  Dead spans commit through the same path once parsed,
        so the head never passes a live entry still being relocated
        ahead of it.
        """
        sim = self.sim
        stats = self.stats
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
        length = first_read
        prefetched: Optional[tuple] = None  # (offset, held read event)
        while (not abandoned and log.fill_fraction() > target_fill
               and scan < end_tail):
            if prefetched is None or prefetched[0] != scan:
                stats.scan_reads += 1
                blob = yield from log.read(scan, min(end_tail - scan, length))
            elif prefetched[1].processed:
                blob = prefetched[1].value
            else:
                blob = yield prefetched[1]
            found, dead, next_scan = parse(scan, blob)
            length = (self.SCAN_BYTES if next_scan > scan
                      else max(self.SCAN_BYTES, 2 * len(blob)))
            prefetched = None
            if next_scan < end_tail:
                read = min(end_tail - next_scan, length)
                if next_scan % log.size + read <= log.size:
                    # Only a read that does not wrap the region is held.
                    stats.scan_reads += 1
                    prefetched = (next_scan, log.read_event(next_scan, read))
            for start, end in dead:
                done[start] = end  # nothing to move: commit as is
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

    def _key_tasks(self, scan: int, blob: bytes):
        """The key-log entries read at ``scan``: one task ``(spans,
        seg_id, chain_len, bytes)`` per whole entry SegTbl still points
        at, and the spans of those it no longer points at — dead, which
        only takes the header, so one may run past the read.  Stops at
        a live entry the read does not hold whole."""
        store = self.store
        location = store.segtbl.location
        block = store.key_log.block_size
        stats = self.stats
        view = memoryview(blob)
        found: List[tuple] = []
        dead: List[tuple] = []
        cursor = 0
        while cursor < len(blob):
            seg_id, chain_len = peek_segment_header(view[cursor:])
            offset = scan + cursor
            end = cursor + chain_len * block
            if location(seg_id) == (offset, chain_len):
                if end > len(blob):
                    break  # the next read starts here
                found.append((((offset, scan + end),), seg_id, chain_len,
                              blob[cursor:end]))
            else:
                stats.segments_dead += 1
                if dead and dead[-1][1] == offset:
                    offset = dead.pop()[0]  # one span per run of dead
                dead.append((offset, scan + end))
            stats.segments_scanned += 1
            cursor = end
        return found, dead, scan + cursor

    def _relocate_segment(self, task):
        """Generator: re-append one live key-log segment at the tail with
        its tombstones dropped, or forget it if nothing live is left."""
        ((offset, _end),), seg_id, chain_len, blob = task
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
            segment = store._segments.get(offset)
            segment = (Segment.unpack(blob, block)
                       if segment is None else segment.clone())
            yield store._cpu_event(
                CYCLE_COSTS["compaction_per_entry"]
                * max(sum(len(bucket.items)
                          for bucket in segment.buckets), 1))
            self.stats.tombstones_dropped += segment.drop_tombstones()
            if segment.live_items():
                _offset, new_chain = yield from self._retrying(
                    store._write_segment, segment)
                self.stats.segments_relocated += 1
                self.stats.bytes_relocated += new_chain * block
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
        group, so a segment is rewritten once per group; none are dead
        here.  Stops at an entry the read does not hold whole.  When no
        entry starts at ``scan`` (zero padding at a wrap, or a torn
        read) it steps over one block, as dead."""
        header_size = VALUE_ENTRY_HEADER.size
        tail = self.store.value_log.tail
        groups: Dict[tuple, List[tuple]] = {}
        cursor = 0
        runs_past = False
        while cursor + header_size <= len(blob):
            seg_id, key, value, size, owner = unpack_value_entry(
                blob, cursor)
            if size <= header_size or scan + cursor + size > tail:
                break
            if cursor + size > len(blob):
                runs_past = True
                break
            self.stats.values_scanned += 1
            groups.setdefault((owner, seg_id), []).append(
                (scan + cursor, size, key, value))
            cursor += size
        if not cursor and not runs_past:
            step = scan + min(self.store.value_log.block_size, len(blob))
            return [], [(scan, step)], step
        return [(tuple((offset, offset + size)
                       for offset, size, _key, _value in entries),
                 owner, seg_id, entries)
                for (owner, seg_id), entries in groups.items()], [], scan + cursor

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
            for offset, size, key, value in entries:
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
                    owner_store.store_id, item.khash, value))
                dirty = True
                self.stats.values_relocated += 1
                self.stats.bytes_relocated += size
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
