"""The LEED per-partition data store (§3.2, §3.3).

One store owns a key range on one SSD partition: a circular key log
(segments serialized as bucket arrays), a circular value log, and the
in-DRAM SegTbl.  Commands follow the paper's NVMe access counts —
GET/PUT/DEL issue 2/3/2 device accesses — and PUT overlaps the
key-segment read with the value-log write so the extra access adds
only ~10 µs of latency (Fig. 11).

The store's design trades I/O bandwidth for DRAM (principle P1): the
only per-object memory cost is amortized across a whole segment.

This module also holds the contract every store keeps — LEED's and
the baselines' (FAWN, KVell, the LSM) alike: each command returns an
:class:`OpResult` booked by :meth:`OpStats.book`, CPU work is charged
through :func:`cpu_charge`, and ``scan(predicate, visit)`` hands every
live pair to ``visit(key, value)`` inside the dispatch of its read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.circular_log import CircularLog, LogFullError, LogRangeError
from repro.core.segment import (
    KeyItem,
    Segment,
    SegmentFullError,
    TOMBSTONE_VLEN,
    key_hash,
    pack_value_entry,
    unpack_value_entry,
    value_entry_size,
)
from repro.core.segtbl import SegTbl
from repro.hw.cpu import CYCLE_COSTS, Core
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator
from repro.sim.record import Record

#: Core cycles of the GET pipeline's two compute stages, and of the
#: write's key-item update.
_HASH_LOOKUP_CYCLES = CYCLE_COSTS["hash_lookup"]
_BUCKET_SCAN_CYCLES = CYCLE_COSTS["bucket_scan_per_key"]
_BUCKET_UPDATE_CYCLES = CYCLE_COSTS["bucket_update"]

#: Result statuses.
OK = "ok"
NOT_FOUND = "not_found"
STORE_FULL = "store_full"


class OpResult(Record):
    """Outcome and latency breakdown of one data-store command."""

    __slots__ = _FIELDS = ("status", "value", "total_us", "ssd_us", "cpu_us",
                           "nvme_accesses")

    def __init__(self, status: str, value: Optional[bytes] = None,
                 total_us: float = 0.0, ssd_us: float = 0.0,
                 cpu_us: float = 0.0, nvme_accesses: int = 0):
        self.status = status
        self.value = value
        self.total_us = total_us
        self.ssd_us = ssd_us
        self.cpu_us = cpu_us
        self.nvme_accesses = nvme_accesses

    @property
    def ok(self) -> bool:
        return self.status == OK


@dataclass
class StoreConfig:
    """Geometry and policy knobs for one store partition."""

    #: Segments in the key space of this (virtual) node.
    num_segments: int = 1024
    #: Key-log region size in bytes (block multiple).
    key_log_bytes: int = 4 << 20
    #: Value-log region size in bytes (block multiple).
    value_log_bytes: int = 28 << 20
    #: Fill fraction that triggers compaction.
    compact_high_watermark: float = 0.80
    #: Fill fraction compaction tries to reach before stopping.
    compact_low_watermark: float = 0.60

    def total_bytes(self) -> int:
        """Combined on-SSD footprint of one partition's two logs."""
        return self.key_log_bytes + self.value_log_bytes


def cpu_charge(sim: Simulator, core: Optional[Core]):
    """The CPU charge of a store on ``core``: a function from
    ``cycles`` to the event that fires when that work ends — a slice
    of the bound core (:meth:`Core.execute_event`), or a plain 3 GHz
    delay when there is none.  Stores take it when they are built (a
    core bound later is not charged) and keep it as ``_cpu_event``."""
    if core is not None:
        return core.execute_event
    return lambda cycles: sim.timeout(cycles / 3.0e3)


@dataclass
class OpStats:
    """The counters every store keeps: commands by kind, GET outcomes,
    and the time its commands spent on the device, on the CPU and in
    total per kind."""

    gets: int = 0
    puts: int = 0
    dels: int = 0
    hits: int = 0
    misses: int = 0
    ssd_time_us: float = 0.0
    cpu_time_us: float = 0.0
    op_latency_us: Dict[str, float] = field(default_factory=lambda: {
        "get": 0.0, "put": 0.0, "del": 0.0})

    def book(self, op: str, result: OpResult, start: float, end: float,
             ssd_us: float, accesses: int) -> OpResult:
        """Finish one ``op`` ("get", "put" or "del") that ran from
        ``start`` to ``end`` with ``ssd_us`` of it on the device and
        ``accesses`` NVMe accesses: fill ``result``'s breakdown (the
        rest of the time is CPU) and add it to the totals; a GET also
        counts as a hit or a miss.  Refused commands are booked too.
        Returns ``result``."""
        result.total_us = total_us = end - start
        result.ssd_us = ssd_us
        result.cpu_us = cpu_us = total_us - ssd_us
        result.nvme_accesses = accesses
        self.ssd_time_us += ssd_us
        self.cpu_time_us += cpu_us
        self.op_latency_us[op] += total_us
        if op == "get":
            if result.status == OK:
                self.hits += 1
            else:
                self.misses += 1
        return result


@dataclass
class StoreStats(OpStats):
    """Cumulative per-store statistics."""

    get_retries: int = 0
    key_log_garbage_bytes: int = 0
    value_garbage_bytes: int = 0
    #: Compaction rounds abandoned because a re-append found its log
    #: full; the next write that finds the log past its watermark
    #: starts another.
    compaction_aborted: int = 0


#: Signature for swap-aware value placement: (store, key, value) ->
#: (ssd_id, value_log).  The default places values on the home SSD.
ValueRouter = Callable[["LeedDataStore", bytes, bytes], tuple]


class LeedDataStore:
    """One LEED partition: key log + value log + SegTbl."""

    def __init__(self, sim: Simulator, ssd: NVMeSSD, config: StoreConfig,
                 region_offset: int = 0, dram: Optional[Dram] = None,
                 core: Optional[Core] = None, name: str = "store",
                 store_id: int = 0):
        self.sim = sim
        self.ssd = ssd
        self.config = config
        self.name = name
        #: Identity of this store among co-located stores on one JBOF.
        #: Written into key items (the paper's per-entry SSD identifier,
        #: §3.6 — one partition per SSD on the Stingray, so store id and
        #: SSD id coincide there) and into value entries as the owner
        #: tag used by swap merge-back.
        self.store_id = store_id
        self.core = core
        self._cpu_event = cpu_charge(sim, core)
        block = ssd.block_size
        if config.key_log_bytes % block or config.value_log_bytes % block:
            raise ValueError("log sizes must be multiples of the %dB block"
                             % block)
        self.key_log = CircularLog(ssd, region_offset, config.key_log_bytes,
                                   name=name + ".klog")
        self.value_log = CircularLog(ssd, region_offset + config.key_log_bytes,
                                     config.value_log_bytes,
                                     name=name + ".vlog")
        for log in (self.key_log, self.value_log):
            log.compaction_reserve = self._log_reserve_bytes(log)
        self.segtbl = SegTbl(sim, config.num_segments, dram=dram,
                             name=name + ".segtbl")
        self.stats = StoreStats()
        #: Pluggable value placement (replaced by the swap mechanism).
        self.value_router: ValueRouter = self._home_value_router
        #: Peer stores on co-located SSDs, keyed by ssd_id — lets GETs
        #: follow a swapped value's ssd_id to the right device (§3.6).
        self.peer_value_logs: Dict[int, CircularLog] = {store_id: self.value_log}
        #: Co-located stores by store_id (self included) — the value-log
        #: compactor resolves swapped entries' owners through this map.
        self.peer_stores: Dict[int, "LeedDataStore"] = {store_id: self}
        #: Live object count (for occupancy reporting).
        self.live_objects = 0
        #: Called with this store by a write that finds a log it may
        #: append to past the high watermark (a compaction
        #: :class:`~repro.core.compaction.Trigger`); None: nobody
        #: compacts this store.
        self.on_pressure: Optional[Callable[["LeedDataStore"], None]] = None
        #: The decoded form of every live key-log entry, by virtual
        #: offset: the segment ``_write_segment`` packed (or
        #: ``recover_store`` decoded), equal to ``Segment.unpack`` of
        #: the bytes there.  An entry leaves when the SegTbl stops
        #: pointing at it, so it is inside the log window and its bytes
        #: are intact.  Readers still issue and are charged every
        #: device read; only the copy out and the decode are skipped.
        #: Entries are shared and never changed: a writer changes a
        #: ``clone()``.  A key item a write made holds its value
        #: (``KeyItem.value``), so a value read inside the value log's
        #: window copies nothing either.
        self._segments: Dict[int, Segment] = {}

    #: Max overflow buckets per segment (the paper's M).
    MAX_CHAIN = 4
    #: Retries for optimistic reads racing compaction.
    MAX_GET_RETRIES = 4
    #: Fraction of each log kept free for compaction relocations:
    #: client writes fail with STORE_FULL before eating the headroom
    #: the compactor needs to make progress (no reclaim deadlock).
    COMPACTION_RESERVE_FRACTION = 0.06

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _home_value_router(store: "LeedDataStore", key: bytes,
                           value: bytes) -> tuple:
        return store.store_id, store.value_log

    def _value_log_for(self, holder_store_id: int) -> CircularLog:
        return self.peer_value_logs[holder_store_id]

    def _read_segment(self, offset: int, chain_len: int, trace=None):
        """Generator: read a segment from the key log; returns its
        decoded form, shared with the memo when the entry is live (a
        caller that changes it changes a ``clone()``).  The bytes are
        fetched and decoded only when the memo misses at completion."""
        key_log = self.key_log
        nbytes = chain_len * key_log.block_size
        head = yield key_log.charge_read(offset, nbytes, trace)
        segment = self._segments.get(offset)
        if segment is None:
            segment = Segment.unpack(key_log.fetch(offset, nbytes, head),
                                     key_log.block_size)
        return segment

    def _log_reserve_bytes(self, log: CircularLog) -> int:
        """Headroom kept free for the compactor on ``log`` (computed
        once, into ``log.compaction_reserve``).

        At least a couple of max-length segments so relocation can
        always land, but never so much that it sits below the
        compaction watermark (which would deadlock tiny test logs).
        """
        floor = 2 * self.MAX_CHAIN * log.block_size
        fraction = int(log.size * self.COMPACTION_RESERVE_FRACTION)
        return min(max(fraction, floor), log.size // 4)

    def _write_segment(self, segment: Segment, enforce_reserve: bool = False,
                       trace=None):
        """Generator: append a segment and repoint the SegTbl.

        Returns the new (offset, chain_len).  The old location becomes
        key-log garbage; ``segment`` becomes the memo's entry at the new
        one (it *is* the decode of the bytes written), so the caller
        must not change it afterwards.  With ``enforce_reserve`` the
        append fails once it would eat into the compactor's headroom
        (client writes set this; compaction itself does not).
        """
        key_log = self.key_log
        block = key_log.block_size
        old = self.segtbl.location(segment.seg_id)
        blob = segment.pack_used(block, head=key_log.head % (1 << 32),
                                 tail=key_log.tail % (1 << 32))
        chain_len = len(segment.buckets)
        if enforce_reserve and (
                key_log.size - (key_log.tail - key_log.head)
                - chain_len * block
                < key_log.compaction_reserve):   # ``free_bytes``
            raise LogFullError("%s: write would eat compaction reserve"
                               % key_log.name)
        offset = yield from key_log.append_blocks(blob, trace=trace)
        self.segtbl.update(segment.seg_id, offset, chain_len)
        self._segments[offset] = segment
        if old is not None:
            self._segments.pop(old[0], None)
            self.stats.key_log_garbage_bytes += old[1] * block
        return offset, chain_len

    # -- commands ---------------------------------------------------------------------

    def get(self, key: bytes, trace=None):
        """Generator: GET — SegTbl lookup, segment read, value read,
        stage by stage on the reference clock.  ``trace`` (a
        :class:`repro.obs.spans.TraceContext`) attributes the device
        accesses to the request's trace.
        """
        result, _done = yield from self._get_stages(key, trace, False)
        return result

    def get_at(self, key: bytes):
        """Analytic GET (the fused GET of ``PartitionIOEngine.submit``):
        returns ``(OpResult, done_us)``.

        Runs the pipeline to completion without yielding — the caller
        schedules a completion callback for ``done_us``.  Needs a
        bound core.
        """
        try:
            next(self._get_stages(key, None, True))
        except StopIteration as stop:
            return stop.value
        raise RuntimeError("%s: analytic GET yielded" % self.name)

    def _get_stages(self, key: bytes, trace, analytic: bool):
        """Generator: the GET pipeline, written once for both clocks.

        Hash lookup → key-log segment read (its decoded form from the
        segment memo) → bucket scan → value-log read (the value the
        item's write left on it), a fixed 2 NVMe accesses per hit
        (§3.3).  Both reads are charged in full; their bytes are
        fetched from flash and decoded only when nothing decoded holds
        them.  Returns ``(OpResult, done_us)``; all statistics are
        recorded here.

        The clock is the only parameter.  *Reference* (``analytic``
        false): each stage executes at ``sim.now`` and yields until it
        completes (:meth:`Core.execute_event`,
        :meth:`CircularLog.charge_read`), so a compaction can move data
        while a read is in flight; the memo and the value log's window
        are checked at completion.  *Analytic*: each stage is charged
        at the running ``at`` (:meth:`Core.charge_at`,
        :meth:`CircularLog.charge_read_at`) and the generator never
        yields; validation happens at the submission instant, so the
        retry loop only sees submission-time stale SegTbl entries.

        Optimistic with respect to compaction: if the segment or value
        moved underneath us (LogRangeError / key mismatch) the lookup
        restarts from the SegTbl, up to ``MAX_GET_RETRIES`` times.
        """
        key_log = self.key_log
        segments = self._segments
        core = self.core
        sim = self.sim
        stats = self.stats
        start = at = sim.now
        ssd_us = 0.0
        accesses = 0
        stats.gets += 1
        khash = key_hash(key)
        seg_id = khash % self.config.num_segments

        cycles = _HASH_LOOKUP_CYCLES
        if analytic:
            at = core.charge_at(cycles, at)
        else:
            yield self._cpu_event(cycles)
            at = sim.now

        result: Optional[OpResult] = None
        for attempt in range(self.MAX_GET_RETRIES):
            if attempt:
                stats.get_retries += 1
            location = self.segtbl.location(seg_id)
            if location is None:
                result = OpResult(NOT_FOUND)
                break
            offset, chain_len = location
            nbytes = chain_len * key_log.block_size
            try:
                if analytic:
                    done = key_log.charge_read_at(offset, nbytes, at)
                    head = None
                else:
                    head = yield key_log.charge_read(offset, nbytes, trace)
                    done = sim.now
            except LogRangeError:
                continue
            ssd_us += done - at
            at = done
            accesses += 1
            segment = segments.get(offset)
            if segment is None:
                segment = Segment.unpack(key_log.fetch(offset, nbytes, head),
                                         key_log.block_size)

            scan_items = 0
            for bucket in segment.buckets:
                scan_items += len(bucket.items)
            cycles = _BUCKET_SCAN_CYCLES * (scan_items or 1)
            if analytic:
                at = core.charge_at(cycles, at)
            else:
                yield self._cpu_event(cycles)
                at = sim.now

            item = segment.find(key, khash)
            if item is None or item.vlen == TOMBSTONE_VLEN:
                result = OpResult(NOT_FOUND)
                break

            value_log = self._value_log_for(item.ssd_id)
            voffset = item.voffset
            nbytes = value_entry_size(len(key), item.vlen)
            try:
                if analytic:
                    done = value_log.charge_read_at(voffset, nbytes, at)
                    head = None
                else:
                    head = yield value_log.charge_read(voffset, nbytes,
                                                       trace)
                    done = sim.now
            except LogRangeError:
                continue
            ssd_us += done - at
            at = done
            accesses += 1

            # The value its write left on the item is the entry's while
            # the entry is inside the window (checked at submission on
            # the analytic clock, ``contains`` spelled out here).
            value = item.value
            if value is None or not (analytic or (
                    value_log.head <= voffset
                    and voffset + nbytes <= value_log.tail)):
                _seg_id, stored_key, value, _size, _owner = (
                    unpack_value_entry(value_log.fetch(voffset, nbytes,
                                                       head)))
                if stored_key != key:
                    # The value log was compacted between the segment
                    # read and the value read; the fresh SegTbl view
                    # will resolve it.
                    continue
            result = OpResult(OK, value=value)
            break
        if result is None:
            result = OpResult(NOT_FOUND)
        return stats.book("get", result, start, at, ssd_us, accesses), at

    def put(self, key: bytes, value: bytes, trace=None):
        """Generator: PUT — 3 NVMe accesses, first two overlapped.

        The value-log write starts immediately (its offset is reserved
        synchronously) and runs in parallel with the key-segment read;
        the updated segment is then appended (§3.3).  ``trace``
        attributes the device accesses to the request's trace.
        """
        if not value:
            raise ValueError("empty values are reserved as deletion markers")
        return self._write_stages(key, value, trace)

    def delete(self, key: bytes, trace=None):
        """Generator: DEL — read segment, write tombstone (2 accesses)."""
        return self._write_stages(key, None, trace)

    def _write_stages(self, key: bytes, value: Optional[bytes], trace):
        """Generator: the PUT / DEL (``value`` None) pipeline, written
        once; returns the :class:`OpResult`.

        Hash lookup → segment lock → [value-log commit, PUT only]
        overlapped with the key-segment read → ``bucket_update`` →
        upsert / tombstone → segment append; every yield is a CPU
        slice or a device completion (plus a held lock bit, or a value
        write slower than the read).  Reference clock only.  The
        outcome is booked once it is known (:meth:`OpStats.book`); a
        refused write changes no live-object count.
        Before any of it the write checks for compaction pressure
        (:meth:`needs_maintenance`), also when it is then refused.
        """
        if self.on_pressure is not None and self.needs_maintenance():
            self.on_pressure(self)
        sim = self.sim
        block = self.key_log.block_size
        segtbl = self.segtbl
        stats = self.stats
        start = sim.now
        ssd_us = 0.0
        accesses = 0
        if value is None:
            stats.dels += 1
        else:
            stats.puts += 1
        khash = key_hash(key)
        seg_id = khash % self.config.num_segments

        yield self._cpu_event(_HASH_LOOKUP_CYCLES)

        # A free lock bit is taken in place; a held one queues FCFS.
        if not segtbl.try_lock(seg_id):
            yield segtbl.lock(seg_id)
        status = OK
        ticket = previous = None
        try:
            location = segtbl.location(seg_id)
            if value is None:
                if location is None:
                    status = NOT_FOUND
            else:
                holder_id, value_log = self.value_router(self, key, value)
                entry = pack_value_entry(seg_id, key, value,
                                         owner_id=self.store_id)
                nbytes = len(entry)
                if (value_log.size - (value_log.tail - value_log.head)
                        - nbytes < value_log.compaction_reserve):
                    status = STORE_FULL       # ``free_bytes`` ^
                else:
                    voffset = value_log.reserve(nbytes)

            if status == OK:
                # The value commit (its flush is submitted by the log)
                # overlaps the segment read; wait for the slower one.
                t0 = sim.now
                if value is not None:
                    ticket = value_log.commit(voffset, entry, trace)
                    accesses += 1
                if location is None:
                    segment = Segment(seg_id)
                else:
                    offset = location[0]
                    seg_bytes = location[1] * block
                    head = yield self.key_log.charge_read(
                        offset, seg_bytes, trace)
                    segment = self._segments.get(offset)
                    segment = (Segment.unpack(self.key_log.fetch(
                        offset, seg_bytes, head), block)
                        if segment is None else segment.clone())
                    accesses += 1
                if ticket is not None and ticket.callbacks is not None:
                    yield ticket                  # not ``processed`` yet
                ssd_us += sim.now - t0
                previous = segment.find(key, khash)
                if previous is not None and previous.vlen == TOMBSTONE_VLEN:
                    previous = None
                if value is None and previous is None:
                    status = NOT_FOUND

            if status == OK:
                replaced = (value_entry_size(len(key), previous.vlen)
                            if previous is not None else 0)
                yield self._cpu_event(_BUCKET_UPDATE_CYCLES)
                t0 = sim.now
                try:
                    if value is None:
                        segment.replace(previous, KeyItem(
                            key, TOMBSTONE_VLEN, 0, previous.ssd_id, khash))
                    else:
                        segment.upsert(
                            KeyItem(key, len(value), voffset,
                                    ssd_id=holder_id, khash=khash,
                                    value=value),
                            block, self.MAX_CHAIN)
                    yield from self._write_segment(
                        segment, enforce_reserve=True, trace=trace)
                    accesses += 1
                except (SegmentFullError, LogFullError):
                    status = STORE_FULL
                ssd_us += sim.now - t0
        finally:
            segtbl.unlock(seg_id)

        if status == OK:
            stats.value_garbage_bytes += replaced
            if value is None:
                self.live_objects -= 1
            elif previous is None:
                self.live_objects += 1
        elif ticket is not None:
            # Refused after the value entry was committed: nothing
            # points at it, so it is garbage from birth.
            stats.value_garbage_bytes += nbytes
        return stats.book("del" if value is None else "put", OpResult(status),
                          start, sim.now, ssd_us, accesses)

    # -- scans (COPY primitive substrate, §3.8) -----------------------------------------

    def scan(self, predicate, visit):
        """Generator: call ``visit(key, value)`` for every live pair
        whose key passes ``predicate`` (None: every key), read through
        real SSD reads.

        Each segment is locked while its items are read out, making
        the scan mutually exclusive with PUT/DEL on that segment —
        exactly the COPY semantics of §3.8.  ``visit`` runs inside the
        dispatch of the pair's value read, so what it records with the
        pair (COPY's migration stamp) is versioned at read time; when
        it returns an event, the scan waits for it before reading on.
        """
        segtbl = self.segtbl
        for seg_id in list(segtbl.existing_segments()):
            # Through the lock event even when the bit is free: a PUT
            # the previous segment's unlock just woke submits its
            # device accesses before the scan's next read.
            yield segtbl.lock(seg_id)
            try:
                location = segtbl.location(seg_id)
                if location is None:
                    continue
                segment = yield from self._read_segment(*location)
                for item in segment.live_items():
                    key = item.key
                    if predicate is not None and not predicate(key):
                        continue
                    voffset = item.voffset
                    entry_size = value_entry_size(len(key), item.vlen)
                    value_log = self._value_log_for(item.ssd_id)
                    try:
                        head = yield value_log.charge_read(voffset,
                                                           entry_size)
                    except LogRangeError:
                        continue
                    value = item.value
                    if value is None or not value_log.contains(voffset,
                                                               entry_size):
                        _sid, stored_key, value, _sz, _own = (
                            unpack_value_entry(value_log.fetch(
                                voffset, entry_size, head)))
                        if stored_key != key:
                            continue
                    wait = visit(key, value)
                    if wait is not None:
                        yield wait
            finally:
                segtbl.unlock(seg_id)

    # -- occupancy & maintenance signals ----------------------------------------------

    def needs_compaction(self, log: CircularLog) -> bool:
        """True when ``log`` (the key or the value log) is past its high
        watermark (``fill_fraction`` spelled out)."""
        return ((log.tail - log.head) / log.size
                >= self.config.compact_high_watermark)

    def needs_maintenance(self) -> bool:
        """True when a log a write may append to is past its high
        watermark: the key log, or any value log a value may land in —
        the home one and, with swapping (§3.6), every co-located
        peer's, which swapped writes fill without their owner
        writing.  Every write asks: ``needs_compaction`` spelled out."""
        high = self.config.compact_high_watermark
        log = self.key_log
        if (log.tail - log.head) / log.size >= high:
            return True
        for log in self.peer_value_logs.values():
            if (log.tail - log.head) / log.size >= high:
                return True
        return False

    def __repr__(self):
        return ("<LeedDataStore %s live=%d klog=%.0f%% vlog=%.0f%%>"
                % (self.name, self.live_objects,
                   100 * self.key_log.fill_fraction(),
                   100 * self.value_log.fill_fraction()))
