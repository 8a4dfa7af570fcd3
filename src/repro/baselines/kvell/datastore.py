"""The KVell data store (Lepers et al., SOSP '19), reimplemented.

KVell's design points, reproduced here:

* **share-nothing**: each worker owns a disjoint partition — in this
  simulation each :class:`KVellDataStore` instance is one worker, and
  the node hosts several;
* **in-memory sorted B-tree index** mapping keys to disk slots —
  computation-heavy on a wimpy core (charged per node visit);
* **no on-disk ordering, in-place updates**: values live in fixed
  size *slab* slots; an update overwrites its slot, so there is no
  compaction/GC at all;
* **free lists** for slot recycling and a small **page cache**.

Command costs: GET = 1 slot read (0 on a page-cache hit), PUT = 1
slot write, DEL = free-list push (metadata-only flush).

DRAM footprint per object is dominated by the B-tree entry plus its
share of page cache and free lists — tens of bytes per object, which
is why KVell-JBOF can only index 0.9 %/2.6 % of the flash in Table 3.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.baselines.kvell.btree import BTree
from repro.core.analysis import KVELL_DRAM_BYTES_PER_OBJECT
from repro.core.datastore import (
    NOT_FOUND,
    OK,
    STORE_FULL,
    OpResult,
    OpStats,
    cpu_charge,
)
from repro.hw.cpu import CYCLE_COSTS, Core
from repro.hw.dram import Dram, IndexBudget
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator

#: Fixed page-cache reservation per store (KVell keeps a page cache
#: regardless of object count).
PAGE_CACHE_BYTES = 4 << 20


@dataclass
class KVellConfig:
    """Geometry for one KVell worker partition."""

    #: Slab region size on the device.
    slab_bytes: int = 32 << 20
    #: Slot size; objects must fit (KVell rounds to its slab class).
    slot_bytes: int = 1024
    #: Page-cache entries (slots cached in DRAM).  At the paper's
    #: 1.6 B-object scale the cache covers a negligible key fraction;
    #: the small default models that.
    page_cache_slots: int = 64
    #: KVell batches device submissions into windows to amortize
    #: syscalls; an I/O waits for the next flush boundary.  This buys
    #: throughput on beefy servers at a latency cost — the reason
    #: KVell's latencies are the worst of Table 3.
    batch_window_us: float = 400.0
    #: When set, CPU is charged for the B-tree depth of an index of
    #: this many objects (full-deployment scale) even though the
    #: simulated store is smaller — keeps the compute cost honest for
    #: Table 3-style comparisons.
    modeled_index_objects: Optional[int] = None


@dataclass
class KVellStats(OpStats):
    """Cumulative statistics."""

    cache_hits: int = 0
    btree_nodes_visited: int = 0


class KVellDataStore:
    """One KVell worker: B-tree index + slab file + free list."""

    def __init__(self, sim: Simulator, ssd: NVMeSSD, config: KVellConfig,
                 region_offset: int = 0, dram: Optional[Dram] = None,
                 core: Optional[Core] = None, name: str = "kvell",
                 store_id: int = 0):
        self.sim = sim
        self.ssd = ssd
        self.config = config
        self.name = name
        self.store_id = store_id
        self.core = core
        self._cpu_event = cpu_charge(sim, core)
        self.region_offset = region_offset
        # KVell performs page-granular I/O: a slot occupies whole device
        # blocks (a 1 KB object still costs one 4 KB page on disk).
        block = ssd.block_size
        self.io_slot_bytes = ((config.slot_bytes + block - 1) // block) * block
        self.num_slots = config.slab_bytes // self.io_slot_bytes
        self.index = BTree(min_degree=32)
        self.free_list: Deque[int] = deque()
        self.next_fresh_slot = 0
        #: LRU page cache: slot -> value bytes.
        self.page_cache: "OrderedDict[int, bytes]" = OrderedDict()
        self.stats = KVellStats()
        self.live_objects = 0
        if dram is not None:
            dram.reserve(name + ".pagecache", PAGE_CACHE_BYTES)
        self.index_budget = IndexBudget(dram, name + ".index",
                                        KVELL_DRAM_BYTES_PER_OBJECT)
        self._next_flush_us = 0.0
        self._modeled_visits = 0
        if config.modeled_index_objects:
            fanout = 2 * self.index.t - 1
            self._modeled_visits = max(
                int(math.ceil(math.log(config.modeled_index_objects,
                                       fanout))), 1)

    # -- helpers ---------------------------------------------------------------------

    def _btree_event(self, visited: int):
        """The CPU charge of a B-tree operation that visited
        ``visited`` nodes (at least the modeled index's depth)."""
        visited = max(visited, self._modeled_visits)
        self.stats.btree_nodes_visited += visited
        return self._cpu_event(CYCLE_COSTS["btree_node_visit"] * visited)

    def _batch_wait(self):
        """Generator: wait for the next submission-flush boundary."""
        window = self.config.batch_window_us
        if window <= 0:
            return
        now = self.sim.now
        if now >= self._next_flush_us:
            boundary = (int(now / window) + 1) * window
            self._next_flush_us = boundary
        yield self.sim.timeout(self._next_flush_us - now)

    def _slot_offset(self, slot: int) -> int:
        return self.region_offset + slot * self.io_slot_bytes

    def _allocate_slot(self) -> Optional[int]:
        if self.free_list:
            return self.free_list.popleft()
        if self.next_fresh_slot >= self.num_slots:
            return None
        slot = self.next_fresh_slot
        self.next_fresh_slot += 1
        return slot

    def _cache_put(self, slot: int, payload: bytes) -> None:
        cache = self.page_cache
        cache[slot] = payload
        cache.move_to_end(slot)
        while len(cache) > self.config.page_cache_slots:
            cache.popitem(last=False)

    @staticmethod
    def _frame(key: bytes, value: bytes) -> bytes:
        """Slot layout: klen u16 | vlen u16 | key | value."""
        return (len(key).to_bytes(2, "little")
                + len(value).to_bytes(2, "little") + key + value)

    @staticmethod
    def _unframe(payload: bytes):
        klen = int.from_bytes(payload[0:2], "little")
        vlen = int.from_bytes(payload[2:4], "little")
        key = payload[4:4 + klen]
        value = payload[4 + klen:4 + klen + vlen]
        return key, value

    # -- commands -----------------------------------------------------------------------

    def get(self, key: bytes, trace=None):
        """Generator: GET — B-tree descent + one slot read.  ``trace``
        is accepted and ignored (also by :meth:`put` and
        :meth:`delete`): KVell runs untraced."""
        start = self.sim.now
        self.stats.gets += 1
        slot, visited = self.index.search(key)
        yield self._btree_event(visited)
        ssd_us = 0.0
        accesses = 0
        result = OpResult(NOT_FOUND)
        if isinstance(slot, int):
            cached = self.page_cache.get(slot)
            if cached is not None:
                self.stats.cache_hits += 1
                self.page_cache.move_to_end(slot)
                _key, value = self._unframe(cached)
                result = OpResult(OK, value=value)
            else:
                t0 = self.sim.now
                yield from self._batch_wait()
                payload = yield from self.ssd.read(self._slot_offset(slot),
                                                   self.io_slot_bytes)
                ssd_us = self.sim.now - t0
                accesses = 1
                stored_key, value = self._unframe(payload)
                if stored_key == key:
                    self._cache_put(slot, payload[:4 + len(key) + len(value)])
                    result = OpResult(OK, value=value)
        return self.stats.book("get", result, start, self.sim.now, ssd_us,
                               accesses)

    def put(self, key: bytes, value: bytes, trace=None):
        """Generator: PUT — B-tree upsert + one in-place slot write."""
        frame = self._frame(key, value)
        if len(frame) > self.config.slot_bytes:
            raise ValueError("object of %d bytes exceeds slot size %d"
                             % (len(frame), self.config.slot_bytes))
        start = self.sim.now
        self.stats.puts += 1
        slot, visited = self.index.search(key)
        yield self._btree_event(visited)
        if not isinstance(slot, int):
            slot = None
            if self.index_budget.take():
                slot = self._allocate_slot()
                if slot is None:
                    self.index_budget.give_back()
            if slot is None:
                return self.stats.book("put", OpResult(STORE_FULL), start,
                                       self.sim.now, 0.0, 0)
            _new, insert_visits = self.index.insert(key, slot)
            yield self._btree_event(insert_visits)
            self.live_objects += 1
        yield self._cpu_event(CYCLE_COSTS["kvell_commit"])
        t0 = self.sim.now
        yield from self._batch_wait()
        padded = frame + b"\x00" * (self.io_slot_bytes - len(frame))
        yield from self.ssd.write(self._slot_offset(slot), padded)
        ssd_us = self.sim.now - t0
        self._cache_put(slot, frame)
        return self.stats.book("put", OpResult(OK), start, self.sim.now,
                               ssd_us, 1)

    def delete(self, key: bytes, trace=None):
        """Generator: DEL — B-tree tombstone + slot recycled to the
        free list (metadata-only; no data write needed)."""
        start = self.sim.now
        self.stats.dels += 1
        slot, visited = self.index.search(key)
        yield self._btree_event(visited)
        if not isinstance(slot, int):
            result = OpResult(NOT_FOUND)
        else:
            _was_present, delete_visits = self.index.delete(key)
            yield self._btree_event(delete_visits)
            self.free_list.append(slot)
            self.page_cache.pop(slot, None)
            self.index_budget.give_back()
            self.live_objects -= 1
            result = OpResult(OK)
        return self.stats.book("del", result, start, self.sim.now, 0.0, 0)

    # -- scan (COPY substrate) -----------------------------------------------------------------

    def scan(self, predicate, visit):
        """Generator: call ``visit(key, value)`` for every live pair
        whose key passes ``predicate`` (None: every key), each read
        from its slot; see :meth:`LeedDataStore.scan`."""
        for key, slot in list(self.index.items()):
            if predicate is not None and not predicate(key):
                continue
            if not isinstance(slot, int):
                continue
            payload = yield from self.ssd.read(self._slot_offset(slot),
                                               self.io_slot_bytes)
            stored_key, value = self._unframe(payload)
            if stored_key != key:
                continue
            wait = visit(key, value)
            if wait is not None:
                yield wait

    def __repr__(self):
        return "<KVellDataStore %s live=%d slots=%d/%d>" % (
            self.name, self.live_objects,
            self.next_fresh_slot - len(self.free_list), self.num_slots)
