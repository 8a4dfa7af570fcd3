"""The store's decoded-segment memo (``LeedDataStore._segments``).

Every live key-log entry keeps the decoded form its write produced, and
a key item a write made keeps the value it wrote (``KeyItem.value``),
so readers skip the copy out and the decode (never the device read).
Held here to:

* the invariant — the memo's offsets are exactly the SegTbl's live
  locations, each inside the key-log window, each entry equals
  ``Segment.unpack`` of the log bytes at its offset field by field, and
  each item's ``value``, when set, is the value of the value-log entry
  at its ``voffset`` while that entry is inside the window — at every
  slice boundary of random concurrent PUT / DEL / GET on both clocks,
  forced key- and value-log compaction (relocation), swapped writes
  merged back home and COPY scans, and after ``recover_store``;
* a twin that always fetches and decodes (:class:`AlwaysDecodes`):
  equal ``OpResult``s, ``StoreStats``, ``SSDStats``, core counters and
  flash bytes after every step;
* copy-on-write: a GET that holds an entry across its bucket scan while
  a write to the segment commits sees what the bytes said;
* the window rule: a GET whose value entry leaves the window while the
  read is in flight fetches the bytes, as the twin does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import CompactionConfig, Compactor
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.recovery import recover_store
from repro.core.segment import (Bucket, Segment, key_hash,
                                peek_segment_header, unpack_value_entry,
                                value_entry_size)
from repro.hw.cpu import Core
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive


class _Forgets(dict):
    """A memo that never holds an entry."""

    def __setitem__(self, offset, segment):
        pass

    def get(self, offset, default=None):
        return default


class AlwaysDecodes(LeedDataStore):
    """The store without its memo: every reader fetches the bytes it
    read and decodes them.  Its items are all decoded, so no value
    read finds ``KeyItem.value`` set either."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._segments = _Forgets()


def _fields(segment):
    """Every decoded field of a segment, ``wire_size`` included."""
    return (segment.seg_id, [
        (bucket.seg_id, bucket.position, bucket.head, bucket.tail,
         [(item.key, item.vlen, item.voffset, item.ssd_id, item.khash,
           item.wire_size) for item in bucket.items])
        for bucket in segment.buckets])


def _log_bytes(log, offset, length):
    """The flash bytes at a virtual offset of ``log`` (wrap included)."""
    start = offset % log.size
    first = min(length, log.size - start)
    data = log.ssd.flash.read(log.region_offset + start, first)
    if first < length:
        data += log.ssd.flash.read(log.region_offset, length - first)
    return data


def assert_memo_is_the_log(store):
    log = store.key_log
    live = {}
    for seg_id in store.segtbl.existing_segments():
        offset, chain_len = store.segtbl.location(seg_id)
        live[offset] = chain_len * log.block_size
    assert sorted(store._segments) == sorted(live)
    for offset, segment in store._segments.items():
        assert log.contains(offset, live[offset])
        decoded = Segment.unpack(_log_bytes(log, offset, live[offset]),
                                 log.block_size)
        assert _fields(segment) == _fields(decoded)
        for item in segment.iter_items():
            if item.value is None:
                continue
            value_log = store.peer_value_logs[item.ssd_id]
            size = value_entry_size(len(item.key), item.vlen)
            if value_log.contains(item.voffset, size):
                _seg_id, key, value, _size, _owner = unpack_value_entry(
                    _log_bytes(value_log, item.voffset, size))
                assert (key, value) == (item.key, item.value)


#: 47-byte keys: eight share a segment and fill more than one block,
#: so chains of two and segments astride the key log's wrap occur.
KEYS = [b"key-%02d" % index + b"." * 41 for index in range(24)]
CONFIG = StoreConfig(num_segments=3, key_log_bytes=24 << 10,
                     value_log_bytes=24 << 10)
SLICE_US = 4.0
#: Every key written, then rewritten behind a key-log round: the log
#: has lapped its region before the random bursts start.
FILL = [[("put", index, 0.0) for index in range(len(KEYS))],
        [("kcompact", 0, 0.0)] + [("put", index, 5.0)
                                  for index in range(len(KEYS))]]


class World:
    """A home store and a peer on a second SSD (the swap target), with
    a compactor each, all of one store class."""

    def __init__(self, store_class):
        self.store_class = store_class
        self.sim = sim = Simulator()
        self.ssds = [NVMeSSD(sim, SSDProfile(capacity_bytes=4 << 20,
                                             block_size=512, jitter=0.1),
                             rng=RngRegistry(seed), name="ssd%d" % seed)
                     for seed in (0, 1)]
        self.home, self.peer = self.stores = [
            self._store(ssd_id) for ssd_id in (0, 1)]
        self._pair()
        self.compactors = [Compactor(store, CompactionConfig(subcompactions=2))
                           for store in self.stores]

    def _store(self, store_id):
        return self.store_class(
            self.sim, self.ssds[store_id], CONFIG,
            core=Core(self.sim, 3.0, core_id=store_id),
            name="store%d" % store_id, store_id=store_id)

    def _pair(self):
        """Let home and peer resolve each other's value logs."""
        for one, other in ((self.home, self.peer), (self.peer, self.home)):
            one.peer_value_logs[other.store_id] = other.value_log
            one.peer_stores[other.store_id] = other

    def _swapped(self, store, key, value):
        return self.peer.store_id, self.peer.value_log

    def op(self, kind, key, delay, tag):
        """Generator: one operation, ``delay`` µs from now."""
        yield self.sim.timeout(delay)
        home = self.home
        if kind == "put":
            value = b"%s=%d|" % (key[:6], tag) * (1 + tag % 7)
            return (yield from home.put(key, value))
        if kind == "del":
            return (yield from home.delete(key))
        if kind == "get":
            return (yield from home.get(key))
        if kind == "get_at":
            return home.get_at(key)
        if kind in ("kcompact", "vcompact"):
            compactor = self.compactors[0]
            log = (compactor.store.key_log if kind == "kcompact"
                   else compactor.store.value_log)
            return (yield from compactor.compact(log, 0.0))
        if kind == "merge":
            # The peer's value log holds home's swapped values: its
            # compaction repoints them home (§3.6 merge-back).
            compactor = self.compactors[1]
            return (yield from compactor.compact(compactor.store.value_log,
                                                 0.0))
        if kind == "scan":
            pairs = []
            yield from home.scan(None, lambda key, value: pairs.append(
                (key, value, self.sim.now)))
            return pairs
        assert kind == "swap"
        home.value_router = (LeedDataStore._home_value_router
                             if home.value_router == self._swapped
                             else self._swapped)
        return None

    def burst(self, ops, tag):
        """Start ``ops`` together, run them to the end in slices and
        check the memo at every slice boundary; returns their values."""
        sim = self.sim
        procs = [sim.process(self.op(kind, KEYS[key], delay, tag + index))
                 for index, (kind, key, delay) in enumerate(ops)]
        while not all(proc.processed for proc in procs):
            sim.run(until=sim.now + SLICE_US)
            self.check()
        return [proc.value for proc in procs]

    def recover(self):
        """Rebuild the home store from its flash (a fresh store of the
        same class) and read every key back on both clocks."""
        fresh = self.home = self.stores[0] = self._store(0)
        self._pair()
        report = drive(self.sim, recover_store(fresh))
        self.check()
        reads = [(drive(self.sim, fresh.get(key)), fresh.get_at(key))
                 for key in KEYS]
        return report, reads

    def check(self):
        for store in self.stores:
            if self.store_class is LeedDataStore:
                assert_memo_is_the_log(store)
            else:
                assert not store._segments

    def state(self):
        """Everything the twins must agree on."""
        return (self.sim.now,
                [(store.stats, store.live_objects, store.core.busy_time_us,
                  store.core.cycles_executed, store.segtbl.lock_waits)
                 for store in self.stores],
                [compactor.stats for compactor in self.compactors],
                [(ssd.stats, ssd.flash._blocks) for ssd in self.ssds])


OPS = st.tuples(
    st.sampled_from(["put", "put", "put", "del", "get", "get", "get_at",
                     "kcompact", "vcompact", "merge", "scan", "swap"]),
    st.integers(0, len(KEYS) - 1),
    st.sampled_from([0.0, 0.0, 0.5, 3.0, 11.0, 40.0, 90.0]))


class TestMemoInvariant:
    @settings(max_examples=30, deadline=None)
    @given(bursts=st.lists(st.lists(OPS, min_size=1, max_size=5),
                           min_size=1, max_size=8))
    def test_memo_is_the_log_and_twins_agree(self, bursts):
        memo, decodes = World(LeedDataStore), World(AlwaysDecodes)
        for step, ops in enumerate(FILL + bursts):
            assert memo.burst(ops, 100 * step) == decodes.burst(ops, 100 * step)
            assert memo.state() == decodes.state()
        assert memo.recover() == decodes.recover()
        assert memo.state() == decodes.state()

    def test_compaction_forgets_a_fully_deleted_segment(self):
        seg_id = key_hash(KEYS[0]) % CONFIG.num_segments
        doomed = [index for index, key in enumerate(KEYS)
                  if key_hash(key) % CONFIG.num_segments == seg_id]
        worlds = World(LeedDataStore), World(AlwaysDecodes)
        for world in worlds:
            world.burst(FILL[0], 0)
            world.burst([("kcompact", 0, 0.0)], 100)
            deleted = world.burst([("del", index, 0.0) for index in doomed],
                                  200)
            assert all(result.ok for result in deleted)
            world.burst([("kcompact", 0, 0.0)], 300)
            assert world.home.segtbl.location(seg_id) is None
            assert world.compactors[0].stats.segments_dropped == 1
        assert worlds[0].state() == worlds[1].state()


class TestStoredBytes:
    """Flash holds each key-log block's bytes once: a segment's buckets
    fill their blocks but the last, which keeps only its serialized
    bytes, not the padding to the block (eight of these keys fill a
    bucket exactly, so some last buckets are whole blocks too)."""

    def test_key_log_blocks_hold_only_their_buckets(self):
        world = World(LeedDataStore)
        for step, ops in enumerate(FILL):
            world.burst(ops, 100 * step)
        log = world.home.key_log
        flash, block = log.ssd.flash, log.block_size
        assert log.tail > log.size   # lapped: entries astride the wrap
        chains, short = [], 0
        offset = log.head
        while offset < log.tail:
            _seg_id, chain_len = peek_segment_header(
                _log_bytes(log, offset, block))
            chains.append(chain_len)
            for position in range(chain_len):
                virtual = offset + position * block
                stored = flash.stored_bytes(
                    (log.region_offset + virtual % log.size) // block)
                used = Bucket.unpack(
                    _log_bytes(log, virtual, block)).bytes_used()
                if position < chain_len - 1:
                    assert stored == block
                else:
                    assert stored == used
                    short += used < block
            offset += chain_len * block
        assert offset == log.tail and max(chains) > 1 and short


class TestCopyOnWrite:
    """A reference GET holds its segment across the bucket-scan slice
    while a write to the same segment commits."""

    @staticmethod
    def _held_get(store_class, write):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=4 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        store = store_class(sim, ssd, StoreConfig(
            num_segments=1, key_log_bytes=64 << 10, value_log_bytes=64 << 10))
        drive(sim, store.put(b"other", b"neighbour"))
        drive(sim, store.put(b"key", b"before"))
        offset = store.segtbl.location(0)[0]
        entry = store._segments.get(offset)
        snapshot = None if entry is None else _fields(entry)

        # The GET's second CPU slice (the bucket scan) waits on a gate.
        gate = sim.event()
        cpu_event = store._cpu_event
        slices = []

        def gated(cycles):
            slices.append(cycles)
            return gate if len(slices) == 2 else cpu_event(cycles)

        store._cpu_event = gated
        get = sim.process(store.get(b"key"))
        sim.run()
        assert len(slices) == 2 and not get.processed
        store._cpu_event = cpu_event
        written = drive(sim, store.put(b"key", b"after") if write == "put"
                        else store.delete(b"key"))
        assert written.ok and store.segtbl.location(0)[0] != offset
        assert offset not in store._segments
        gate.succeed()
        held = sim.run(until=get)
        if entry is not None:
            assert _fields(entry) == snapshot
        return held, drive(sim, store.get(b"key"))

    @pytest.mark.parametrize("write", ["put", "del"])
    def test_get_sees_the_pre_write_segment(self, write):
        held, after = self._held_get(LeedDataStore, write)
        assert held.ok and held.value == b"before"
        assert (after.value, after.status) == (
            (b"after", "ok") if write == "put" else (None, "not_found"))
        assert (held, after) == self._held_get(AlwaysDecodes, write)


class TestValueSlot:
    """``KeyItem.value``: set by the write that made the item, read
    instead of the flash bytes while the entry is inside the window."""

    @staticmethod
    def _store(store_class):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=4 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        return store_class(sim, ssd, StoreConfig(
            num_segments=1, key_log_bytes=64 << 10, value_log_bytes=64 << 10),
            core=Core(sim, 3.0))

    def test_a_hit_copies_nothing_on_either_clock(self):
        store = self._store(LeedDataStore)
        sim, ssd = store.sim, store.ssd
        drive(sim, store.put(b"key", b"value"))
        (item,) = store._segments[store.segtbl.location(0)[0]].iter_items()
        assert item.value == b"value"
        copied, reads = ssd.flash.bytes_read, ssd.stats.reads_completed
        reference = drive(sim, store.get(b"key"))
        analytic, _done = store.get_at(b"key")
        sim.run()
        assert reference.value == analytic.value == b"value"
        assert reference.nvme_accesses == analytic.nvme_accesses == 2
        assert ssd.stats.reads_completed == reads + 4
        assert ssd.flash.bytes_read == copied

    def test_relocation_sets_it_and_recovery_clears_it(self):
        store = self._store(LeedDataStore)
        sim = store.sim
        values = {b"k%d" % index: b"v%d" % index * 30 for index in range(6)}
        for key, value in values.items():
            drive(sim, store.put(key, value))
        values[b"k0"] = b"new" * 30
        drive(sim, store.put(b"k0", values[b"k0"]))
        old = {item.key: item.voffset for item in store._segments[
            store.segtbl.location(0)[0]].iter_items()}
        drive(sim, Compactor(store).compact(store.value_log, 0.0))
        (segment,) = store._segments.values()
        moved = [item for item in segment.iter_items()
                 if item.voffset != old[item.key]]
        assert moved and all(item.value == values[item.key]
                             for item in moved)
        assert_memo_is_the_log(store)
        fresh = store.__class__(sim, store.ssd, store.config,
                                core=Core(sim, 3.0))
        drive(sim, recover_store(fresh))
        (segment,) = fresh._segments.values()
        assert all(item.value is None for item in segment.iter_items())
        copied = fresh.ssd.flash.bytes_read
        assert drive(sim, fresh.get(b"k3")).value == b"v3" * 30
        assert fresh.ssd.flash.bytes_read > copied

    @staticmethod
    def _get_losing_its_entry(store_class):
        """A reference GET whose value entry leaves the window, and is
        overwritten, while the value read is in flight."""
        store = TestValueSlot._store(store_class)
        sim = store.sim
        value_log = store.value_log
        # 600-byte values: the entry's blocks are not the tail block,
        # so none stays staged once both entries are durable.
        drive(sim, store.put(b"key", b"v" * 600))
        drive(sim, store.put(b"other", b"o" * 600))
        assert value_log._staged.keys() == {value_log.tail // 512}
        gate = sim.event()
        cpu_event = store._cpu_event
        slices = []

        def gated(cycles):
            slices.append(cycles)
            return gate if len(slices) == 2 else cpu_event(cycles)

        store._cpu_event = gated
        get = sim.process(store.get(b"key"))
        sim.run()
        store._cpu_event = cpu_event
        gate.succeed()
        sim.run(until=sim.now + 1.0)       # the value read is in flight
        value_log.advance_head(value_log.tail)
        store.ssd.flash.write(value_log.region_offset, b"\xff" * 1024)
        return sim.run(until=get), store.stats.get_retries

    def test_an_entry_that_left_the_window_is_fetched(self):
        result, retries = self._get_losing_its_entry(LeedDataStore)
        assert (result.status, retries) == ("not_found",
                                            LeedDataStore.MAX_GET_RETRIES - 1)
        assert (result, retries) == self._get_losing_its_entry(AlwaysDecodes)
