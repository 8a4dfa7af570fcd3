"""Tests for key-log and value-log compaction (§3.3.1)."""

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.compaction import CompactionConfig, Compactor, Trigger
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.jbof import LeedOptions
from repro.core.segment import (
    VALUE_ENTRY_HEADER,
    key_hash,
    peek_segment_header,
)
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry

from conftest import drive


def make_store(sim, **config_kwargs):
    defaults = dict(num_segments=32, key_log_bytes=128 << 10,
                    value_log_bytes=256 << 10,
                    compact_high_watermark=0.7,
                    compact_low_watermark=0.4)
    defaults.update(config_kwargs)
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                  jitter=0.0), rng=RngRegistry(5))
    return LeedDataStore(sim, ssd, StoreConfig(**defaults))


def fill(store, count, value_size=64, prefix=b"key"):
    """Generator: count puts over ``count`` distinct keys."""
    for index in range(count):
        result = yield from store.put(b"%s-%04d" % (prefix, index),
                                      b"v" * value_size)
        assert result.ok, result.status


class TestKeyLogCompaction:
    def test_reclaims_dead_entries(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            # Rewrite the same keys repeatedly: old segments become dead.
            for _round in range(8):
                yield from fill(store, 20)
            before = store.key_log.used_bytes
            reclaimed = yield from compactor.compact(store.key_log,
                                                     target_fill=0.1)
            return before, reclaimed

        before, reclaimed = drive(sim, proc())
        assert reclaimed > 0
        assert store.key_log.used_bytes < before

    def test_tombstones_purged(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            yield from fill(store, 20)
            for index in range(10):
                yield from store.delete(b"key-%04d" % index)
            yield from compactor.compact(store.key_log, target_fill=0.0)
            # Deleted keys stay deleted; live keys stay live.
            for index in range(10):
                got = yield from store.get(b"key-%04d" % index)
                assert got.status == "not_found"
            for index in range(10, 20):
                got = yield from store.get(b"key-%04d" % index)
                assert got.ok
            return compactor.stats.tombstones_dropped

        assert drive(sim, proc()) > 0


def churn(store, rounds, keys):
    """Generator: ``rounds`` overwrites of ``keys`` keys, each round's
    values distinct, so a stale read-back shows."""
    for round_index in range(rounds):
        for index in range(keys):
            result = yield from store.put(b"key-%04d" % index,
                                          b"r%02d" % round_index + b"v" * 61)
            assert result.ok, result.status


def read_back(store, keys):
    """Generator: ``{index: (status, value)}`` of every key."""
    values = {}
    for index in range(keys):
        got = yield from store.get(b"key-%04d" % index)
        values[index] = got.status, got.value
    return values


LOGS = ("key_log", "value_log")


class TestBothLogs:
    """One round body serves both logs: the same guarantees hold on
    each."""

    @pytest.mark.parametrize("log_name", LOGS)
    def test_data_survives_compaction(self, sim, log_name):
        store = make_store(sim)
        compactor = Compactor(store)
        log = getattr(store, log_name)

        def proc():
            yield from churn(store, 6, 25)
            reclaimed = yield from compactor.compact(log, target_fill=0.0)
            return reclaimed, (yield from read_back(store, 25))

        reclaimed, values = drive(sim, proc())
        assert values == {index: ("ok", b"r05" + b"v" * 61)
                          for index in range(25)}
        assert reclaimed > 0
        stats = compactor.stats
        if log_name == "key_log":
            assert stats.segments_scanned > 0
            assert (stats.key_rounds, stats.value_rounds) == (1, 0)
        else:
            assert stats.values_scanned == 150
            assert (stats.key_rounds, stats.value_rounds) == (0, 1)
        assert not compactor._active

    @pytest.mark.parametrize("log_name", LOGS)
    def test_subcompaction_workers_produce_same_result(self, sim, log_name):
        results = {}
        for workers in (1, 4):
            sim2 = type(sim)()
            store = make_store(sim2)
            compactor = Compactor(store, CompactionConfig(
                subcompactions=workers))

            def proc():
                yield from churn(store, 5, 30)
                yield from compactor.compact(getattr(store, log_name),
                                             target_fill=0.0)
                return (yield from read_back(store, 30))

            process = sim2.process(proc())
            results[workers] = sim2.run(until=process)
        assert results[1] == results[4] == {
            index: ("ok", b"r04" + b"v" * 61) for index in range(30)}

    def test_refuses_a_log_of_another_store(self, sim):
        compactor = Compactor(make_store(sim))
        with pytest.raises(ValueError, match="not a log of"):
            next(compactor.compact(make_store(sim).value_log))
        assert not compactor._active


def counting_relocations(compactor):
    """Wrap ``compactor._relocate_segment``; returns the list of the
    tasks it was handed."""
    calls = []
    relocate = compactor._relocate_segment

    def counted(task):
        calls.append(task)
        return (yield from relocate(task))

    compactor._relocate_segment = counted
    return calls


def keys_outside(store, seg_id, count, prefix=b"other"):
    """``count`` keys none of which hashes to segment ``seg_id``."""
    segments = store.config.num_segments
    keys = (b"%s-%04d" % (prefix, index) for index in range(10 * count))
    return [key for key in keys
            if key_hash(key) % segments != seg_id][:count]


class TestScanTimeLiveness:
    """The key-log scanner verifies as it parses: an entry SegTbl no
    longer points at is committed by the scanner and never queued; a
    live one is queued and checked again under its segment lock."""

    def test_only_live_entries_reach_a_worker(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)
        calls = counting_relocations(compactor)
        segments = store.config.num_segments
        # Every PUT appends one entry; each segment's newest is live.
        live = len({key_hash(b"key-%04d" % index) % segments
                    for index in range(25)})
        dead = 6 * 25 - live

        def proc():
            yield from churn(store, 6, 25)
            yield from compactor.compact(store.key_log, target_fill=0.0)
            return (yield from read_back(store, 25))

        values = drive(sim, proc())
        stats = compactor.stats
        assert len(calls) == live
        assert stats.segments_dead == dead
        assert stats.segments_scanned == dead + live
        assert stats.segments_relocated == live
        assert values == {index: ("ok", b"r05" + b"v" * 61)
                          for index in range(25)}

    def test_head_waits_for_a_locked_live_entry(self, sim):
        """The dead entries behind a live head entry whose segment lock
        is held are all scanned, yet the head stays on that entry
        until its relocation commits."""
        store = make_store(sim)
        compactor = Compactor(store, CompactionConfig(subcompactions=4))
        log = store.key_log
        segments = store.config.num_segments
        first_key = b"first"
        seg_id = key_hash(first_key) % segments
        others = keys_outside(store, seg_id, 20)
        live = 1 + len({key_hash(key) % segments for key in others})
        scanned = 1 + 6 * len(others)
        heads = []

        def proc():
            result = yield from store.put(first_key, b"f" * 64)
            assert result.ok
            for round_index in range(6):
                for key in others:
                    result = yield from store.put(key, b"%02d" % round_index
                                                  + b"v" * 62)
                    assert result.ok, result.status
            first = log.head
            assert store.segtbl.location(seg_id)[0] == first
            yield store.segtbl.lock(seg_id)
            round_proc = sim.process(compactor.compact(log, target_fill=0.0))
            while compactor.stats.segments_scanned < scanned:
                yield sim.timeout(100.0)
                heads.append(log.head)
            for _poll in range(10):
                yield sim.timeout(100.0)
                heads.append(log.head)
            assert compactor.stats.segments_dead == scanned - live
            assert compactor.stats.segments_relocated == live - 1
            assert not round_proc.processed
            store.segtbl.unlock(seg_id)
            yield round_proc
            values = {}
            for key in [first_key] + others:
                got = yield from store.get(key)
                values[key] = got.status, got.value
            return first, values

        first, values = drive(sim, proc())
        assert set(heads) == {first}
        assert log.head > first
        assert compactor.stats.segments_relocated == live
        assert values[first_key] == ("ok", b"f" * 64)
        assert all(values[key] == ("ok", b"05" + b"v" * 62)
                   for key in others)

    def test_entry_moved_after_its_scan_is_not_reappended(self, sim):
        """A PUT already waiting on the head entry's segment lock moves
        the segment after the scan queued the entry: the worker, next
        in line for the lock, must find it dead and drop the task."""
        store = make_store(sim)
        compactor = Compactor(store, CompactionConfig(subcompactions=1))
        calls = counting_relocations(compactor)
        log = store.key_log
        segtbl = store.segtbl
        key = b"moving"
        seg_id = key_hash(key) % store.config.num_segments

        def proc():
            result = yield from store.put(key, b"old" + b"v" * 61)
            assert result.ok
            for other in keys_outside(store, seg_id, 10):
                result = yield from store.put(other, b"v" * 64)
                assert result.ok
            assert segtbl.location(seg_id)[0] == log.head
            yield segtbl.lock(seg_id)
            put_proc = sim.process(store.put(key, b"new" + b"v" * 61))
            yield sim.timeout(100.0)
            assert segtbl.lock_waits == 1  # the PUT waits first
            round_proc = sim.process(compactor.compact(log, target_fill=0.0))
            while segtbl.lock_waits < 2:  # then the worker, after its scan
                yield sim.timeout(10.0)
            assert calls and calls[0][1] == seg_id
            segtbl.unlock(seg_id)
            result = yield put_proc
            assert result.ok
            moved_to = segtbl.location(seg_id)
            yield round_proc
            assert segtbl.location(seg_id) == moved_to
            return (yield from store.get(key))

        got = drive(sim, proc())
        assert got.ok and got.value == b"new" + b"v" * 61
        assert compactor.stats.segments_relocated == len(calls) - 1


class TestChunkedScan:
    """Both logs are scanned in ``SCAN_BYTES`` reads, each parsed into
    every whole entry it holds."""

    def test_key_round_reads_the_log_in_chunks(self, sim):
        """N one-block entries take at most ceil(N * 512 / SCAN_BYTES)
        + 2 device reads: the round's first block, the chunks, and no
        re-read by a worker."""
        store = make_store(sim)
        compactor = Compactor(store)
        log = store.key_log
        entries = 6 * 25

        def proc():
            yield from churn(store, 6, 25)
            assert log.used_bytes == entries * log.block_size
            reads = store.ssd.stats.reads_completed
            yield from compactor.compact(log, target_fill=0.0)
            reads = store.ssd.stats.reads_completed - reads
            return reads, (yield from read_back(store, 25))

        reads, values = drive(sim, proc())
        bound = -(-entries * log.block_size // Compactor.SCAN_BYTES) + 2
        assert reads == compactor.stats.scan_reads <= bound
        assert compactor.stats.segments_scanned == entries
        assert compactor.stats.bytes_relocated == (
            compactor.stats.segments_relocated * log.block_size)
        assert values == {index: ("ok", b"r05" + b"v" * 61)
                          for index in range(25)}


class TestValueLogCompaction:
    def test_reclaims_overwritten_values(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            for _round in range(6):
                yield from fill(store, 15, value_size=200)
            before = store.value_log.used_bytes
            reclaimed = yield from compactor.compact(
                store.value_log, target_fill=0.05)
            return before, reclaimed

        before, reclaimed = drive(sim, proc())
        assert reclaimed > 0

    def test_live_values_relocated_and_readable(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            yield from fill(store, 20, value_size=150)
            # A little churn so the head has a mix of live and dead.
            yield from fill(store, 5, value_size=150)
            yield from compactor.compact(store.value_log, target_fill=0.0)
            for index in range(20):
                got = yield from store.get(b"key-%04d" % index)
                assert got.ok, (index, got.status)
                assert got.value == b"v" * 150
            return compactor.stats.values_relocated

        relocated = drive(sim, proc())
        assert relocated > 0

    def test_deleted_values_not_resurrected(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            yield from fill(store, 10, value_size=100)
            yield from store.delete(b"key-0003")
            yield from compactor.compact(store.value_log, target_fill=0.0)
            got = yield from store.get(b"key-0003")
            return got.status

        assert drive(sim, proc()) == "not_found"

    def test_entry_longer_than_a_scan_read_is_kept(self, sim):
        """A value entry longer than ``SCAN_BYTES`` is read whole by the
        next read; it used to parse as nothing, and the blocks stepped
        over from there passed every entry behind it."""
        store = make_store(sim)
        compactor = Compactor(store)
        big = b"B" * Compactor.SCAN_BYTES

        def proc():
            result = yield from store.put(b"big", big)
            assert result.ok
            yield from fill(store, 20)
            yield from compactor.compact(store.value_log, target_fill=0.0)
            values = {b"big": (yield from store.get(b"big"))}
            for index in range(20):
                key = b"key-%04d" % index
                values[key] = yield from store.get(key)
            return values

        values = drive(sim, proc())
        assert values[b"big"].ok and values[b"big"].value == big
        assert all(got.ok and got.value == b"v" * 64
                   for key, got in values.items() if key != b"big")
        assert compactor.stats.values_relocated == 21
        assert store.stats.compaction_aborted == 0

    def test_head_waits_for_a_locked_group(self, sim):
        """In-order commit: while one group's segment lock is held, the
        value-log head never passes that group's first entry, though
        the other workers relocate the groups behind it."""
        store = make_store(sim)
        compactor = Compactor(store, CompactionConfig(subcompactions=4))
        log = store.value_log
        heads = []

        def proc():
            yield from churn(store, 6, 25)
            first = log.head
            _owner, seg_id, _klen, _vlen = VALUE_ENTRY_HEADER.unpack(
                (yield from log.read(first, VALUE_ENTRY_HEADER.size)))
            yield store.segtbl.lock(seg_id)
            round_proc = sim.process(compactor.compact(log, target_fill=0.0))
            for _poll in range(50):
                yield sim.timeout(100.0)
                heads.append(log.head)
            relocated = compactor.stats.values_relocated
            assert not round_proc.processed
            store.segtbl.unlock(seg_id)
            reclaimed = yield round_proc
            return first, relocated, reclaimed, (yield from read_back(store,
                                                                     25))

        first, relocated, reclaimed, values = drive(sim, proc())
        assert set(heads) == {first}
        assert relocated > 0  # the other workers went on meanwhile
        assert reclaimed > 0 and log.head > first
        assert values == {index: ("ok", b"r05" + b"v" * 61)
                          for index in range(25)}


class TestCompactionFailsSoft:
    """A full key log must not crash the value compactor (it used to
    let LogFullError escape the node's maintenance pass and abort the
    run): the round is abandoned, counted, and a later round finishes
    the job without losing a value."""

    def _fill_key_log_to_reserve(self, store):
        """Generator: write fresh keys until client PUTs hit the key-log
        reserve; returns the keys written.  Every value entry is then
        live, so a head that passes one it did not move loses a key."""
        keys = []
        for index in range(200):
            key = b"key-%04d" % index
            result = yield from store.put(key, b"v" * 63)
            if result.status == "store_full":
                return keys
            assert result.ok, result.status
            keys.append(key)
        raise AssertionError("key log never reached its reserve")

    def test_value_round_abandoned_when_key_log_is_full(self, sim):
        """The owner's key log has only the compactor reserve left:
        value relocations that rewrite segments retry, give up and
        abandon the round; the head stays before every value that was
        not moved."""
        store = make_store(sim, key_log_bytes=32 << 10,
                           value_log_bytes=1 << 20)
        compactor = Compactor(store)
        value_log = store.value_log
        segments = store.config.num_segments

        def snapshot(keys):
            values = {}
            for key in keys:
                got = yield from store.get(key)
                assert got.ok, (key, got.status)
                values[key] = got.value
            return values

        def voffset(key):
            """Where ``key``'s value lives now."""
            location = store.segtbl.location(key_hash(key) % segments)
            return store._segments[location[0]].find(key).voffset

        def proc():
            keys = yield from self._fill_key_log_to_reserve(store)
            before = yield from snapshot(keys)
            end_tail = value_log.tail
            # Relocating every live value rewrites its segment into
            # the key log, which only has the compactor reserve left.
            yield from compactor.compact(value_log, target_fill=0.0)
            assert store.stats.compaction_aborted == 1
            stayed = [offset for offset in map(voffset, keys)
                      if offset < end_tail]
            assert stayed, "every value moved: nothing was abandoned"
            assert value_log.head <= min(stayed)
            assert (yield from snapshot(keys)) == before
            # Once the key log has room again a later round finishes.
            yield from compactor.compact(store.key_log, target_fill=0.0)
            yield from compactor.compact(value_log, target_fill=0.0)
            assert store.stats.compaction_aborted == 1
            assert value_log.head > max(stayed)
            assert (yield from snapshot(keys)) == before

        drive(sim, proc())
        assert compactor.stats.value_rounds == 2
        assert not compactor._active

    def test_key_round_abandoned_when_no_commit_can_free_room(self, sim):
        """A 100 %-full key log whose head entry is live: the lone
        worker's re-append can never fit and nobody else advances the
        head.  The round used to retry forever (the simulation never
        drained); it must give up, count the abort and leave every
        key readable."""
        store = make_store(sim, num_segments=64, key_log_bytes=8 << 10,
                           value_log_bytes=1 << 20)
        compactor = Compactor(store, CompactionConfig(subcompactions=1))
        log = store.key_log
        keys = []

        def proc():
            # Live one-block segments from the head on, up to the reserve.
            for index in range(64):
                key = b"key-%04d" % index
                result = yield from store.put(key, b"v" * 60)
                if result.status == "store_full":
                    break
                assert result.ok, result.status
                keys.append(key)
            # Eat the reserve by rewriting the newest segment (what a
            # burst of relocations does): the head entry stays live.
            last = store.segtbl.location(
                key_hash(keys[-1]) % store.config.num_segments)
            while log.free_bytes:
                segment = yield from store._read_segment(*last)
                last = yield from store._write_segment(segment.clone())
            head_segment, _chain = peek_segment_header(
                (yield from log.read(log.head, log.block_size)))
            assert store.segtbl.location(head_segment)[0] == log.head
            return (yield from compactor.compact(log, target_fill=0.0))

        round_proc = sim.process(proc(), name="round")
        sim.run(until=1_000_000.0)
        assert round_proc.processed, "key-log round still retrying"
        assert round_proc.value == 0
        assert store.stats.compaction_aborted == 1
        assert not compactor._active
        assert log.free_bytes == 0

        def readback():
            for key in keys:
                got = yield from store.get(key)
                assert got.ok and got.value == b"v" * 60, key

        drive(sim, readback())


class TestMaintenance:
    def test_watermark_triggers(self, sim):
        store = make_store(sim, key_log_bytes=32 << 10)
        compactor = Compactor(store)
        store.on_pressure = Trigger(sim,
                                    lambda _store: compactor.maintenance())

        def proc():
            for _round in range(12):
                yield from fill(store, 15)
                yield sim.timeout(200)
            return compactor.stats.key_rounds

        assert drive(sim, proc()) >= 1
        assert store.key_log.fill_fraction() < 1.0

    def test_no_compaction_below_watermark(self, sim):
        store = make_store(sim)
        compactor = Compactor(store)

        def proc():
            yield from fill(store, 5)
            ran = yield from compactor.maintenance()
            return ran

        assert drive(sim, proc()) == 0
        assert compactor.stats.key_rounds == 0


class TestSwapMergeBack:
    def test_swapped_value_merges_home(self, sim):
        """A value written to a peer store's log returns to its home
        log during value compaction (§3.6 merge-back)."""
        ssd_a = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20,
                                        block_size=512, jitter=0.0),
                        rng=RngRegistry(1), name="ssd-a")
        ssd_b = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20,
                                        block_size=512, jitter=0.0),
                        rng=RngRegistry(2), name="ssd-b")
        config = StoreConfig(num_segments=16, key_log_bytes=64 << 10,
                             value_log_bytes=128 << 10)
        home = LeedDataStore(sim, ssd_a, config, name="home", store_id=0)
        peer = LeedDataStore(sim, ssd_b, config, name="peer", store_id=1)
        for store in (home, peer):
            store.peer_value_logs.update({0: home.value_log,
                                          1: peer.value_log})
            store.peer_stores.update({0: home, 1: peer})
        # Route home's next value write to the peer SSD (a swap).
        home.value_router = lambda store, key, value: (1, peer.value_log)

        def proc():
            result = yield from home.put(b"swapped", b"payload")
            assert result.ok
            got = yield from home.get(b"swapped")
            assert got.ok and got.value == b"payload"
            # The key item records the peer as the value holder.
            location = home.segtbl.location(key_hash(b"swapped") % 16)
            # Merge back happens when the PEER compacts its value log.
            home.value_router = LeedDataStore._home_value_router
            compactor = Compactor(peer)
            yield from compactor.compact(peer.value_log, target_fill=0.0)
            got = yield from home.get(b"swapped")
            assert got.ok and got.value == b"payload"
            return compactor.stats.values_merged_home

        assert drive(sim, proc()) == 1


def press(sim, store, prefix=b"press", value_size=64):
    """Write fresh keys to ``store`` until a log it may append to is
    past its watermark.  Every write checked before it appended, so
    none has found the log past it yet: no round has started."""
    index = 0
    while not store.needs_maintenance():
        result = drive(sim, store.put(b"%s-%05d" % (prefix, index),
                                      b"v" * value_size))
        assert result.ok, result.status
        index += 1


def first_step_of_a_write(store):
    """Run one more PUT up to its first yield — its pressure check and
    hash-lookup slice — outside any dispatch, then drop it."""
    write = store.put(b"kick", b"k" * 64)
    next(write)
    write.close()


class TestTrigger:
    """One trigger starts every compaction: a write that finds a log
    past its watermark kicks the host's maintenance pass."""

    def test_first_write_past_the_watermark_starts_the_round(self, sim):
        store = make_store(sim, key_log_bytes=32 << 10)
        compactor = Compactor(store)
        store.on_pressure = Trigger(sim,
                                    lambda _store: compactor.maintenance())
        press(sim, store)
        assert not compactor._active and compactor.stats.key_rounds == 0
        dispatched = sim.events_dispatched
        first_step_of_a_write(store)
        assert sim.events_dispatched == dispatched
        assert compactor._active == {store.key_log}
        sim.run()
        assert compactor.stats.key_rounds == 1
        assert not store.needs_maintenance()

    def test_write_to_a_full_log_starts_the_round(self, sim):
        """A key log held at its reserve refuses PUTs ``store_full``, so
        they append nothing.  The check runs before that: a PUT there
        still starts the round, which frees the room the PUT needs.
        (Checked after the append, nothing would restart compaction.)"""
        store = make_store(sim, key_log_bytes=32 << 10)
        compactor = Compactor(store)

        def fill_to_reserve():
            for index in range(1000):
                result = yield from store.put(b"key-%05d" % index, b"v" * 64)
                if result.status == "store_full":
                    return
            raise AssertionError("key log never reached its reserve")

        drive(sim, fill_to_reserve())
        store.on_pressure = Trigger(sim,
                                    lambda _store: compactor.maintenance())
        assert drive(sim, store.put(b"kick", b"v" * 64)).ok
        sim.run()
        assert compactor.stats.key_rounds == 1


def pressure_cluster():
    """Three JBOFs whose 1 MB key logs reach their watermark after
    ~200 PUTs; heartbeats off."""
    cluster = LeedCluster(ClusterConfig(
        num_jbofs=3, ssds_per_jbof=2, num_clients=1,
        store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                          value_log_bytes=256 << 10),
        options=LeedOptions(heartbeat_period_us=1e9), seed=0))
    cluster.start()
    cluster.sim.run(until=10_000.0)  # membership pushes land
    return cluster


class TestNodeTrigger:
    def test_idle_cluster_dispatches_no_maintenance_events(self):
        cluster = pressure_cluster()
        sim = cluster.sim
        # The control plane's failure monitor and one heartbeat per
        # JBOF wait on the schedule; nothing polls the logs.
        assert sim.pending_events == 1 + len(cluster.jbofs)
        sim.run(until=1_000_000.0)
        assert sim.pending_events == 1 + len(cluster.jbofs)
        assert all(runtime.compactor.stats.key_rounds == 0
                   and runtime.compactor.stats.value_rounds == 0
                   for node in cluster.jbofs
                   for runtime in node.vnodes.values())

    def test_node_runs_one_pass_at_a_time(self):
        """A kick while the node's pass runs is dropped; the running
        pass goes on to compact every vnode that needs it."""
        cluster = pressure_cluster()
        sim = cluster.sim
        node = cluster.jbofs[0]
        first, second = (node.vnodes[vnode_id]
                         for vnode_id in sorted(node.vnodes))
        press(sim, first.store, b"first")
        press(sim, second.store, b"second")
        first_step_of_a_write(first.store)
        assert node._maintenance.running == {first.store}
        assert first.compactor._active == {first.store.key_log}
        first_step_of_a_write(second.store)
        assert node._maintenance.running == {first.store}
        assert not second.compactor._active
        sim.run(until=sim.now + 200_000.0)
        assert not node._maintenance.running
        assert first.compactor.stats.key_rounds == 1
        assert second.compactor.stats.key_rounds == 1
        assert not first.store.needs_maintenance()
        assert not second.store.needs_maintenance()

    @pytest.mark.parametrize("down", ["crash", "stop"])
    def test_node_down_starts_no_round(self, down):
        cluster = pressure_cluster()
        sim = cluster.sim
        node = cluster.jbofs[0]
        runtime = node.vnodes[sorted(node.vnodes)[0]]
        press(sim, runtime.store)
        getattr(node, down)()
        first_step_of_a_write(runtime.store)
        assert not node._maintenance.running
        assert not runtime.compactor._active
        node.alive = True  # back up (what ``recover`` sets)
        first_step_of_a_write(runtime.store)
        assert runtime.compactor._active == {runtime.store.key_log}

    def test_every_installed_vnode_kicks_its_node(self):
        """``install_vnode`` (Fig. 9's new vnodes), ``power_restore``,
        ``upgrade`` and ``add_jbof`` all host stores whose writes kick
        their node's maintenance."""
        cluster = pressure_cluster()
        sim = cluster.sim

        def hooked(node):
            return all(runtime.store.on_pressure == node._on_pressure
                       for runtime in node.vnodes.values())

        host = cluster.jbofs[0]
        joined = host._make_vnode(host.address + "/pnew", host.ssds[-1],
                                  len(host.ssds) - 1, 1, 50)
        host.install_vnode(joined)
        cluster.power_fail_jbof(1)
        drive(sim, cluster.power_restore_jbof(1))
        cluster.jbofs[2].upgrade("v2")
        drive(sim, cluster.add_jbof())
        assert len(cluster.jbofs) == 4
        for node in cluster.jbofs:
            assert hooked(node), node.address
        press(sim, joined.store)
        first_step_of_a_write(joined.store)
        assert joined.compactor._active == {joined.store.key_log}

    def test_value_log_filled_by_swapped_writes_is_compacted(self):
        """Swapped values fill a peer's value log while the peer itself
        takes no write: the swapping store's writes see that log and
        kick the node, whose pass compacts it and merges the values
        home (§3.6)."""
        cluster = pressure_cluster()
        sim = cluster.sim
        node = cluster.jbofs[0]
        home, peer = (node.vnodes[vnode_id]
                      for vnode_id in sorted(node.vnodes))
        home.store.value_router = (
            lambda store, key, value: (peer.store.store_id,
                                       peer.store.value_log))
        press(sim, home.store, value_size=4096)
        assert home.store.needs_compaction(peer.store.value_log)
        assert not home.store.needs_compaction(home.store.key_log)
        home.store.value_router = LeedDataStore._home_value_router
        first_step_of_a_write(home.store)
        assert peer.compactor._active == {peer.store.value_log}
        sim.run(until=sim.now + 200_000.0)
        assert peer.compactor.stats.value_rounds == 1
        assert peer.compactor.stats.values_merged_home > 0
        assert not home.store.needs_compaction(peer.store.value_log)
