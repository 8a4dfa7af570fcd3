"""Tests for the LSM-tree baseline: bloom, sstable, datastore."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.lsm.bloom import BloomFilter
from repro.baselines.lsm.datastore import LsmConfig, LsmDataStore
from repro.baselines.lsm.sstable import DELETED, write_sstable
from repro.core.compaction import Trigger
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry

from conftest import drive, scan_pairs


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(100)
        keys = [b"key-%03d" % i for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter(500, bits_per_key=10)
        for index in range(500):
            bloom.add(b"member-%04d" % index)
        false_positives = sum(
            1 for index in range(5000)
            if bloom.might_contain(b"stranger-%05d" % index))
        # ~1% theoretical at 10 bits/key; allow generous slack.
        assert false_positives / 5000 < 0.05

    def test_empty_contains_nothing(self):
        bloom = BloomFilter(10)
        assert not bloom.might_contain(b"anything")
        assert bloom.fill_ratio() == 0.0

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            BloomFilter(0)
        with pytest.raises(ValueError):
            BloomFilter(10, bits_per_key=0)

    @settings(max_examples=20, deadline=None)
    @given(keys=st.sets(st.binary(min_size=1, max_size=24), min_size=1,
                        max_size=100))
    def test_membership_property(self, keys):
        bloom = BloomFilter(len(keys))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)


class TestSSTable:
    def build(self, sim, records):
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(6))

        def proc():
            return (yield from write_sstable(ssd, 0, 512, records))

        return drive(sim, proc())

    def test_point_lookups(self, sim):
        records = [(b"k%03d" % i, b"v%03d" % i) for i in range(200)]
        table = self.build(sim, records)

        def proc():
            hits = []
            for index in (0, 57, 123, 199):
                value = yield from table.get(b"k%03d" % index)
                hits.append(value)
            missing = yield from table.get(b"k999")
            return hits, missing

        hits, missing = drive(sim, proc())
        assert hits == [b"v000", b"v057", b"v123", b"v199"]
        assert missing is None

    def test_tombstones_visible(self, sim):
        records = [(b"a", b"1"), (b"b", None), (b"c", b"3")]
        table = self.build(sim, records)

        def proc():
            return (yield from table.get(b"b"))

        assert drive(sim, proc()) is DELETED

    def test_scan_all_roundtrip(self, sim):
        records = [(b"k%02d" % i, b"value-%02d" % i) for i in range(50)]
        table = self.build(sim, records)

        def proc():
            return (yield from table.scan_all())

        assert drive(sim, proc()) == records

    def test_out_of_range_needs_no_io(self, sim):
        records = [(b"m%02d" % i, b"v") for i in range(10)]
        table = self.build(sim, records)
        reads_before = table.ssd.stats.reads_completed

        def proc():
            low = yield from table.get(b"a")
            high = yield from table.get(b"z")
            return low, high

        low, high = drive(sim, proc())
        assert low is None and high is None
        assert table.ssd.stats.reads_completed == reads_before

    def test_empty_input_returns_none(self, sim):
        assert self.build(sim, []) is None


def make_store(sim, **overrides):
    config_kwargs = dict(region_bytes=48 << 20, memtable_bytes=2 << 10,
                         l0_limit=3, l1_bytes=16 << 10)
    config_kwargs.update(overrides)
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=64 << 20, block_size=512,
                                  jitter=0.0), rng=RngRegistry(8))
    return LsmDataStore(sim, ssd, LsmConfig(**config_kwargs))


class TestLsmStore:
    def test_put_get_through_flush(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(300):
                result = yield from store.put(b"key-%04d" % index,
                                              b"value-%04d" % index)
                assert result.ok
            assert store.stats.flushes > 0
            for index in range(0, 300, 17):
                got = yield from store.get(b"key-%04d" % index)
                assert got.ok and got.value == b"value-%04d" % index

        drive(sim, proc())

    def test_overwrite_latest_wins_across_levels(self, sim):
        store = make_store(sim)

        def proc():
            for round_index in range(4):
                for index in range(60):
                    yield from store.put(b"k%02d" % index,
                                         b"round-%d" % round_index)
            got = yield from store.get(b"k30")
            return got

        assert drive(sim, proc()).value == b"round-3"

    def test_delete_shadows_older_levels(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(150):
                yield from store.put(b"k%03d" % index, b"v")
            yield from store.delete(b"k010")
            # Push the tombstone through a flush.
            for index in range(150, 300):
                yield from store.put(b"k%03d" % index, b"v")
            got = yield from store.get(b"k010")
            return got.status

        assert drive(sim, proc()) == "not_found"

    def test_compaction_triggers_and_preserves(self, sim):
        store = make_store(sim)

        def proc():
            for round_index in range(10):
                for index in range(80):
                    yield from store.put(b"k%02d" % (index % 90),
                                         b"r%d-%02d" % (round_index, index))
            assert store.stats.compactions > 0
            return (yield from scan_pairs(store))

        pairs = drive(sim, proc())
        assert pairs  # data survived the merge cascade

    def test_writes_kick_one_l0_merge_at_a_time(self, sim):
        """Concurrent writers while a flush merges an overfull L0 do not
        kick a second merge of the same runs (it would release their
        extents twice); an L0 left over its limit outside a flush is
        merged by the next write's kick."""
        store = make_store(sim)
        store.on_pressure = Trigger(sim, lambda lsm: lsm.maintenance())
        merging = []
        overlaps = []
        compact_level = store._compact_level

        def tracked(level):
            # A merge cascading into the next level nests; only a
            # second merge of the same level overlaps.
            overlaps.append(merging.count(level))
            merging.append(level)
            try:
                yield from compact_level(level)
            finally:
                merging.remove(level)

        store._compact_level = tracked

        def writer(offset):
            for index in range(150):
                result = yield from store.put(b"w%d-%04d" % (offset, index),
                                              b"v" * 32)
                assert result.ok

        sim.run(until=sim.all_of([sim.process(writer(offset))
                                  for offset in range(4)]))
        assert store.stats.compactions > 0
        assert overlaps == [0] * len(overlaps)
        # L0 over a limit lowered under it, no flush running: the
        # next write kicks the merge.
        while len(store.levels[0]) < 2:
            drive(sim, writer(len(store.levels[0]) + 10))
        store.config.l0_limit = 1
        merges = store.stats.compactions
        drive(sim, store.put(b"kick", b"v"))
        sim.run()
        assert store.stats.compactions == merges + 1
        assert not store.levels[0]

    def test_writes_landing_mid_flush_or_merge_survive(self, sim):
        """Every acked PUT of four concurrent writers reads back: writes
        landing while the memtable flushes go to a fresh memtable, and
        a merge kicked by a write keeps the runs flushed meanwhile."""
        store = make_store(sim)
        store.on_pressure = Trigger(sim, lambda lsm: lsm.maintenance())
        acked = {}

        def writer(offset):
            for index in range(150):
                key = b"w%d-%04d" % (offset, index)
                result = yield from store.put(key, b"v%d" % index)
                if result.ok:
                    acked[key] = b"v%d" % index

        def read_back():
            lost = []
            for key, value in sorted(acked.items()):
                got = yield from store.get(key)
                if got.value != value:
                    lost.append(key)
            return lost

        sim.run(until=sim.all_of([sim.process(writer(offset))
                                  for offset in range(4)]))
        sim.run()
        assert len(acked) == 600
        assert store.stats.flushes > 1 and store.stats.compactions > 0
        assert drive(sim, read_back()) == []
        assert drive(sim, scan_pairs(store)) == acked

    def test_a_full_memtable_stalls_writes_until_the_flush_ends(self, sim):
        """While a flush (and the merge it runs) is in flight, writes go
        into a fresh memtable only until it is full: past that they wait
        for the flush, so the memtable never holds more than its budget
        plus the one record that filled it."""
        store = make_store(sim)
        store.on_pressure = Trigger(sim, lambda lsm: lsm.maintenance())
        record = len(b"w0-0000") + 32 + 8
        peak = []

        def writer(offset):
            for index in range(150):
                result = yield from store.put(b"w%d-%04d" % (offset, index),
                                              b"v" * 32)
                assert result.ok
                peak.append(store.memtable_bytes)

        sim.run(until=sim.all_of([sim.process(writer(offset))
                                  for offset in range(8)]))
        assert store.stats.compactions > 0
        assert max(peak) < store.config.memtable_bytes + record

    def test_a_merge_keeps_runs_flushed_while_it_runs(self, sim):
        """A merge kicked by a write (L0 over its limit, no flush
        running) replaces only the runs it read: a run that writers
        flush meanwhile stays in L0, and the flush does not start a
        second merge of the same runs."""
        store = make_store(sim)
        store.on_pressure = Trigger(sim, lambda lsm: lsm.maintenance())
        merging = []
        flushed_during = []
        compact_level = store._compact_level

        def tracked(level):
            assert level not in merging  # one merge of a level at a time
            merging.append(level)
            flushes = store.stats.flushes
            try:
                yield from compact_level(level)
            finally:
                merging.remove(level)
            if level == 0:
                flushed_during.append(store.stats.flushes - flushes)

        store._compact_level = tracked

        def writer(prefix, count):
            for index in range(count):
                result = yield from store.put(b"%s-%04d" % (prefix, index),
                                              b"v" * 32)
                assert result.ok

        drive(sim, writer(b"base", 400))
        while len(store.levels[0]) < 2:
            drive(sim, writer(b"fill%d" % len(store.levels[0]), 50))
        store.config.l0_limit = 1
        del flushed_during[:]
        racers = [sim.process(writer(b"race%d" % offset, 40))
                  for offset in range(8)]
        sim.run(until=sim.all_of(racers))
        sim.run()
        assert any(flushed_during)

        def read_back():
            lost = []
            for offset in range(8):
                for index in range(40):
                    key = b"race%d-%04d" % (offset, index)
                    if not (yield from store.get(key)).ok:
                        lost.append(key)
            return lost

        assert drive(sim, read_back()) == []

    def test_write_amplification_tracked(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(250):
                yield from store.put(b"key-%04d" % index, b"x" * 64)
            return store.stats.write_amplification()

        amplification = drive(sim, proc())
        assert amplification > 1.0  # WAL + flush + merges

    def test_bloom_filters_skip_tables(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(400):
                yield from store.put(b"key-%04d" % index, b"v" * 32)
            for index in range(50):
                yield from store.get(b"absent-%04d" % index)
            return store.stats.bloom_skips

        assert drive(sim, proc()) > 0

    def test_scan_matches_shadow(self, sim):
        store = make_store(sim)
        rng = random.Random(5)

        def proc():
            shadow = {}
            for step in range(500):
                key = b"k%02d" % rng.randrange(60)
                if rng.random() < 0.7:
                    value = b"v%04d" % step
                    yield from store.put(key, value)
                    shadow[key] = value
                else:
                    yield from store.delete(key)
                    shadow.pop(key, None)
            pairs = yield from scan_pairs(store)
            return pairs, shadow

        pairs, shadow = drive(sim, proc())
        assert pairs == shadow
