"""Tests for the FAWN-KV baseline store."""

import pytest

from repro.baselines.fawn.datastore import (
    FAWN_INDEX_BYTES_PER_OBJECT,
    FawnConfig,
    FawnDataStore,
)
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive, scan_pairs


def make_store(sim, dram=None, **config_kwargs):
    defaults = dict(log_bytes=1 << 20)
    defaults.update(config_kwargs)
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20, block_size=512,
                                  jitter=0.0), rng=RngRegistry(4))
    return FawnDataStore(sim, ssd, FawnConfig(**defaults), dram=dram)


class TestSemantics:
    def test_put_get_roundtrip(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.get(b"k"))

        result = drive(sim, proc())
        assert result.ok and result.value == b"v"

    def test_overwrite(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v1")
            yield from store.put(b"k", b"v2")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).value == b"v2"

    def test_delete(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            yield from store.delete(b"k")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).status == "not_found"

    def test_single_nvme_access_per_command(self, sim):
        """FAWN's headline: one device access per GET/PUT (§4.2)."""
        store = make_store(sim)

        def proc():
            put = yield from store.put(b"k", b"v")
            got = yield from store.get(b"k")
            return put, got

        put, got = drive(sim, proc())
        assert put.nvme_accesses == 1
        assert got.nvme_accesses == 1

    def test_get_faster_than_leed(self, sim):
        """One access -> roughly half LEED's GET latency (Table 3)."""
        from repro.core.datastore import LeedDataStore, StoreConfig
        fawn = make_store(sim)
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(6))
        leed = LeedDataStore(sim, ssd, StoreConfig(
            num_segments=32, key_log_bytes=1 << 20,
            value_log_bytes=4 << 20))

        def proc():
            yield from fawn.put(b"k", b"v" * 100)
            yield from leed.put(b"k", b"v" * 100)
            fawn_got = yield from fawn.get(b"k")
            leed_got = yield from leed.get(b"k")
            return fawn_got.total_us, leed_got.total_us

        fawn_us, leed_us = drive(sim, proc())
        assert fawn_us < 0.7 * leed_us


class TestSynchronousIO:
    def test_serialized_by_default(self, sim):
        """FAWN-DS blocks in I/O: concurrent ops serialize (the
        behaviour that caps FAWN-JBOF throughput in Table 3) — four
        writes started together take four writes' time, not one's."""
        store = make_store(sim)
        one = drive(sim, store.put(b"k", b"v")).total_us
        start = sim.now

        def writer(index):
            return (yield from store.put(b"k%d" % index, b"v"))

        for index in range(4):
            sim.process(writer(index))
        sim.run()
        assert sim.now - start > 3.5 * one


class TestDramLimit:
    def test_index_budget_caps_objects(self, sim):
        store = make_store(sim, dram=Dram(10 * FAWN_INDEX_BYTES_PER_OBJECT))

        def proc():
            statuses = []
            for index in range(15):
                result = yield from store.put(b"key-%02d" % index, b"v")
                statuses.append(result.status)
            return statuses

        statuses = drive(sim, proc())
        assert statuses.count("ok") == 10
        assert statuses.count("store_full") == 5

    def test_dram_reservation_tracks_population(self, sim):
        dram = Dram(1 << 20)
        store = make_store(sim, dram=dram)

        def proc():
            for index in range(20):
                yield from store.put(b"key-%02d" % index, b"v")
            yield from store.delete(b"key-00")

        drive(sim, proc())
        assert dram.reservation(store.index_budget.label) == \
            19 * FAWN_INDEX_BYTES_PER_OBJECT

    def test_delete_frees_index_slot(self, sim):
        store = make_store(sim, dram=Dram(2 * FAWN_INDEX_BYTES_PER_OBJECT))

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            full = yield from store.put(b"c", b"3")
            yield from store.delete(b"a")
            retry = yield from store.put(b"c", b"3")
            return full.status, retry.status

        assert drive(sim, proc()) == ("store_full", "ok")


class TestLogCleaning:
    def test_cleaning_reclaims_and_preserves(self, sim):
        store = make_store(sim, log_bytes=64 << 10,
                           compact_high_watermark=0.6,
                           compact_low_watermark=0.3)

        def proc():
            for _round in range(10):
                for index in range(20):
                    result = yield from store.put(b"key-%02d" % index,
                                                  b"v" * 100)
                    if not result.ok:
                        yield from store.clean(target_fill=0.2)
            yield from store.clean(target_fill=0.2)
            for index in range(20):
                got = yield from store.get(b"key-%02d" % index)
                assert got.ok
            return store.stats.cleanings

        assert drive(sim, proc()) >= 1
        assert store.stats.bytes_reclaimed > 0

    def test_scan(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.delete(b"a")
            return (yield from scan_pairs(store))

        assert drive(sim, proc()) == {b"b": b"2"}

    @pytest.mark.parametrize("op", ["put", "del"])
    def test_write_racing_a_cleaner_append_wins(self, op):
        """A PUT or DEL of a key whose live entry the cleaner is
        re-appending wins, whenever it lands: the cleaner repoints the
        index only if it still points at the entry it copied.  Every
        start 0-1 400 µs into a full clean of 40 entries is tried."""
        lost = []
        for delay in range(0, 1400, 2):
            sim = Simulator()
            store = make_store(sim, log_bytes=64 << 10)

            def fill():
                for index in range(40):
                    yield from store.put(b"k%03d" % index, b"o" * 200)

            def write():
                yield sim.timeout(delay)
                if op == "put":
                    return (yield from store.put(b"k020", b"n" * 200))
                return (yield from store.delete(b"k020"))

            drive(sim, fill())
            sim.process(store.clean(target_fill=0.0))
            assert drive(sim, write()).ok
            sim.run()
            got = drive(sim, store.get(b"k020"))
            if (got.value if got.ok else None) != (
                    b"n" * 200 if op == "put" else None):
                lost.append(delay)
        assert not lost
