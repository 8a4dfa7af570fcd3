"""Tests for the LEED data store: GET/PUT/DEL semantics (§3.2-3.3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compaction import CompactionConfig, Compactor
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.io_engine import KVCommand, PartitionIOEngine
from repro.core.segment import key_hash
from repro.hw.cpu import Core
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.obs.spans import Tracer
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive, scan_pairs


def make_store(sim, quiet=True, **config_kwargs):
    defaults = dict(num_segments=64, key_log_bytes=2 << 20,
                    value_log_bytes=8 << 20)
    defaults.update(config_kwargs)
    profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                         jitter=0.0 if quiet else 0.1)
    ssd = NVMeSSD(sim, profile, rng=RngRegistry(5))
    return LeedDataStore(sim, ssd, StoreConfig(**defaults))


class TestBasicSemantics:
    def test_put_get_roundtrip(self, sim):
        store = make_store(sim)

        def proc():
            put = yield from store.put(b"key", b"value")
            got = yield from store.get(b"key")
            return put, got

        put, got = drive(sim, proc())
        assert put.ok
        assert got.ok
        assert got.value == b"value"

    def test_get_missing(self, sim):
        store = make_store(sim)

        def proc():
            return (yield from store.get(b"ghost"))

        assert drive(sim, proc()).status == "not_found"

    def test_overwrite_returns_latest(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v1")
            yield from store.put(b"k", b"v2")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).value == b"v2"

    def test_delete_then_get(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            deleted = yield from store.delete(b"k")
            got = yield from store.get(b"k")
            return deleted, got

        deleted, got = drive(sim, proc())
        assert deleted.ok
        assert got.status == "not_found"

    def test_delete_missing(self, sim):
        store = make_store(sim)

        def proc():
            return (yield from store.delete(b"never"))

        assert drive(sim, proc()).status == "not_found"

    def test_reinsert_after_delete(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"old")
            yield from store.delete(b"k")
            yield from store.put(b"k", b"new")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).value == b"new"

    def test_empty_value_rejected(self, sim):
        store = make_store(sim)
        with pytest.raises(ValueError):
            drive(sim, store.put(b"k", b""))

    def test_live_object_accounting(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.put(b"a", b"3")  # overwrite: no change
            yield from store.delete(b"b")
            return store.live_objects

        assert drive(sim, proc()) == 1


class TestNVMeAccessCounts:
    """The paper's 2/3/2 device accesses for GET/PUT/DEL (§3.3)."""

    def test_get_two_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.get(b"k"))

        assert drive(sim, proc()).nvme_accesses == 2

    def test_put_three_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")        # first: segment new
            return (yield from store.put(b"k", b"w"))

        assert drive(sim, proc()).nvme_accesses == 3

    def test_del_two_accesses(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.delete(b"k"))

        assert drive(sim, proc()).nvme_accesses == 2

    def test_put_overlaps_read_and_value_write(self, sim):
        """PUT is cheaper than GET despite one more access (Fig. 11)."""
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v" * 256)
            put = yield from store.put(b"k", b"w" * 256)
            got = yield from store.get(b"k")
            return put.total_us, got.total_us

        put_us, get_us = drive(sim, proc())
        assert put_us < get_us

    def test_ssd_time_dominates(self, sim):
        """SSD accesses are ~97% of command latency (Fig. 11)."""
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v" * 100)
            return (yield from store.get(b"k"))

        result = drive(sim, proc())
        assert result.ssd_us / result.total_us > 0.9


class TestCapacityLimits:
    def test_value_log_full(self, sim):
        store = make_store(sim, value_log_bytes=64 << 10,
                           key_log_bytes=1 << 20)

        def proc():
            status = None
            for index in range(200):
                result = yield from store.put(b"k%03d" % index, b"v" * 1024)
                if not result.ok:
                    status = result.status
                    break
            return status

        assert drive(sim, proc()) == "store_full"

    def test_segment_full(self, sim, monkeypatch):
        monkeypatch.setattr(LeedDataStore, "MAX_CHAIN", 1)
        store = make_store(sim, num_segments=1)

        def proc():
            status = None
            for index in range(100):
                result = yield from store.put(b"key-%04d" % index, b"v")
                if not result.ok:
                    status = result.status
                    break
            return status

        assert drive(sim, proc()) == "store_full"


class TestScan:
    def test_scan_returns_live_pairs(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.put(b"c", b"3")
            yield from store.delete(b"b")
            return (yield from scan_pairs(store))

        assert drive(sim, proc()) == {b"a": b"1", b"c": b"3"}

    def test_scan_with_predicate(self, sim):
        store = make_store(sim)

        def proc():
            for index in range(10):
                yield from store.put(b"k%d" % index, b"v%d" % index)
            return (yield from scan_pairs(
                store, predicate=lambda key: key.endswith(b"3")))

        assert drive(sim, proc()) == {b"k3": b"v3"}

    def test_scan_waits_for_the_event_visit_returns(self, sim):
        """``visit`` runs in the dispatch of its pair's read; the event
        it returns holds the scan (and the segment lock) until it
        fires."""
        store = make_store(sim)
        visits = []

        def visit(key, value):
            visits.append((key, sim.now))
            return sim.timeout(100.0)

        def proc():
            for index in range(7):
                yield from store.put(b"k%d" % index, b"v")
            yield from store.scan(None, visit)

        drive(sim, proc())
        assert sorted(key for key, _at in visits) == [
            b"k%d" % index for index in range(7)]
        times = [at for _key, at in visits]
        assert all(later - earlier >= 100.0
                   for earlier, later in zip(times, times[1:]))


class TestConcurrency:
    def test_concurrent_puts_distinct_keys(self, sim):
        store = make_store(sim)

        def writer(key, value):
            return (yield from store.put(key, value))

        procs = [sim.process(writer(b"key-%d" % i, b"val-%d" % i))
                 for i in range(20)]
        sim.run()

        def check():
            for index in range(20):
                got = yield from store.get(b"key-%d" % index)
                assert got.ok and got.value == b"val-%d" % index

        drive(sim, check())

    def test_same_segment_writes_serialize(self, sim):
        """The lock bit forces same-key writers to serialize; the last
        value to commit wins and the store never corrupts."""
        store = make_store(sim)

        def writer(value):
            return (yield from store.put(b"hot", value))

        for index in range(10):
            sim.process(writer(b"v%d" % index))
        sim.run()

        def check():
            got = yield from store.get(b"hot")
            return got

        got = drive(sim, check())
        assert got.ok
        assert got.value in {b"v%d" % i for i in range(10)}

    def test_reads_concurrent_with_writes(self, sim):
        store = make_store(sim)
        results = []

        def writer():
            for index in range(30):
                yield from store.put(b"x", b"value-%02d" % index)

        def reader():
            for _ in range(30):
                result = yield from store.get(b"x")
                if result.ok:
                    results.append(result.value)
                yield sim.timeout(10)

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert all(value.startswith(b"value-") for value in results)


class TestShadowModel:
    """Randomized operation sequences against a dict reference."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_dict_semantics(self, seed):
        sim = Simulator()
        store = make_store(sim)
        rng = random.Random(seed)

        def proc():
            shadow = {}
            for step in range(120):
                key = b"k%02d" % rng.randrange(25)
                action = rng.random()
                if action < 0.5:
                    value = b"v-%d-%d" % (seed, step)
                    result = yield from store.put(key, value)
                    assert result.ok
                    shadow[key] = value
                elif action < 0.8:
                    result = yield from store.get(key)
                    if key in shadow:
                        assert result.ok and result.value == shadow[key]
                    else:
                        assert result.status == "not_found"
                else:
                    result = yield from store.delete(key)
                    if key in shadow:
                        assert result.ok
                        del shadow[key]
                    else:
                        assert result.status == "not_found"
            assert store.live_objects == len(shadow)

        process = sim.process(proc())
        sim.run(until=process)


class TestTwoClocks:
    """``get`` (reference clock: one event per stage) and ``get_at``
    (analytic clock: chained completion times) run the same pipeline
    body; on an idle, jitter-free device they must report the same
    thing to the last bit.  The one place they may differ is a read
    that wraps the end of the key log: the reference clock issues its
    two device reads back to back, the analytic clock both at once."""

    #: ~50 keys per segment: three-block segments, so appends land on
    #: every block parity and one soon sits astride the wrap.
    LIVE = [b"live-%02d" % i for i in range(100)]
    SLOT_US = 1000.0

    @staticmethod
    def _segment_of(store, key):
        return key_hash(key) % store.config.num_segments

    def _wraps(self, store, key):
        location = store.segtbl.location(self._segment_of(store, key))
        offset, chain_len = location
        log = store.key_log
        return offset % log.size + chain_len * log.block_size > log.size

    def _twin(self):
        """A store with a bound core whose key log has wrapped, holding
        live keys, one tombstone and one segment astride the wrap.
        Built through the reference paths only, so every twin is in
        the same state at the same simulated time."""
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        store = LeedDataStore(
            sim, ssd, StoreConfig(num_segments=2, key_log_bytes=16 << 10,
                                  value_log_bytes=1 << 20,
                                  compact_high_watermark=0.5,
                                  compact_low_watermark=0.25),
            core=Core(sim, 3.0))
        compactor = Compactor(store, CompactionConfig(subcompactions=1))

        def setup():
            for lap in range(600):
                if store.needs_compaction(store.key_log):
                    yield from compactor.compact(store.key_log)
                key = self.LIVE[lap % len(self.LIVE)]
                assert (yield from store.put(key, b"v-" + key)).ok
                if lap >= len(self.LIVE) and self._wraps(store, key):
                    break
            else:
                raise AssertionError("no segment landed astride the wrap")
            astride = self._segment_of(store, key)
            dead = next(k for k in self.LIVE
                        if self._segment_of(store, k) != astride)
            assert (yield from store.delete(dead)).ok
            return key, dead

        astride, dead = drive(sim, setup())
        assert self._wraps(store, astride) and store.key_log.head > 0
        return sim, store, astride, dead

    def _get_on_both(self, ref, ana, key, slot):
        """One GET per clock from the same absolute instant ``slot``,
        with core and SSD idle; returns ``(reference, analytic, done)``."""
        ref.sim.run(until=slot)
        ana.sim.run(until=slot)
        expected = drive(ref.sim, ref.get(key))
        result, done = ana.get_at(key)
        return expected, result, done

    @settings(max_examples=25, deadline=None)
    @given(picks=st.lists(st.integers(0, len(LIVE) + 1), min_size=1,
                          max_size=30))
    def test_get_and_get_at_agree(self, picks):
        _sim, ref, astride, dead = self._twin()
        _sim, ana, _astride, _dead = self._twin()
        assert ref.sim.now == ana.sim.now
        missing = next(key for key in (b"absent-%d" % i for i in range(99))
                       if not self._wraps(ref, key))
        pool = self.LIVE + [missing, dead]
        slot = (ref.sim.now // self.SLOT_US + 1) * self.SLOT_US
        for pick in picks:
            key = pool[pick]
            if self._wraps(ref, key):
                continue
            expected, result, done = self._get_on_both(ref, ana, key, slot)
            slot += self.SLOT_US
            assert expected.ok == (key in self.LIVE and key != dead)
            assert result == expected
            assert done == ref.sim.now
        assert ana.stats == ref.stats
        assert ana.ssd.stats == ref.ssd.stats

        # The segment astride the wrap: same answer and device work,
        # but the analytic clock overlaps the two halves of the read.
        expected, result, _done = self._get_on_both(ref, ana, astride, slot)
        assert result.ok and (result.value, result.nvme_accesses) == (
            expected.value, expected.nvme_accesses)
        assert result.total_us < expected.total_us
        for name in ("reads_completed", "read_bytes", "busy_time_us",
                     "queue_wait_us"):
            assert getattr(ana.ssd.stats, name) == getattr(ref.ssd.stats, name)
        # ...and the clocks are back in step on the next GET.
        expected, result, done = self._get_on_both(
            ref, ana, missing, slot + self.SLOT_US)
        assert result == expected and done == ref.sim.now

    def test_traced_get_on_fused_store_takes_reference_clock(self):
        """The engine's ``submit`` is where a GET is fused, and a
        traced one is not."""
        ref_sim, ref, astride, dead = self._twin()
        sim, store, _astride, _dead = self._twin()
        engine = PartitionIOEngine(sim, store)
        key = next(k for k in self.LIVE
                   if k != dead and not self._wraps(ref, k))
        root = Tracer(sim).trace("get", track="test")
        expected = drive(ref_sim, ref.get(key))
        before = sim.events_dispatched
        result = sim.run(until=engine.submit(
            KVCommand("get", key, trace=root)))
        traced_events = sim.events_dispatched - before
        assert result == expected and result.ok
        # Device spans only exist on the reference clock, one per access.
        reads = [span for span in root.tracer.spans
                 if span.name == "ssd.read"]
        assert len(reads) == result.nvme_accesses == 2
        # Untraced, the same GET is fused: its four stages are one event.
        before = sim.events_dispatched
        fused = sim.run(until=engine.submit(KVCommand("get", key)))
        assert fused.value == expected.value
        assert sim.events_dispatched - before <= traced_events - 3


class TestRefusedWritesLeaveAccountingAlone:
    """A PUT / DEL refused with ``store_full`` at the segment append
    (key log at its compaction reserve) must not count the object or
    the garbage it would have produced — the engine retries such a PUT
    up to 20 times, and every retry used to leak again."""

    @staticmethod
    def _full_store(sim):
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        store = LeedDataStore(sim, ssd, StoreConfig(
            num_segments=8, key_log_bytes=16 * 512, value_log_bytes=1 << 20))

        def fill():
            statuses = []
            for index in range(60):
                result = yield from store.put(b"key-%03d" % index, b"v" * 40)
                statuses.append(result.status)
            return statuses

        return store, drive(sim, fill())

    def test_refused_puts_do_not_count_as_live_objects(self, sim):
        from repro.core.recovery import recover_store
        from repro.core.segment import value_entry_size

        store, statuses = self._full_store(sim)
        assert (statuses.count("ok"), statuses.count("store_full")) == (12, 48)
        assert store.live_objects == 12
        # Each refused PUT had already written its value entry; nothing
        # points at it, so it is value-log garbage.
        assert store.stats.value_garbage_bytes == 48 * value_entry_size(7, 40)
        # ...and the count is what a recovery scan of the flash finds.
        fresh = LeedDataStore(sim, store.ssd, store.config)
        assert drive(sim, recover_store(fresh)).live_objects == 12

    def test_refused_delete_keeps_the_object(self, sim):
        store, statuses = self._full_store(sim)
        key = b"key-%03d" % statuses.index("ok")
        garbage = store.stats.value_garbage_bytes
        result = drive(sim, store.delete(key))
        assert result.status == "store_full" and result.nvme_accesses == 1
        assert store.live_objects == 12
        assert store.stats.value_garbage_bytes == garbage
        assert drive(sim, store.get(key)).ok

    def test_segment_full_put_is_not_counted_either(self, sim, monkeypatch):
        monkeypatch.setattr(LeedDataStore, "MAX_CHAIN", 1)
        store = make_store(sim, num_segments=1)

        def fill():
            index = 0
            while (yield from store.put(b"key-%04d" % index, b"v")).ok:
                index += 1
            return index

        stored = drive(sim, fill())
        assert stored > 0 and store.live_objects == stored


class TestWriteBodyFrozen:
    """PUT and DEL are one staged body (``_write_stages``).  On an idle,
    jitter-free store it must report — result, ``StoreStats``,
    ``SSDStats``, core counters — exactly what the separate ``put`` /
    ``delete`` of commit acc8f7d reported; the values below were
    printed by that commit for this script."""

    SCRIPT = [
        # op, key, value, status, total_us, ssd_us, cpu_us, accesses
        ("del", b"key-00", None, "not_found",
         0.10000000000002274, 0.0, 0.10000000000002274, 0),  # no segment
        ("put", b"key-04", b"first", "ok",
         52.998095238095175, 52.73142857142852, 0.2666666666666515, 2),
        ("put", b"key-05", b"second-value", "ok",
         81.80304761904745, 81.53638095238102, 0.26666666666642413, 3),
        ("put", b"key-04", b"overwritten!", "ok",
         81.80304761904745, 81.53638095238102, 0.26666666666642413, 3),
        ("del", b"key-04", None, "ok",
         81.80304761904881, 81.53638095238148, 0.26666666666733363, 2),
        ("del", b"key-06", None, "not_found",               # absent key
         55.27066666666724, 55.170666666666875, 0.1000000000003638, 1),
        ("put", b"key-04", b"again", "ok",                  # over a tombstone
         81.80304761904881, 81.53638095238148, 0.26666666666733363, 3),
        ("del", b"key-05", None, "ok",
         81.80304761904881, 81.53638095238148, 0.26666666666733363, 2),
    ]

    def test_results_and_statistics_match_the_parent(self):
        from dataclasses import asdict

        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        store = LeedDataStore(
            sim, ssd, StoreConfig(num_segments=2, key_log_bytes=64 << 10,
                                  value_log_bytes=1 << 20),
            core=Core(sim, 3.0))
        # The frozen script relies on where these keys hash.
        assert key_hash(b"key-00") % 2 == 1
        assert all(key_hash(b"key-%02d" % i) % 2 == 0 for i in (4, 5, 6))
        for slot, (op, key, value, *expected) in enumerate(self.SCRIPT):
            sim.run(until=1000.0 * (slot + 1))
            result = drive(sim, store.put(key, value) if op == "put"
                           else store.delete(key))
            assert [result.status, result.total_us, result.ssd_us,
                    result.cpu_us, result.nvme_accesses] == expected
        assert asdict(store.stats) == {
            "gets": 0, "puts": 4, "dels": 4, "hits": 0, "misses": 0,
            "get_retries": 0, "key_log_garbage_bytes": 2560,
            "value_garbage_bytes": 83, "compaction_aborted": 0,
            "ssd_time_us": 515.5840000000019,
            "cpu_time_us": 1.8000000000018872,
            "op_latency_us": {"get": 0.0, "put": 298.4072380952389,
                              "del": 218.97676190476489}}
        assert asdict(ssd.stats) == {
            "reads_completed": 6, "writes_completed": 10, "read_bytes": 3072,
            "write_bytes": 5120, "total_read_latency_us": 331.02400000000125,
            "total_write_latency_us": 263.6571428571435,
            "busy_time_us": 594.6811428571427, "queue_wait_us": 0.0}
        assert store.live_objects == 1
        assert (store.core.busy_time_us.hex(), store.core.cycles_executed) == (
            "0x1.ccccccccccccep+0", 5400)
