"""Tests for crash recovery from the on-flash logs (§3.2.3)."""

import random

import pytest

from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.recovery import recover_store
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry

from conftest import drive


CONFIG = dict(num_segments=32, key_log_bytes=512 << 10,
              value_log_bytes=2 << 20)


def make_store(sim, ssd=None, **overrides):
    config_kwargs = dict(CONFIG)
    config_kwargs.update(overrides)
    if ssd is None:
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(3))
    return LeedDataStore(sim, ssd, StoreConfig(**config_kwargs)), ssd


class TestRecovery:
    def test_rebuilds_index_after_crash(self, sim):
        store, ssd = make_store(sim)

        def before():
            for index in range(40):
                result = yield from store.put(b"key-%03d" % index,
                                              b"value-%03d" % index)
                assert result.ok

        drive(sim, before())

        # "Crash": a brand-new store object over the same device; the
        # SegTbl and log pointers (DRAM state) are gone.
        reborn, _ = make_store(sim, ssd=ssd)
        assert reborn.segtbl.location(0) is None

        def recover_and_check():
            report = yield from recover_store(reborn)
            for index in range(40):
                got = yield from reborn.get(b"key-%03d" % index)
                assert got.ok, (index, got.status)
                assert got.value == b"value-%03d" % index
            return report

        report = drive(sim, recover_and_check())
        assert report.live_objects == 40
        assert report.segments_recovered > 0
        assert report.blocks_scanned == CONFIG["key_log_bytes"] // 512

    def test_latest_version_wins(self, sim):
        """Overwrites leave stale segment versions on flash; recovery
        must pick the newest via the tail snapshot."""
        store, ssd = make_store(sim)

        def before():
            for round_index in range(5):
                for index in range(10):
                    yield from store.put(b"k%02d" % index,
                                         b"round-%d" % round_index)

        drive(sim, before())
        reborn, _ = make_store(sim, ssd=ssd)

        def recover_and_check():
            report = yield from recover_store(reborn)
            for index in range(10):
                got = yield from reborn.get(b"k%02d" % index)
                assert got.ok and got.value == b"round-4"
            return report

        report = drive(sim, recover_and_check())
        assert report.stale_versions_skipped > 0
        assert report.live_objects == 10

    def test_deletes_stay_deleted(self, sim):
        store, ssd = make_store(sim)

        def before():
            for index in range(20):
                yield from store.put(b"k%02d" % index, b"v")
            for index in range(10):
                yield from store.delete(b"k%02d" % index)

        drive(sim, before())
        reborn, _ = make_store(sim, ssd=ssd)

        def recover_and_check():
            yield from recover_store(reborn)
            for index in range(10):
                got = yield from reborn.get(b"k%02d" % index)
                assert got.status == "not_found", index
            for index in range(10, 20):
                got = yield from reborn.get(b"k%02d" % index)
                assert got.ok, index

        drive(sim, recover_and_check())

    def test_store_writable_after_recovery(self, sim):
        store, ssd = make_store(sim)

        def before():
            for index in range(15):
                yield from store.put(b"old-%02d" % index, b"v1")

        drive(sim, before())
        reborn, _ = make_store(sim, ssd=ssd)

        def after():
            yield from recover_store(reborn)
            # New writes and overwrites work on the recovered store.
            result = yield from reborn.put(b"new-key", b"fresh")
            assert result.ok
            result = yield from reborn.put(b"old-03", b"v2")
            assert result.ok
            got_new = yield from reborn.get(b"new-key")
            got_old = yield from reborn.get(b"old-03")
            got_other = yield from reborn.get(b"old-07")
            return got_new, got_old, got_other

        got_new, got_old, got_other = drive(sim, after())
        assert got_new.value == b"fresh"
        assert got_old.value == b"v2"
        assert got_other.value == b"v1"

    def test_empty_store_recovers_empty(self, sim):
        store, ssd = make_store(sim)
        reborn, _ = make_store(sim, ssd=ssd)

        def proc():
            report = yield from recover_store(reborn)
            return report

        report = drive(sim, proc())
        assert report.live_objects == 0
        assert report.segments_recovered == 0

    def test_recovery_after_compaction(self, sim):
        """Recovery is correct no matter where compaction left the
        head/tail, because entries are self-describing."""
        from repro.core.compaction import Compactor
        store, ssd = make_store(sim)
        compactor = Compactor(store)

        def before():
            for round_index in range(6):
                for index in range(20):
                    yield from store.put(
                        b"k%02d" % index, b"r%d" % round_index)
            yield from compactor.compact(store.key_log, target_fill=0.05)

        drive(sim, before())
        reborn, _ = make_store(sim, ssd=ssd)

        def recover_and_check():
            yield from recover_store(reborn)
            for index in range(20):
                got = yield from reborn.get(b"k%02d" % index)
                assert got.ok and got.value == b"r5", (index, got.status)

        drive(sim, recover_and_check())

    def test_segment_astride_the_region_end(self, sim):
        """A winner whose chain wraps the key-log region puts the
        recovered window across the region's end: its keys stay
        readable and the log keeps its free space."""
        from repro.core.compaction import Compactor
        from repro.core.segment import key_hash
        store, ssd = make_store(sim, num_segments=2,
                                key_log_bytes=8 << 10,
                                value_log_bytes=64 << 10)
        compactor = Compactor(store)
        log = store.key_log
        keys = [b"key-%02d" % index + b"." * 41 for index in range(40)]
        # Segment 0 takes a two-block chain, segment 1 a one-block one.
        keys = ([key for key in keys if key_hash(key) % 2 == 0][:10]
                + [key for key in keys if key_hash(key) % 2 == 1][:2])

        def wraps():
            return any(offset % log.size + chain_len * 512 > log.size
                       for offset, chain_len in map(store.segtbl.location,
                                                    (0, 1)))

        def before():
            step = 0
            while not (step >= len(keys) and wraps()):
                assert step < 400
                key = keys[step % len(keys)]
                result = yield from store.put(key, b"v%d" % step)
                if not result.ok:
                    yield from compactor.compact(log, 0.0)
                    result = yield from store.put(key, b"v%d" % step)
                assert result.ok, result.status
                step += 1
            values = {}
            for key in keys:
                values[key] = (yield from store.get(key)).value
            return values

        values = drive(sim, before())
        free = log.free_bytes
        reborn, _ = make_store(sim, ssd=ssd, num_segments=2,
                               key_log_bytes=8 << 10,
                               value_log_bytes=64 << 10)

        def recover_and_check():
            report = yield from recover_store(reborn)
            for key, value in values.items():
                got = yield from reborn.get(key)
                assert got.ok and got.value == value, (key, got.status)
            written = yield from reborn.put(keys[-1], b"after")
            assert written.ok, written.status
            return report

        report = drive(sim, recover_and_check())
        assert report.live_objects == len(keys)
        assert report.key_log_tail - report.key_log_head == log.size - free

    def test_randomized_crash_consistency(self, sim):
        """Property-style: any prefix of operations, then crash, then
        recovery reproduces exactly the surviving dict state."""
        rng = random.Random(17)
        store, ssd = make_store(sim)
        shadow = {}

        def before():
            for step in range(150):
                key = b"k%02d" % rng.randrange(25)
                if rng.random() < 0.6:
                    value = b"v%03d" % step
                    result = yield from store.put(key, value)
                    if result.ok:
                        shadow[key] = value
                else:
                    result = yield from store.delete(key)
                    if result.ok:
                        shadow.pop(key, None)

        drive(sim, before())
        reborn, _ = make_store(sim, ssd=ssd)

        def recover_and_check():
            report = yield from recover_store(reborn)
            for key, value in shadow.items():
                got = yield from reborn.get(key)
                assert got.ok and got.value == value, key
            for key in (b"k%02d" % i for i in range(25)):
                if key not in shadow:
                    got = yield from reborn.get(key)
                    assert got.status == "not_found", key
            return report

        report = drive(sim, recover_and_check())
        assert report.live_objects == len(shadow)
