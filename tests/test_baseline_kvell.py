"""Tests for the KVell baseline: B-tree and slab store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kvell.btree import BTree
from repro.baselines.kvell.datastore import (
    KVELL_DRAM_BYTES_PER_OBJECT,
    PAGE_CACHE_BYTES,
    KVellConfig,
    KVellDataStore,
)
from repro.hw.dram import Dram
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry

from conftest import drive, scan_pairs


class TestBTree:
    def test_insert_search(self):
        tree = BTree(min_degree=2)
        tree.insert(b"b", 2)
        tree.insert(b"a", 1)
        tree.insert(b"c", 3)
        assert tree.get(b"a") == 1
        assert tree.get(b"b") == 2
        assert tree.get(b"missing") is None
        assert len(tree) == 3

    def test_overwrite_keeps_size(self):
        tree = BTree(min_degree=2)
        tree.insert(b"k", 1)
        is_new, _ = tree.insert(b"k", 2)
        assert not is_new
        assert tree.get(b"k") == 2
        assert len(tree) == 1

    def test_many_inserts_sorted_iteration(self):
        tree = BTree(min_degree=3)
        keys = [b"key-%04d" % i for i in range(500)]
        shuffled = list(keys)
        random.Random(1).shuffle(shuffled)
        for index, key in enumerate(shuffled):
            tree.insert(key, index)
        assert [k for k, _v in tree.items()] == keys
        assert len(tree) == 500

    def test_height_grows_logarithmically(self):
        tree = BTree(min_degree=16)
        for index in range(5000):
            tree.insert(b"%08d" % index, index)
        assert tree.height <= 4

    def test_search_visit_count_bounded_by_height(self):
        tree = BTree(min_degree=8)
        for index in range(1000):
            tree.insert(b"%06d" % index, index)
        _value, visited = tree.search(b"000500")
        assert visited <= tree.height + 1

    def test_delete_tombstones(self):
        tree = BTree(min_degree=2)
        for index in range(20):
            tree.insert(b"%02d" % index, index)
        was_present, _ = tree.delete(b"05")
        assert was_present
        assert tree.get(b"05") is None
        assert b"05" not in tree
        assert len(tree) == 19
        # Double delete is a no-op.
        was_present, _ = tree.delete(b"05")
        assert not was_present

    def test_rebuild_purges_tombstones(self):
        tree = BTree(min_degree=2)
        for index in range(50):
            tree.insert(b"%02d" % index, index)
        for index in range(25):
            tree.delete(b"%02d" % index)
        tree.rebuild()
        assert len(tree) == 25
        assert tree.get(b"30") == 30
        assert tree.get(b"10") is None

    def test_min_degree_validation(self):
        with pytest.raises(ValueError):
            BTree(min_degree=1)

    @settings(max_examples=25, deadline=None)
    @given(pairs=st.dictionaries(st.binary(min_size=1, max_size=16),
                                 st.integers(), min_size=1, max_size=200))
    def test_matches_dict_property(self, pairs):
        tree = BTree(min_degree=3)
        for key, value in pairs.items():
            tree.insert(key, value)
        for key, value in pairs.items():
            assert tree.get(key) == value
        assert len(tree) == len(pairs)
        assert [k for k, _ in tree.items()] == sorted(pairs)


def make_store(sim, dram=None, **config_kwargs):
    defaults = dict(slab_bytes=1 << 20, slot_bytes=512, batch_window_us=0.0,
                    page_cache_slots=4)
    defaults.update(config_kwargs)
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20, block_size=512,
                                  jitter=0.0), rng=RngRegistry(4))
    return KVellDataStore(sim, ssd, KVellConfig(**defaults), dram=dram)


class TestKVellStore:
    def test_put_get_roundtrip(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.get(b"k"))

        result = drive(sim, proc())
        assert result.ok and result.value == b"v"

    def test_in_place_update_reuses_slot(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v1")
            slots_before = store.next_fresh_slot
            yield from store.put(b"k", b"v2")
            got = yield from store.get(b"k")
            return slots_before, store.next_fresh_slot, got

        before, after, got = drive(sim, proc())
        assert before == after  # no new slot allocated
        assert got.value == b"v2"

    def test_delete_recycles_slot(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.delete(b"a")
            assert len(store.free_list) == 1
            yield from store.put(b"b", b"2")
            assert len(store.free_list) == 0
            return (yield from store.get(b"a"))

        assert drive(sim, proc()).status == "not_found"

    def test_delete_needs_no_device_write(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"k", b"v")
            return (yield from store.delete(b"k"))

        assert drive(sim, proc()).nvme_accesses == 0

    def test_page_cache_hit_skips_device(self, sim):
        store = make_store(sim, page_cache_slots=8)

        def proc():
            yield from store.put(b"k", b"v")
            first = yield from store.get(b"k")   # warm (put cached it)
            second = yield from store.get(b"k")
            return first, second

        first, second = drive(sim, proc())
        assert store.stats.cache_hits >= 1
        assert second.nvme_accesses == 0

    def test_cache_eviction_lru(self, sim):
        store = make_store(sim, page_cache_slots=2)

        def proc():
            for key in (b"a", b"b", b"c"):
                yield from store.put(key, key)
            # "a" was evicted; reading it costs a device access.
            result = yield from store.get(b"a")
            return result

        assert drive(sim, proc()).nvme_accesses == 1

    def test_slot_size_limit(self, sim):
        store = make_store(sim, slot_bytes=128)
        with pytest.raises(ValueError):
            drive(sim, store.put(b"k", b"v" * 512))

    def test_slab_exhaustion(self, sim):
        store = make_store(sim, slab_bytes=16 << 10, slot_bytes=512)

        def proc():
            status = None
            for index in range(100):
                result = yield from store.put(b"key-%03d" % index, b"v")
                if not result.ok:
                    status = result.status
                    break
            return status

        assert drive(sim, proc()) == "store_full"

    def test_index_budget(self, sim):
        store = make_store(sim, dram=Dram(
            PAGE_CACHE_BYTES + 5 * KVELL_DRAM_BYTES_PER_OBJECT))

        def proc():
            statuses = []
            for index in range(8):
                result = yield from store.put(b"key-%d" % index, b"v")
                statuses.append(result.status)
            return statuses

        statuses = drive(sim, proc())
        assert statuses.count("ok") == 5

    def test_batching_window_delays_io(self, sim):
        batched = make_store(sim, batch_window_us=200.0, page_cache_slots=0
                             if False else 1)

        def proc():
            yield from batched.put(b"k", b"v")
            return sim.now

        finished = drive(sim, proc())
        assert finished >= 200.0  # waited for the flush boundary

    def test_modeled_index_depth_charges_cpu(self, sim):
        shallow = make_store(sim)
        deep = make_store(sim, modeled_index_objects=10**8)

        def probe(store):
            yield from store.put(b"k", b"v")
            return (yield from store.get(b"k"))

        shallow_result = drive(sim, probe(shallow))
        deep_result = drive(sim, probe(deep))
        assert deep_result.cpu_us > shallow_result.cpu_us

    def test_scan(self, sim):
        store = make_store(sim)

        def proc():
            yield from store.put(b"a", b"1")
            yield from store.put(b"b", b"2")
            yield from store.delete(b"a")
            return (yield from scan_pairs(store))

        assert drive(sim, proc()) == {b"b": b"2"}

    def test_shadow_model(self, sim):
        store = make_store(sim, slab_bytes=4 << 20)
        rng = random.Random(9)

        def proc():
            shadow = {}
            for step in range(200):
                key = b"k%02d" % rng.randrange(30)
                roll = rng.random()
                if roll < 0.5:
                    value = b"v%d" % step
                    result = yield from store.put(key, value)
                    assert result.ok
                    shadow[key] = value
                elif roll < 0.8:
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

        drive(sim, proc())
