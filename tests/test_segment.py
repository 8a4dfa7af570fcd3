"""Tests for key items, buckets, segments, and value entries (§3.2.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.segment import (
    BUCKET_HEADER,
    KEY_ITEM_HEADER,
    Bucket,
    KeyItem,
    Segment,
    SegmentFullError,
    TOMBSTONE_VLEN,
    key_hash,
    pack_value_entry,
    peek_segment_header,
    unpack_value_entry,
    value_entry_size,
)

BLOCK = 512


class TestKeyItem:
    def test_pack_unpack_roundtrip(self):
        item = KeyItem(b"user123", vlen=1024, voffset=4096, ssd_id=2)
        packed = item.pack()
        assert len(packed) == item.wire_size
        restored = KeyItem.unpack_from(packed, 0)
        assert restored.key == b"user123"
        assert restored.vlen == 1024
        assert restored.voffset == 4096
        assert restored.ssd_id == 2
        assert restored.khash == item.khash

    def test_tombstone_flag(self):
        live = KeyItem(b"k", vlen=10, voffset=0)
        dead = KeyItem(b"k", vlen=TOMBSTONE_VLEN, voffset=0)
        assert not live.is_tombstone
        assert dead.is_tombstone

    def test_hash_derived_from_key(self):
        a = KeyItem(b"same", vlen=1, voffset=0)
        b = KeyItem(b"same", vlen=9, voffset=5)
        assert a.khash == b.khash == key_hash(b"same")


class TestBucket:
    def test_pack_fits_block(self):
        bucket = Bucket(seg_id=7)
        bucket.items = [KeyItem(b"key-%02d" % i, vlen=10, voffset=i)
                        for i in range(10)]
        block = bucket.pack(chain_len=1, block_size=BLOCK)
        assert len(block) == BLOCK

    def test_pack_unpack_roundtrip(self):
        bucket = Bucket(seg_id=9, position=1)
        bucket.items = [KeyItem(b"alpha", vlen=11, voffset=22, ssd_id=1)]
        block = bucket.pack(chain_len=3, block_size=BLOCK)
        restored = Bucket.unpack(block)
        assert restored.seg_id == 9
        assert restored.position == 1
        assert len(restored.items) == 1
        assert restored.items[0].key == b"alpha"

    def test_overflow_rejected(self):
        bucket = Bucket(seg_id=0)
        bucket.items = [KeyItem(b"x" * 100, vlen=1, voffset=0)
                        for _ in range(10)]
        with pytest.raises(ValueError):
            bucket.pack(chain_len=1, block_size=BLOCK)

    def test_has_room(self):
        bucket = Bucket(seg_id=0)
        small = KeyItem(b"k", vlen=1, voffset=0)
        assert bucket.has_room(small, BLOCK)
        bucket.items = [KeyItem(b"y" * 80, vlen=1, voffset=0)
                        for _ in range(5)]
        big = KeyItem(b"z" * 200, vlen=1, voffset=0)
        assert not bucket.has_room(big, BLOCK)


class TestSegment:
    def test_upsert_insert_and_update(self):
        segment = Segment(seg_id=1)
        segment.upsert(KeyItem(b"k1", vlen=5, voffset=100), BLOCK, 4)
        segment.upsert(KeyItem(b"k1", vlen=9, voffset=200), BLOCK, 4)
        item = segment.find(b"k1")
        assert item.vlen == 9
        assert item.voffset == 200
        assert segment.chain_len == 1

    def test_chain_extension(self):
        segment = Segment(seg_id=1)
        # Fill buckets with large keys until the chain must grow.
        index = 0
        while segment.chain_len < 2:
            segment.upsert(KeyItem(b"key-%03d" % index + b"p" * 60,
                                   vlen=1, voffset=index), BLOCK, 4)
            index += 1
        assert segment.chain_len == 2
        # Every inserted key is still findable across the chain.
        for check in range(index):
            key = b"key-%03d" % check + b"p" * 60
            assert segment.find(key) is not None

    def test_max_chain_enforced(self):
        segment = Segment(seg_id=1)
        with pytest.raises(SegmentFullError):
            index = 0
            while True:
                segment.upsert(KeyItem(b"key-%04d" % index + b"q" * 60,
                                       vlen=1, voffset=0), BLOCK, 2)
                index += 1

    def test_pack_unpack_roundtrip(self):
        segment = Segment(seg_id=3)
        for index in range(20):
            segment.upsert(KeyItem(b"user%04d" % index, vlen=index + 1,
                                   voffset=index * 7), BLOCK, 4)
        blob = segment.pack(BLOCK)
        assert len(blob) % BLOCK == 0
        restored = Segment.unpack(blob, BLOCK)
        assert restored.seg_id == 3
        assert restored.chain_len == segment.chain_len
        for index in range(20):
            item = restored.find(b"user%04d" % index)
            assert item is not None
            assert item.vlen == index + 1

    def test_drop_tombstones_shrinks_chain(self):
        segment = Segment(seg_id=1)
        index = 0
        while segment.chain_len < 3:
            segment.upsert(KeyItem(b"key-%04d" % index + b"r" * 60,
                                   vlen=1, voffset=0), BLOCK, 4)
            index += 1
        for item in list(segment.iter_items())[5:]:
            item.vlen = TOMBSTONE_VLEN
        dropped = segment.drop_tombstones()
        assert dropped == index - 5
        assert segment.chain_len < 3
        assert len(segment.live_items()) == 5

    def test_peek_header(self):
        segment = Segment(seg_id=42)
        segment.upsert(KeyItem(b"a", vlen=1, voffset=0), BLOCK, 4)
        blob = segment.pack(BLOCK)
        seg_id, chain_len = peek_segment_header(blob)
        assert seg_id == 42
        assert chain_len == 1

    def test_empty_segment_packs_one_bucket(self):
        segment = Segment(seg_id=5)
        blob = segment.pack(BLOCK)
        assert len(blob) == BLOCK


class TestValueEntry:
    def test_roundtrip(self):
        entry = pack_value_entry(12, b"key", b"value-bytes", owner_id=3)
        seg_id, key, value, size, owner = unpack_value_entry(entry)
        assert (seg_id, key, value, owner) == (12, b"key", b"value-bytes", 3)
        assert size == len(entry) == value_entry_size(3, 11)

    def test_roundtrip_mid_buffer(self):
        buffer = b"JUNK" + pack_value_entry(1, b"k", b"v") + b"TRAILING"
        seg_id, key, value, size, owner = unpack_value_entry(buffer, 4)
        assert (key, value) == (b"k", b"v")


class TestHashing:
    def test_hash_stable(self):
        assert key_hash(b"stable") == key_hash(b"stable")

    @settings(max_examples=50, deadline=None)
    @given(key=st.binary(min_size=1, max_size=64),
           vlen=st.integers(min_value=1, max_value=2**31),
           voffset=st.integers(min_value=0, max_value=2**32 - 1),
           ssd_id=st.integers(min_value=0, max_value=255))
    def test_key_item_roundtrip_property(self, key, vlen, voffset, ssd_id):
        item = KeyItem(key, vlen=vlen, voffset=voffset, ssd_id=ssd_id)
        restored = KeyItem.unpack_from(item.pack(), 0)
        assert restored.key == key
        assert restored.vlen == vlen
        assert restored.voffset == voffset
        assert restored.ssd_id == ssd_id

    @settings(max_examples=30, deadline=None)
    @given(pairs=st.dictionaries(
        st.binary(min_size=1, max_size=24),
        st.integers(min_value=1, max_value=10**6),
        min_size=1, max_size=30))
    def test_segment_upsert_find_property(self, pairs):
        segment = Segment(seg_id=0)
        for key, vlen in pairs.items():
            segment.upsert(KeyItem(key, vlen=vlen, voffset=0), BLOCK, 8)
        blob = segment.pack(BLOCK)
        restored = Segment.unpack(blob, BLOCK)
        for key, vlen in pairs.items():
            item = restored.find(key)
            assert item is not None and item.vlen == vlen
