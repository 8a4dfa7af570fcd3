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


# -- the slotted codec against the dataclass codec it replaced ---------------

from dataclasses import dataclass, field  # noqa: E402
from typing import List, Optional  # noqa: E402


@dataclass
class RefKeyItem:
    """Test-only reference: ``KeyItem`` as the dataclass it was."""

    key: bytes
    vlen: int
    voffset: int
    ssd_id: int = 0
    khash: Optional[int] = None

    def __post_init__(self):
        if self.khash is None:
            self.khash = key_hash(self.key)

    @property
    def wire_size(self) -> int:
        return KEY_ITEM_HEADER.size + len(self.key)

    def pack(self) -> bytes:
        return KEY_ITEM_HEADER.pack(self.khash, len(self.key), self.vlen,
                                    self.voffset, self.ssd_id) + self.key


@dataclass
class RefBucket:
    """Test-only reference: ``Bucket`` as the dataclass it was (pack by
    concatenation, ``bytes_used`` by summing the items' properties)."""

    seg_id: int
    position: int = 0
    items: List[RefKeyItem] = field(default_factory=list)
    head: int = 0
    tail: int = 0

    def bytes_used(self) -> int:
        return BUCKET_HEADER.size + sum(item.wire_size for item in self.items)

    def pack(self, chain_len: int, block_size: int) -> bytes:
        body = b"".join(item.pack() for item in self.items)
        header = BUCKET_HEADER.pack(self.seg_id, chain_len, self.position,
                                    len(self.items), self.head & 0xFFFFFFFF,
                                    self.tail & 0xFFFFFFFF)
        blob = header + body
        if len(blob) > block_size:
            raise ValueError("bucket of %d bytes exceeds block %d"
                             % (len(blob), block_size))
        return blob + b"\x00" * (block_size - len(blob))


@dataclass
class RefSegment:
    seg_id: int
    buckets: List[RefBucket] = field(default_factory=list)


def _as_ref(text: str) -> str:
    return (text.replace("KeyItem(", "RefKeyItem(")
            .replace("Bucket(", "RefBucket(")
            .replace("Segment(", "RefSegment("))


_item_fields = st.tuples(
    st.binary(min_size=0, max_size=40),
    st.one_of(st.just(TOMBSTONE_VLEN), st.integers(1, 2**32 - 1)),
    st.integers(0, 2**32 - 1),
    st.integers(0, 255),
    st.one_of(st.none(), st.integers(0, 2**32 - 1)))

_bucket_fields = st.lists(_item_fields, min_size=0, max_size=7)


class TestSlottedCodec:
    """``KeyItem`` / ``Bucket`` / ``Segment`` are slotted plain classes
    with ``wire_size`` fixed at construction and buckets serialized in
    place; everything observable must be what the dataclasses gave."""

    @staticmethod
    def _build(chain, seg_id, head, tail):
        new = Segment(seg_id, [
            Bucket(seg_id, position, [KeyItem(*f) for f in fields], head, tail)
            for position, fields in enumerate(chain)])
        ref = RefSegment(seg_id, [
            RefBucket(seg_id, position, [RefKeyItem(*f) for f in fields],
                      head, tail)
            for position, fields in enumerate(chain)])
        return new, ref

    @settings(max_examples=120, deadline=None)
    @given(chain=st.lists(_bucket_fields, min_size=1, max_size=4),
           seg_id=st.integers(0, 2**32 - 1),
           head=st.integers(0, 2**40), tail=st.integers(0, 2**40))
    def test_round_trip_sizes_equality_and_repr(self, chain, seg_id, head,
                                                tail):
        new, ref = self._build(chain, seg_id, head, tail)
        for bucket, ref_bucket in zip(new.buckets, ref.buckets):
            for item, ref_item in zip(bucket.items, ref_bucket.items):
                assert item.wire_size == ref_item.wire_size == len(item.pack())
                assert item.pack() == ref_item.pack()
                assert item.khash == ref_item.khash
                assert item.is_tombstone == (item.vlen == TOMBSTONE_VLEN)
                assert KeyItem.unpack_from(b"\xff" + item.pack(), 1) == item
            assert bucket.bytes_used() == ref_bucket.bytes_used()
        assert _as_ref(repr(new)) == repr(ref)

        # Same bytes on the wire, block by block and as a whole.
        wire = b"".join(
            RefBucket(seg_id, position, ref_bucket.items, head % (1 << 32),
                      tail % (1 << 32)).pack(len(chain), BLOCK)
            for position, ref_bucket in enumerate(ref.buckets))
        assert new.pack(BLOCK, head % (1 << 32), tail % (1 << 32)) == wire
        for position, bucket in enumerate(new.buckets):
            assert (bucket.pack(len(chain), BLOCK)
                    == wire[position * BLOCK:(position + 1) * BLOCK])

        restored = Segment.unpack(wire, BLOCK)
        assert restored == new and restored is not new
        assert restored.chain_len == len(chain)
        assert [item.wire_size for item in restored.iter_items()] == [
            item.wire_size for item in new.iter_items()]
        assert restored.live_items() == [
            item for item in new.iter_items() if not item.is_tombstone]
        # A bytearray or memoryview decodes to the same (bytes) keys.
        assert Bucket.unpack(bytearray(wire[:BLOCK])) == new.buckets[0]
        assert Bucket.unpack(memoryview(wire)[:BLOCK]) == new.buckets[0]
        assert all(type(item.key) is bytes
                   for item in Bucket.unpack(memoryview(wire)[:BLOCK]).items)

    @settings(max_examples=60, deadline=None)
    @given(a=_item_fields, b=_item_fields)
    def test_equality_is_by_field_and_nothing_hashes(self, a, b):
        assert (KeyItem(*a) == KeyItem(*b)) == (RefKeyItem(*a)
                                                == RefKeyItem(*b))
        assert KeyItem(*a) != RefKeyItem(*a)  # another class: never equal
        bucket = Bucket(3, 1, [KeyItem(*a)], 5, 6)
        assert bucket == Bucket(3, 1, [KeyItem(*a)], 5, 6)
        assert bucket != Bucket(3, 1, [KeyItem(*a)], 5, 7)
        assert Segment(3, [bucket]) == Segment(3, [Bucket(3, 1, [KeyItem(*a)],
                                                          5, 6)])
        assert Segment(3, [bucket]) != Segment(4, [bucket])
        for value in (KeyItem(*a), bucket, Segment(3, [bucket])):
            with pytest.raises(TypeError):
                hash(value)

    def test_no_instance_dict_and_defaults_are_not_shared(self):
        for value in (KeyItem(b"k", 1, 2), Bucket(0), Segment(0)):
            assert not hasattr(value, "__dict__")
        first, second = Bucket(0), Bucket(0)
        first.items.append(KeyItem(b"k", 1, 2))
        assert second.items == [] and Segment(0).buckets == []

    def test_a_mutated_item_packs_its_new_fields(self):
        segment = Segment(seg_id=5)
        segment.upsert(KeyItem(b"alpha", vlen=7, voffset=70), BLOCK, 4)
        segment.upsert(KeyItem(b"beta", vlen=8, voffset=80), BLOCK, 4)
        segment = Segment.unpack(segment.pack(BLOCK), BLOCK)
        segment.upsert(KeyItem(b"alpha", vlen=9, voffset=90, ssd_id=3),
                       BLOCK, 4)
        segment.find(b"beta").vlen = TOMBSTONE_VLEN
        restored = Segment.unpack(segment.pack(BLOCK), BLOCK)
        alpha = restored.find(b"alpha")
        assert (alpha.vlen, alpha.voffset, alpha.ssd_id) == (9, 90, 3)
        assert restored.find(b"beta").is_tombstone
        assert restored.drop_tombstones() == 1

    @pytest.mark.parametrize("cut", [0, 2, 5])
    def test_decoded_items_are_the_constructor_s_even_when_torn(self, cut):
        """``Bucket.unpack`` builds its items without ``KeyItem()``: the
        same fields and ``wire_size`` as the constructor gives — also
        for a last key whose header claims more bytes than the block
        holds."""
        bucket = Bucket(7, 0, [KeyItem(b"key-%d" % i, 10 + i, 100 * i, i % 3)
                               for i in range(4)])
        block = bucket.pack(1, BLOCK)
        used = bucket.bytes_used()
        block = block[:used - cut]        # the last key loses ``cut`` bytes
        decoded = Bucket.unpack(block).items
        cursor = BUCKET_HEADER.size
        for item in decoded:
            khash, klen, vlen, voffset, ssd_id = KEY_ITEM_HEADER.unpack_from(
                block, cursor)
            start = cursor + KEY_ITEM_HEADER.size
            reference = KeyItem(block[start:start + klen], vlen, voffset,
                                ssd_id, khash)
            assert item == reference
            assert item.wire_size == reference.wire_size
            cursor = start + klen
        assert len(decoded[-1].key) == len(b"key-3") - cut

    def test_overfull_bucket_is_rejected_before_any_byte_is_written(self):
        bucket = Bucket(0, 0, [KeyItem(b"x" * 100, 1, 0) for _ in range(6)])
        target = bytearray(2 * BLOCK)
        with pytest.raises(ValueError, match="exceeds block"):
            bucket.pack_into(target, BLOCK, 1, BLOCK)
        assert target == bytearray(2 * BLOCK)
