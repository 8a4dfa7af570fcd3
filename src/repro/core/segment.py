"""Key-log data layout: key items, buckets, segments (§3.2.2-3.2.3).

The whole key space of a (virtual) node consists of segments; a
segment is a chain of up to M overflow buckets; a bucket is sized to
the SSD block and holds key items plus metadata.  When a segment is
written to the SSD it is serialized as a contiguous array of buckets,
so a GET fetches the whole segment with one NVMe read.

Wire formats (little-endian):

Key item   : key_hash u32 | klen u16 | vlen u32 | voffset u32 | ssd_id u8 | key
Bucket hdr : seg_id u32 | chain_len u8 | position u8 | nkeys u16 |
             head u32 | tail u32
Value entry: seg_id u32 | klen u16 | vlen u32 | key | value

The key item's ``ssd_id`` is the extension of §3.6: it identifies
which co-located SSD's value log holds the value, enabling the data
swapping mechanism to redirect overloaded writes.  ``vlen == 0``
marks a deletion (§3.3); empty values are therefore not storable and
the store rejects them at the API boundary.
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Optional

from repro.sim.record import Record

KEY_ITEM_HEADER = struct.Struct("<IHIIB")   # hash, klen, vlen, voffset, ssd_id
BUCKET_HEADER = struct.Struct("<IBBHII")    # seg_id, chain_len, position, nkeys, head, tail
VALUE_ENTRY_HEADER = struct.Struct("<HIHI")  # owner_id, seg_id, klen, vlen
_KEY_ITEM_FIXED = KEY_ITEM_HEADER.size
_BUCKET_FIXED = BUCKET_HEADER.size
_new = object.__new__

#: Deletion marker: a key item whose value length is zero.
TOMBSTONE_VLEN = 0


def key_hash(key: bytes) -> int:
    """32-bit hash used for segment choice and in-bucket matching."""
    return zlib.crc32(key) & 0xFFFFFFFF


class KeyItem(Record):
    """One key's index entry inside a bucket.

    ``key`` and ``khash`` (derived from the key unless given) are fixed
    at construction, and with them ``wire_size``.  An item is never
    changed once it is in a segment: a write replaces it
    (:meth:`Segment.replace`), because the store's decoded-segment memo
    hands the same items to every reader of the segment.

    ``value`` is not part of the item's wire format or equality: it is
    the value bytes of the entry at ``voffset`` when the item's maker
    wrote them (a PUT, a value-log relocation), so a reader that finds
    the entry still inside the value log's window need not copy it
    out.  A decoded item has None.
    """

    __slots__ = ("key", "vlen", "voffset", "ssd_id", "khash", "wire_size",
                 "value")
    _FIELDS = ("key", "vlen", "voffset", "ssd_id", "khash")

    def __init__(self, key: bytes, vlen: int, voffset: int, ssd_id: int = 0,
                 khash: Optional[int] = None, value: Optional[bytes] = None):
        self.key = key
        self.vlen = vlen
        self.voffset = voffset
        self.ssd_id = ssd_id
        self.khash = key_hash(key) if khash is None else khash
        #: Serialized size: header plus key bytes.
        self.wire_size = _KEY_ITEM_FIXED + len(key)
        self.value = value

    @property
    def is_tombstone(self) -> bool:
        return self.vlen == TOMBSTONE_VLEN

    def pack(self) -> bytes:
        """Serialize header + key bytes (the on-bucket wire format)."""
        return KEY_ITEM_HEADER.pack(self.khash, len(self.key), self.vlen,
                                    self.voffset, self.ssd_id) + self.key

    @classmethod
    def unpack_from(cls, buffer: bytes, offset: int) -> "KeyItem":
        khash, klen, vlen, voffset, ssd_id = KEY_ITEM_HEADER.unpack_from(
            buffer, offset)
        start = offset + _KEY_ITEM_FIXED
        return cls(bytes(buffer[start:start + klen]), vlen, voffset, ssd_id,
                   khash)


class Bucket(Record):
    """A block-sized container of key items."""

    __slots__ = _FIELDS = ("seg_id", "position", "items", "head", "tail")

    def __init__(self, seg_id: int, position: int = 0,
                 items: Optional[List[KeyItem]] = None, head: int = 0,
                 tail: int = 0):
        self.seg_id = seg_id
        self.position = position
        self.items: List[KeyItem] = [] if items is None else items
        self.head = head
        self.tail = tail

    def bytes_used(self) -> int:
        """Serialized size of the bucket header plus its items."""
        used = _BUCKET_FIXED
        for item in self.items:
            used += item.wire_size
        return used

    def has_room(self, item: KeyItem, block_size: int) -> bool:
        """Whether ``item`` still fits in this block-sized bucket."""
        return self.bytes_used() + item.wire_size <= block_size

    def pack(self, chain_len: int, block_size: int) -> bytes:
        """Serialize to exactly one zero-padded device block."""
        block = bytearray(block_size)
        self.pack_into(block, 0, chain_len, block_size)
        return bytes(block)

    def pack_into(self, buffer: bytearray, offset: int, chain_len: int,
                  block_size: int) -> None:
        """Serialize into the zeroed block at ``buffer[offset:]``;
        returns the offset just past the bucket's last byte."""
        used = self.bytes_used()
        if used > block_size:
            raise ValueError("bucket of %d bytes exceeds block %d"
                             % (used, block_size))
        items = self.items
        BUCKET_HEADER.pack_into(buffer, offset, self.seg_id, chain_len,
                                self.position, len(items),
                                self.head & 0xFFFFFFFF,
                                self.tail & 0xFFFFFFFF)
        cursor = offset + _BUCKET_FIXED
        pack_header = KEY_ITEM_HEADER.pack_into
        for item in items:
            end = cursor + item.wire_size
            pack_header(buffer, cursor, item.khash,
                        item.wire_size - _KEY_ITEM_FIXED, item.vlen,
                        item.voffset, item.ssd_id)
            buffer[cursor + _KEY_ITEM_FIXED:end] = item.key
            cursor = end
        return cursor

    @classmethod
    def unpack(cls, block: bytes) -> "Bucket":
        if type(block) is not bytes:
            block = bytes(block)  # key slices below must be bytes
        seg_id, _chain_len, position, nkeys, head, tail = (
            BUCKET_HEADER.unpack_from(block, 0))
        items: List[KeyItem] = []
        cursor = _BUCKET_FIXED
        limit = len(block)
        unpack_header = KEY_ITEM_HEADER.unpack_from
        for _ in range(nkeys):
            khash, klen, vlen, voffset, ssd_id = unpack_header(block, cursor)
            start = cursor + _KEY_ITEM_FIXED
            cursor = start + klen
            # ``KeyItem(key, vlen, voffset, ssd_id, khash)`` spelled out
            # (every item of every segment a write reads), the key's
            # length from the header — cut short only by a torn block.
            item = _new(KeyItem)
            item.key = block[start:cursor]
            item.vlen = vlen
            item.voffset = voffset
            item.ssd_id = ssd_id
            item.khash = khash
            item.wire_size = _KEY_ITEM_FIXED + (
                klen if cursor <= limit else limit - start)
            item.value = None
            items.append(item)
        return cls(seg_id, position, items, head, tail)


class Segment(Record):
    """A chain of buckets; the unit read/written by one NVMe access."""

    __slots__ = _FIELDS = ("seg_id", "buckets")

    def __init__(self, seg_id: int, buckets: Optional[List[Bucket]] = None):
        self.seg_id = seg_id
        self.buckets: List[Bucket] = [] if buckets is None else buckets

    @property
    def chain_len(self) -> int:
        return len(self.buckets)

    def iter_items(self):
        """Yield every key item across the bucket chain."""
        for bucket in self.buckets:
            for item in bucket.items:
                yield item

    def find(self, key: bytes, khash: Optional[int] = None) -> Optional[KeyItem]:
        """Locate a key's item anywhere in the chain, or None."""
        if khash is None:
            khash = key_hash(key)
        for bucket in self.buckets:
            for item in bucket.items:
                if item.khash == khash and item.key == key:
                    return item
        return None

    def live_items(self) -> List[KeyItem]:
        """Key items that are not deletion markers."""
        return [item for item in self.iter_items() if not item.is_tombstone]

    def clone(self) -> "Segment":
        """A copy a writer may change: new segment, buckets and item
        lists, sharing the key items (which are never changed)."""
        clone = _new(Segment)
        clone.seg_id = self.seg_id
        clone.buckets = [Bucket(bucket.seg_id, bucket.position,
                                bucket.items[:], bucket.head, bucket.tail)
                         for bucket in self.buckets]
        return clone

    def replace(self, old: KeyItem, new: KeyItem) -> None:
        """Put ``new`` where the item ``old`` is in the chain."""
        for bucket in self.buckets:
            items = bucket.items
            for index, item in enumerate(items):
                if item is old:
                    items[index] = new
                    return
        raise ValueError("segment %d does not hold %r" % (self.seg_id, old))

    def upsert(self, item: KeyItem, block_size: int, max_chain: int) -> None:
        """Insert ``item``, or replace the key's item; extends the chain
        when needed.

        Raises :class:`SegmentFullError` when all ``max_chain`` buckets
        are at capacity and the key is new.
        """
        key = item.key
        khash = item.khash
        for bucket in self.buckets:
            items = bucket.items
            for index, existing in enumerate(items):
                if existing.khash == khash and existing.key == key:
                    items[index] = item
                    return
        for bucket in self.buckets:
            if bucket.has_room(item, block_size):
                bucket.items.append(item)
                return
        if len(self.buckets) >= max_chain:
            raise SegmentFullError(
                "segment %d: %d buckets full (max chain %d)"
                % (self.seg_id, len(self.buckets), max_chain))
        self.buckets.append(Bucket(self.seg_id, len(self.buckets), [item]))

    def drop_tombstones(self) -> int:
        """Remove deletion markers; returns how many were dropped.

        Called during compaction once a tombstone no longer shadows
        any older on-log value (i.e. the old space is being reclaimed).
        """
        dropped = 0
        for bucket in self.buckets:
            before = len(bucket.items)
            bucket.items[:] = [i for i in bucket.items if not i.is_tombstone]
            dropped += before - len(bucket.items)
        # Shrink the chain when trailing buckets emptied.
        while len(self.buckets) > 1 and not self.buckets[-1].items:
            self.buckets.pop()
        for position, bucket in enumerate(self.buckets):
            bucket.position = position
        return dropped

    def pack(self, block_size: int, head: int = 0, tail: int = 0) -> bytes:
        """Serialize as a contiguous array of block-sized buckets: the
        segment's blocks as a read returns them (:meth:`unpack`)."""
        blob = self.pack_used(block_size, head, tail)
        return blob.ljust(len(self.buckets) * block_size, b"\x00")

    def pack_used(self, block_size: int, head: int = 0,
                  tail: int = 0) -> bytes:
        """:meth:`pack` up to the last bucket's last byte: what a
        key-log append programs.  Every bucket but the last fills its
        block; the device reads the rest of the last block as zeros."""
        if not self.buckets:
            self.buckets = [Bucket(self.seg_id)]
        chain = len(self.buckets)
        blob = bytearray(chain * block_size)
        for position, bucket in enumerate(self.buckets):
            bucket.position = position
            bucket.head = head
            bucket.tail = tail
            end = bucket.pack_into(blob, position * block_size, chain,
                                   block_size)
        del blob[end:]
        return bytes(blob)

    @classmethod
    def unpack(cls, data: bytes, block_size: int) -> "Segment":
        if len(data) % block_size:
            raise ValueError("segment blob of %d bytes not block-aligned"
                             % len(data))
        if not data:
            raise ValueError("empty segment blob")
        buckets = [Bucket.unpack(data[start:start + block_size])
                   for start in range(0, len(data), block_size)]
        return cls(buckets[0].seg_id, buckets)


class SegmentFullError(Exception):
    """A segment's chain reached M buckets with no room left."""


def peek_segment_header(block: bytes):
    """Parse just the first bucket header of a serialized segment.

    Returns ``(seg_id, chain_len)`` — what key-log compaction needs to
    identify and size the entry at the log head without deserializing
    everything (§3.3.1).
    """
    seg_id, chain_len, _position, _nkeys, _head, _tail = BUCKET_HEADER.unpack_from(
        block, 0)
    return seg_id, max(chain_len, 1)


def pack_value_entry(seg_id: int, key: bytes, value: bytes,
                     owner_id: int = 0) -> bytes:
    """Serialize one value-log entry.

    ``owner_id`` names the store that owns the key — normally the log's
    own store, but a *swapped* write (§3.6) lands in a peer SSD's value
    log, and the peer's compactor uses the tag to find the owning
    SegTbl for validity checks and merge-back.
    """
    return VALUE_ENTRY_HEADER.pack(owner_id, seg_id, len(key),
                                   len(value)) + key + value


def unpack_value_entry(buffer: bytes, offset: int = 0):
    """Parse one entry; returns (seg_id, key, value, wire_size, owner_id)."""
    owner_id, seg_id, klen, vlen = VALUE_ENTRY_HEADER.unpack_from(buffer, offset)
    start = offset + VALUE_ENTRY_HEADER.size
    key = bytes(buffer[start:start + klen])
    value = bytes(buffer[start + klen:start + klen + vlen])
    return seg_id, key, value, VALUE_ENTRY_HEADER.size + klen + vlen, owner_id


def value_entry_size(klen: int, vlen: int) -> int:
    return VALUE_ENTRY_HEADER.size + klen + vlen
