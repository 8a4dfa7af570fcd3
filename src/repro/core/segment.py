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
from dataclasses import dataclass, field
from typing import List, Optional

KEY_ITEM_HEADER = struct.Struct("<IHIIB")   # hash, klen, vlen, voffset, ssd_id
BUCKET_HEADER = struct.Struct("<IBBHII")    # seg_id, chain_len, position, nkeys, head, tail
VALUE_ENTRY_HEADER = struct.Struct("<HIHI")  # owner_id, seg_id, klen, vlen

#: Deletion marker: a key item whose value length is zero.
TOMBSTONE_VLEN = 0


def key_hash(key: bytes) -> int:
    """32-bit hash used for segment choice and in-bucket matching."""
    return zlib.crc32(key) & 0xFFFFFFFF


@dataclass
class KeyItem:
    """One key's index entry inside a bucket."""

    key: bytes
    vlen: int
    voffset: int
    ssd_id: int = 0
    khash: Optional[int] = None

    def __post_init__(self):
        if self.khash is None:
            self.khash = key_hash(self.key)

    @property
    def is_tombstone(self) -> bool:
        return self.vlen == TOMBSTONE_VLEN

    @property
    def wire_size(self) -> int:
        return KEY_ITEM_HEADER.size + len(self.key)

    def pack(self) -> bytes:
        """Serialize header + key bytes (the on-bucket wire format)."""
        return KEY_ITEM_HEADER.pack(self.khash, len(self.key), self.vlen,
                                    self.voffset, self.ssd_id) + self.key

    @classmethod
    def unpack_from(cls, buffer: bytes, offset: int) -> "KeyItem":
        khash, klen, vlen, voffset, ssd_id = KEY_ITEM_HEADER.unpack_from(
            buffer, offset)
        start = offset + KEY_ITEM_HEADER.size
        key = bytes(buffer[start:start + klen])
        return cls(key=key, vlen=vlen, voffset=voffset, ssd_id=ssd_id,
                   khash=khash)


@dataclass
class Bucket:
    """A block-sized container of key items."""

    seg_id: int
    position: int = 0
    items: List[KeyItem] = field(default_factory=list)
    head: int = 0
    tail: int = 0

    def bytes_used(self) -> int:
        """Serialized size of the bucket header plus its items."""
        return BUCKET_HEADER.size + sum(item.wire_size for item in self.items)

    def has_room(self, item: KeyItem, block_size: int) -> bool:
        """Whether ``item`` still fits in this block-sized bucket."""
        return self.bytes_used() + item.wire_size <= block_size

    def find(self, key: bytes, khash: int) -> Optional[KeyItem]:
        """Locate a key's item within this bucket, or None."""
        for item in self.items:
            if item.khash == khash and item.key == key:
                return item
        return None

    def pack(self, chain_len: int, block_size: int) -> bytes:
        """Serialize to exactly one zero-padded device block."""
        body = b"".join(item.pack() for item in self.items)
        header = BUCKET_HEADER.pack(self.seg_id, chain_len, self.position,
                                    len(self.items), self.head & 0xFFFFFFFF,
                                    self.tail & 0xFFFFFFFF)
        blob = header + body
        if len(blob) > block_size:
            raise ValueError("bucket of %d bytes exceeds block %d"
                             % (len(blob), block_size))
        return blob + b"\x00" * (block_size - len(blob))

    @classmethod
    def unpack(cls, block: bytes) -> "Bucket":
        seg_id, chain_len, position, nkeys, head, tail = BUCKET_HEADER.unpack_from(
            block, 0)
        items: List[KeyItem] = []
        cursor = BUCKET_HEADER.size
        for _ in range(nkeys):
            item = KeyItem.unpack_from(block, cursor)
            cursor += item.wire_size
            items.append(item)
        bucket = cls(seg_id=seg_id, position=position, items=items,
                     head=head, tail=tail)
        bucket._chain_len = chain_len  # type: ignore[attr-defined]
        return bucket


@dataclass
class Segment:
    """A chain of buckets; the unit read/written by one NVMe access."""

    seg_id: int
    buckets: List[Bucket] = field(default_factory=list)

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
            item = bucket.find(key, khash)
            if item is not None:
                return item
        return None

    def live_items(self) -> List[KeyItem]:
        """Key items that are not deletion markers."""
        return [item for item in self.iter_items() if not item.is_tombstone]

    def upsert(self, item: KeyItem, block_size: int, max_chain: int) -> None:
        """Insert or update ``item``; extends the chain when needed.

        Raises :class:`SegmentFullError` when all ``max_chain`` buckets
        are at capacity and the key is new.
        """
        existing = self.find(item.key, item.khash)
        if existing is not None:
            existing.vlen = item.vlen
            existing.voffset = item.voffset
            existing.ssd_id = item.ssd_id
            return
        for bucket in self.buckets:
            if bucket.has_room(item, block_size):
                bucket.items.append(item)
                return
        if len(self.buckets) >= max_chain:
            raise SegmentFullError(
                "segment %d: %d buckets full (max chain %d)"
                % (self.seg_id, len(self.buckets), max_chain))
        bucket = Bucket(seg_id=self.seg_id, position=len(self.buckets))
        bucket.items.append(item)
        self.buckets.append(bucket)

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
        """Serialize as a contiguous array of block-sized buckets."""
        if not self.buckets:
            self.buckets = [Bucket(seg_id=self.seg_id, position=0)]
        chain = len(self.buckets)
        parts = []
        for position, bucket in enumerate(self.buckets):
            bucket.position = position
            bucket.head = head
            bucket.tail = tail
            parts.append(bucket.pack(chain, block_size))
        return b"".join(parts)

    @classmethod
    def unpack(cls, data: bytes, block_size: int) -> "Segment":
        if len(data) % block_size:
            raise ValueError("segment blob of %d bytes not block-aligned"
                             % len(data))
        buckets = [Bucket.unpack(data[start:start + block_size])
                   for start in range(0, len(data), block_size)]
        if not buckets:
            raise ValueError("empty segment blob")
        return cls(seg_id=buckets[0].seg_id, buckets=buckets)


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
