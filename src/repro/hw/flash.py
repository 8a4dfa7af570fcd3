"""Functional flash storage: real bytes, block granularity.

This is the *functional* half of the SSD substitution (see DESIGN.md):
it stores actual data so that the LEED data store, its compactions,
and recovery paths can be tested for correctness, independent of the
timing model in :mod:`repro.hw.ssd`.

The device is block-addressed.  A write starts on a block boundary and
programs whole blocks (the LEED bucket is sized to the SSD block for
exactly this reason, §3.2.2); reads may span multiple blocks.  Each
block keeps only the bytes its last program carried, and reads see the
rest of it as zeros, so a short last block costs no padding in memory.
"""

from __future__ import annotations

from typing import Dict


class FlashError(Exception):
    """Raised on out-of-range or misaligned flash access."""


class FlashArray:
    """A block-granular persistent byte store.

    Parameters
    ----------
    capacity_bytes:
        Total device capacity.  Must be a multiple of ``block_size``.
    block_size:
        The write granularity (512 B or 4 KB on real devices).
    """

    def __init__(self, capacity_bytes: int, block_size: int = 4096):
        if capacity_bytes <= 0 or block_size <= 0:
            raise ValueError("capacity and block size must be positive")
        if capacity_bytes % block_size:
            raise ValueError("capacity %d not a multiple of block size %d"
                             % (capacity_bytes, block_size))
        self.capacity_bytes = int(capacity_bytes)
        self.block_size = int(block_size)
        self.num_blocks = capacity_bytes // block_size
        self._blocks: Dict[int, bytes] = {}
        #: What a never-programmed block reads as.
        self._zero_block = b"\x00" * self.block_size
        #: Blocks copied out by :meth:`read` and the bytes they span:
        #: what the functional model copied, not device reads.  A read
        #: whose bytes the store already holds copies nothing; device
        #: reads are ``SSDStats.reads_completed``.
        self.reads = 0
        self.bytes_read = 0
        #: Blocks programmed and their bytes, whole blocks each (a
        #: short last block is charged as a full one).
        self.writes = 0
        self.bytes_written = 0

    # -- address helpers ------------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity_bytes:
            raise FlashError(
                "access [%d, %d) outside device of %d bytes"
                % (offset, offset + length, self.capacity_bytes))

    # -- I/O -------------------------------------------------------------------

    def write_block(self, block_index: int, data: bytes) -> None:
        """Program one block with ``data``; bytes past it read as zeros."""
        if not 0 <= block_index < self.num_blocks:
            raise FlashError("block %d out of range" % block_index)
        if len(data) > self.block_size:
            raise FlashError("data of %d bytes exceeds block size %d"
                             % (len(data), self.block_size))
        self._blocks[block_index] = bytes(data)  # no copy unless mutable
        self.writes += 1
        self.bytes_written += self.block_size

    def write(self, offset: int, data: bytes) -> None:
        """Program the blocks ``data`` covers, from a block-aligned
        ``offset``; the last one may be short."""
        block_size = self.block_size
        if offset % block_size:
            raise FlashError("write offset %d not block-aligned" % offset)
        size = len(data)
        if offset < 0 or offset + size > self.capacity_bytes:
            self._check_range(offset, size)   # raises
        block = offset // block_size
        if 0 < size <= block_size:
            # The common program, one block.  A fresh copy on purpose:
            # the submitted buffer was allocated at submission among
            # short-lived objects, and keeping it for the life of the
            # block fragments the heap (+1.4 % peak RSS on leedbench
            # ycsb_wr_compact).
            self._blocks[block] = bytes(memoryview(data))
            self.writes += 1
            self.bytes_written += block_size
            return
        view = memoryview(data)
        blocks = self._blocks
        for start in range(0, size, block_size):
            blocks[block] = bytes(view[start:start + block_size])
            block += 1
        count = -(-size // block_size)
        self.writes += count
        self.bytes_written += count * block_size

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes from an arbitrary ``offset``."""
        if offset < 0 or length < 0 or offset + length > self.capacity_bytes:
            self._check_range(offset, length)   # raises
        if length == 0:
            return b""
        block_size = self.block_size
        first = offset // block_size
        count = (offset + length - 1) // block_size - first + 1
        self.reads += count
        self.bytes_read += count * block_size
        blocks = self._blocks
        zero = self._zero_block
        start = offset - first * block_size
        if count == 1:
            blob = blocks.get(first, zero)
            if len(blob) < start + length:   # past what was programmed
                blob = blob.ljust(block_size, b"\x00")
        else:
            parts = [blocks.get(block, zero)
                     for block in range(first, first + count)]
            if sum(map(len, parts)) < count * block_size:
                # Short blocks among them: each is followed by the
                # zeros it did not store (nothing after a full one).
                parts = [piece for part in parts
                         for piece in (part, zero[len(part):])]
            blob = b"".join(parts)
        if start == 0 and length == count * block_size:
            return blob
        return blob[start:start + length]

    def stored_bytes(self, block_index: int) -> int:
        """Bytes block ``block_index`` holds: what its last program
        carried (0 if never programmed), however many it is charged."""
        return len(self._blocks.get(block_index, b""))

    def __repr__(self):
        return "<FlashArray %dB blocks=%d/%d>" % (
            self.capacity_bytes, len(self._blocks), self.num_blocks)
