"""Functional flash storage: real bytes, block granularity.

This is the *functional* half of the SSD substitution (see DESIGN.md):
it stores actual data so that the LEED data store, its compactions,
and recovery paths can be tested for correctness, independent of the
timing model in :mod:`repro.hw.ssd`.

The device is block-addressed.  Writes must be whole blocks (the LEED
bucket is sized to the SSD block for exactly this reason, §3.2.2);
reads may span multiple blocks.
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
        #: Blocks programmed and their bytes.
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
        """Program one block.  Short data is zero-padded to the block."""
        if not 0 <= block_index < self.num_blocks:
            raise FlashError("block %d out of range" % block_index)
        size = len(data)
        if size > self.block_size:
            raise FlashError("data of %d bytes exceeds block size %d"
                             % (size, self.block_size))
        data = bytes(data)  # no copy unless ``data`` is mutable
        if size < self.block_size:
            data += b"\x00" * (self.block_size - size)
        self._blocks[block_index] = data
        self.writes += 1
        self.bytes_written += self.block_size

    def write(self, offset: int, data: bytes) -> None:
        """Program ``data`` starting at a block-aligned ``offset``."""
        block_size = self.block_size
        if offset % block_size:
            raise FlashError("write offset %d not block-aligned" % offset)
        size = len(data)
        if offset < 0 or offset + size > self.capacity_bytes:
            self._check_range(offset, size)   # raises
        block = offset // block_size
        if size == block_size:
            # The common program, one whole block.  A fresh copy on
            # purpose: the submitted buffer was allocated at submission
            # among short-lived objects, and keeping it for the life
            # of the block fragments the heap (+1.4 % peak RSS on
            # leedbench ycsb_wr_compact).
            self._blocks[block] = bytes(memoryview(data))
            self.writes += 1
            self.bytes_written += block_size
            return
        data = bytes(data)
        for start in range(0, size, block_size):
            self.write_block(block, data[start:start + block_size])
            block += 1

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
        if count == 1:
            blob = blocks.get(first)
            if blob is None:
                blob = self._zero_block
        else:
            zero = self._zero_block
            blob = b"".join([blocks.get(block, zero)
                             for block in range(first, first + count)])
        start = offset - first * block_size
        if start == 0 and length == count * block_size:
            return blob
        return blob[start:start + length]

    def __repr__(self):
        return "<FlashArray %dB blocks=%d/%d>" % (
            self.capacity_bytes, len(self._blocks), self.num_blocks)
