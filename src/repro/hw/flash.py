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
        # Counters for observability.
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
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
        if len(data) > self.block_size:
            raise FlashError("data of %d bytes exceeds block size %d"
                             % (len(data), self.block_size))
        if len(data) < self.block_size:
            data = bytes(data) + b"\x00" * (self.block_size - len(data))
        self._blocks[block_index] = bytes(data)
        self.writes += 1
        self.bytes_written += self.block_size

    def write(self, offset: int, data: bytes) -> None:
        """Program ``data`` starting at a block-aligned ``offset``."""
        if offset % self.block_size:
            raise FlashError("write offset %d not block-aligned" % offset)
        self._check_range(offset, len(data))
        block = offset // self.block_size
        view = memoryview(bytes(data))
        for start in range(0, len(data), self.block_size):
            self.write_block(block, bytes(view[start:start + self.block_size]))
            block += 1

    def read(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes from an arbitrary ``offset``."""
        self._check_range(offset, length)
        if length == 0:
            return b""
        first = offset // self.block_size
        last = (offset + length - 1) // self.block_size
        chunks = []
        for block in range(first, last + 1):
            self.reads += 1
            self.bytes_read += self.block_size
            chunks.append(self._blocks.get(block, b"\x00" * self.block_size))
        blob = b"".join(chunks)
        start = offset - first * self.block_size
        return blob[start:start + length]

    def __repr__(self):
        return "<FlashArray %dB blocks=%d/%d>" % (
            self.capacity_bytes, len(self._blocks), self.num_blocks)
