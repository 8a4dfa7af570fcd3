"""The circular log — LEED's central on-SSD data structure (§3.2.1).

A fixed-size contiguous region of one SSD.  Head and tail are
*virtual* (monotonically increasing) byte offsets; the physical
position is ``offset % size``.  Three operations:

* ``read`` from a virtual offset within the valid window;
* ``append`` at the tail (whole blocks, or byte-granular through a
  DRAM tail-block staging area for the value log);
* ``advance_head`` — the commit step of compaction, reclaiming space.

The structure exploits NVMe behaviour: random reads anywhere in the
window, strictly sequential writes at the tail, no in-place updates.
"""

from __future__ import annotations

from typing import Dict

from repro.hw.ssd import NVMeSSD
from repro.sim.events import Event


class LogFullError(Exception):
    """An append did not fit between tail and head."""


class LogRangeError(Exception):
    """A read touched bytes outside the valid [head, tail) window."""


class CircularLog:
    """A circular log over a region ``[region_offset, region_offset+size)``.

    Parameters
    ----------
    ssd:
        The backing device (functional + timing).
    region_offset:
        Byte offset of the region on the device; block-aligned.
    size:
        Region size in bytes; a multiple of the device block size.
    name:
        For diagnostics.
    """

    def __init__(self, ssd: NVMeSSD, region_offset: int, size: int,
                 name: str = "log"):
        block = ssd.block_size
        if region_offset % block or size % block:
            raise ValueError("log region must be block-aligned")
        if size <= 0 or region_offset + size > ssd.capacity_bytes:
            raise ValueError("log region [%d,+%d) outside device"
                             % (region_offset, size))
        self.ssd = ssd
        self.sim = ssd.sim
        self.region_offset = region_offset
        self.size = size
        self.block_size = block
        self.name = name
        #: Virtual offsets; head <= tail always, tail - head <= size.
        self.head = 0
        self.tail = 0
        # Byte-granular appends stage into DRAM block images so that
        # concurrent PUTs sharing a tail block cannot lose each other's
        # bytes; a block image is dropped once no writer needs it.
        self._staged: Dict[int, bytearray] = {}
        self._stage_refs: Dict[int, int] = {}
        # Group-commit flush state.  The device applies data at I/O
        # *completion*, and completions reorder under jitter, so two
        # outstanding flushes of one block could land oldest-last and
        # revert the newer writer's bytes.  A single flusher process
        # per log keeps same-block writes ordered; batching (one
        # device write covers every byte merged before it was issued)
        # keeps concurrent writers fast — the append-buffer group
        # commit a real SPDK-driven store performs.
        self._generation = 0
        self._dirty_gen: Dict[int, int] = {}
        self._flushed_gen: Dict[int, int] = {}
        self._flusher_active = False
        self._flush_waiters: list = []
        self.appends = 0
        self.bytes_appended = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.tail - self.head

    @property
    def free_bytes(self) -> int:
        return self.size - self.used_bytes

    def fill_fraction(self) -> float:
        """Used fraction of the log region (compaction trigger input)."""
        return self.used_bytes / self.size

    def contains(self, virtual_offset: int, length: int = 1) -> bool:
        """True when ``[offset, offset+length)`` lies in the valid window."""
        return self.head <= virtual_offset and virtual_offset + length <= self.tail

    def _touched_blocks(self, offset: int, length: int):
        first = offset // self.block_size
        last = (offset + max(length, 1) - 1) // self.block_size
        return range(first, last + 1)

    # -- appends -----------------------------------------------------------------

    def reserve(self, nbytes: int) -> int:
        """Claim ``nbytes`` at the tail; returns the entry's virtual offset.

        Reservation is synchronous (a tail-pointer bump) so concurrent
        PUTs each get a distinct offset before their device writes
        complete — this is what lets LEED overlap the key-segment read
        with the value-log write (§3.3).
        """
        if nbytes > self.free_bytes:
            raise LogFullError("%s: need %d bytes, %d free"
                               % (self.name, nbytes, self.free_bytes))
        offset = self.tail
        self.tail += nbytes
        for block in self._touched_blocks(offset, nbytes):
            self._stage_refs[block] = self._stage_refs.get(block, 0) + 1
        return offset

    def append_blocks(self, data: bytes, trace=None):
        """Generator: append whole blocks; returns the virtual offset.

        ``data`` is padded to a block multiple.  Wrap-around is split
        into at most two device writes.  When the tail is
        block-aligned the new blocks are exclusively owned, so the
        write bypasses the staging/group-commit path and runs in
        parallel with other appends.
        """
        padded = self._pad_to_block(data)
        if self.tail % self.block_size == 0:
            if len(padded) > self.free_bytes:
                raise LogFullError("%s: need %d bytes, %d free"
                                   % (self.name, len(padded), self.free_bytes))
            offset = self.tail
            self.tail += len(padded)
            yield from self._write_at(offset, padded, trace)
            self.appends += 1
            self.bytes_appended += len(padded)
            return offset
        offset = self.reserve(len(padded))
        yield from self.write_reserved(offset, padded, trace)
        return offset

    def append_bytes(self, data: bytes, trace=None):
        """Generator: byte-granular append.

        Only the device blocks touched by this entry are (re)written —
        one block write for small entries, matching one NVMe access
        per PUT value (§3.3).  Returns the virtual offset.
        """
        offset = self.reserve(len(data))
        yield from self.write_reserved(offset, data, trace)
        return offset

    def write_reserved(self, offset: int, data: bytes, trace=None):
        """Generator: fill a range previously claimed with :meth:`reserve`.

        The data is merged into DRAM block images synchronously, then
        the touched blocks are flushed to the device, so interleaved
        writers sharing a block never lose updates.  ``trace`` records
        a ``log.commit`` device-phase span over the group-commit wait
        (the flusher's device write is shared across writers, so this
        span is the per-request attribution of commit time).
        """
        if offset + len(data) > self.tail:
            raise LogRangeError("writing past tail of %s" % self.name)
        ctx = None
        if trace is not None:
            ctx = trace.child("log.commit", cat="device",
                              args={"log": self.name, "bytes": len(data)})
        blocks = list(self._touched_blocks(offset, len(data)))
        # Synchronous merge into staged block images.  A block staged
        # for the first time starts from its on-flash content, not
        # zeros: after crash recovery the partially-filled tail block
        # already holds live bytes that a flush must not clobber (a
        # real store reloads its append buffer the same way).
        for block in blocks:
            image = self._staged.get(block)
            if image is None:
                physical = self.region_offset + (block * self.block_size
                                                 % self.size)
                image = bytearray(self.ssd.flash.read(physical,
                                                      self.block_size))
                self._staged[block] = image
            block_start = block * self.block_size
            lo = max(offset, block_start)
            hi = min(offset + len(data), block_start + self.block_size)
            image[lo - block_start:hi - block_start] = data[lo - offset:hi - offset]
        # Group commit: mark the touched blocks dirty and wait until
        # the flusher has made this writer's generation durable.
        self._generation += 1
        generation = self._generation
        for block in blocks:
            self._dirty_gen[block] = generation
        if not self._flusher_active:
            self._flusher_active = True
            self.sim.process(self._flush_loop(), name=self.name + ".flush")
        while any(self._flushed_gen.get(block, 0) < generation
                  for block in blocks):
            waiter = Event(self.sim)
            self._flush_waiters.append(waiter)
            yield waiter
        # Release staging references; keep images other writers still need
        # and the current tail block (future appends extend it).
        tail_block = self.tail // self.block_size
        for block in blocks:
            self._stage_refs[block] -= 1
            if self._stage_refs[block] <= 0:
                del self._stage_refs[block]
                if block != tail_block:
                    self._staged.pop(block, None)
                    self._dirty_gen.pop(block, None)
                    self._flushed_gen.pop(block, None)
        if ctx is not None:
            ctx.finish()
        self.appends += 1
        self.bytes_appended += len(data)
        return offset

    def _next_dirty_run(self):
        """The lowest contiguous run of blocks still awaiting a flush."""
        dirty = sorted(block for block, generation in self._dirty_gen.items()
                       if self._flushed_gen.get(block, 0) < generation)
        if not dirty:
            return None
        low = high = dirty[0]
        for block in dirty[1:]:
            if block != high + 1:
                break
            high = block
        return low, high

    def _flush_loop(self):
        """Flusher process: one in-flight device write at a time.

        Each iteration snapshots the current images of the lowest
        dirty run — so the write carries every byte merged before it
        was issued — and records the generations it captured once the
        write completes.  Writers whose generation is covered resume;
        bytes merged while the write was in flight stay dirty and are
        picked up by the next iteration.
        """
        try:
            while True:
                run = self._next_dirty_run()
                if run is None:
                    break
                low, high = run
                captured = {block: self._dirty_gen[block]
                            for block in range(low, high + 1)}
                data = b"".join(bytes(self._staged[block])
                                for block in range(low, high + 1))
                yield from self._write_at(low * self.block_size, data)
                for block, generation in captured.items():
                    if self._flushed_gen.get(block, 0) < generation:
                        self._flushed_gen[block] = generation
                waiters, self._flush_waiters = self._flush_waiters, []
                for waiter in waiters:
                    waiter.succeed()
        finally:
            self._flusher_active = False

    def _pad_to_block(self, data: bytes) -> bytes:
        remainder = len(data) % self.block_size
        if remainder:
            return bytes(data) + b"\x00" * (self.block_size - remainder)
        return bytes(data)

    def _write_at(self, virtual_offset: int, data: bytes, trace=None):
        """Device write(s) with wrap-around splitting."""
        start_physical = virtual_offset % self.size
        first_len = min(len(data), self.size - start_physical)
        yield from self.ssd.write(self.region_offset + start_physical,
                                  data[:first_len], trace=trace)
        if first_len < len(data):
            yield from self.ssd.write(self.region_offset, data[first_len:],
                                      trace=trace)

    # -- reads --------------------------------------------------------------------

    def _read_spans(self, virtual_offset: int, length: int):
        """Device ``(offset, length)`` spans of a read inside the window.

        Raises :class:`LogRangeError` before any device work when the
        range is not wholly inside ``[head, tail)``; a read that wraps
        the end of the region splits into two spans.
        """
        if not self.contains(virtual_offset, length):
            raise LogRangeError(
                "%s: read [%d,+%d) outside window [%d,%d)"
                % (self.name, virtual_offset, length, self.head, self.tail))
        start_physical = virtual_offset % self.size
        first_len = min(length, self.size - start_physical)
        spans = [(self.region_offset + start_physical, first_len)]
        if first_len < length:
            spans.append((self.region_offset, length - first_len))
        return spans

    def read(self, virtual_offset: int, length: int, trace=None):
        """Generator: read ``length`` bytes at a virtual offset.

        Bytes still staged in DRAM (tail block not yet flushed by a
        concurrent writer) are served from the staged image, exactly as
        a real store would serve them from its append buffer.  A
        wrapped read issues its two device reads back to back.
        """
        data = b""
        for offset, span in self._read_spans(virtual_offset, length):
            data += yield from self.ssd.read(offset, span, trace=trace)
        return self._overlay_staged(virtual_offset, data)

    def read_at(self, virtual_offset: int, length: int, at: float):
        """Analytic read (fast datapath): returns ``(data, done_us)``.

        Synchronous variant of :meth:`read` for fused server paths:
        same validation, wrap splitting and staged-byte overlay, but
        the device model is charged starting at ``at`` (both halves of
        a wrapped read at once) and the completion time is returned
        instead of yielded on.
        """
        data = b""
        done = at
        for offset, span in self._read_spans(virtual_offset, length):
            part, part_done = self.ssd.read_at(offset, span, at)
            data += part
            done = max(done, part_done)
        return self._overlay_staged(virtual_offset, data), done

    def charge_read_at(self, virtual_offset: int, length: int,
                       at: float) -> float:
        """:meth:`read_at` timing without fetching the bytes.

        For callers that hold the decoded content cached: the device
        model is charged exactly as for a real read (the simulated SSD
        has no read cache), only the copy out is skipped.
        """
        done = at
        for _offset, span in self._read_spans(virtual_offset, length):
            done = max(done, self.ssd.charge_read_at(span, at))
        return done

    def _overlay_staged(self, offset: int, data: bytes) -> bytes:
        """``data`` with bytes of blocks still staged in DRAM laid over."""
        if not self._staged:
            return data
        data = bytearray(data)
        for block in self._touched_blocks(offset, len(data)):
            image = self._staged.get(block)
            if image is None:
                continue
            block_start = block * self.block_size
            lo = max(offset, block_start)
            hi = min(offset + len(data), block_start + self.block_size)
            data[lo - offset:hi - offset] = image[lo - block_start:hi - block_start]
        return bytes(data)

    # -- reclamation ------------------------------------------------------------------

    def advance_head(self, new_head: int) -> None:
        """Move the head forward, reclaiming ``new_head - head`` bytes."""
        if not self.head <= new_head <= self.tail:
            raise LogRangeError("%s: head %d -> %d outside [%d,%d]"
                                % (self.name, self.head, new_head,
                                   self.head, self.tail))
        self.head = new_head

    def __repr__(self):
        return "<CircularLog %s head=%d tail=%d free=%d/%d>" % (
            self.name, self.head, self.tail, self.free_bytes, self.size)
