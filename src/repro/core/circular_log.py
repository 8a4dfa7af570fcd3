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

from functools import partial
from typing import Dict, List

from repro.hw.ssd import NVMeSSD
from repro.sim.events import Event


class LogFullError(Exception):
    """An append did not fit between tail and head."""


class LogRangeError(Exception):
    """A read touched bytes outside the valid [head, tail) window."""


class CommitTicket(Event):
    """An entry given to :meth:`CircularLog.commit`; fires once flushes
    covered every block it touched.  With no waiter attached by then
    it is just marked processed — check ``processed`` before yielding."""

    __slots__ = ("blocks", "generation", "nbytes", "ctx")


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
        # revert the newer writer's bytes.  One flush in flight per
        # log keeps same-block writes ordered; batching (one device
        # write covers every byte merged before it was issued) keeps
        # concurrent writers fast — the append-buffer group commit a
        # real SPDK-driven store performs.
        self._generation = 0
        self._dirty_gen: Dict[int, int] = {}
        self._flushed_gen: Dict[int, int] = {}
        self._flusher_active = False
        #: Committed entries not yet durable, in commit order.
        self._uncommitted: List[CommitTicket] = []
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
        if self.tail % self.block_size:
            return (yield from self.append_bytes(padded, trace))
        if len(padded) > self.free_bytes:
            raise LogFullError("%s: need %d bytes, %d free"
                               % (self.name, len(padded), self.free_bytes))
        offset = self.tail
        self.tail += len(padded)
        for part_offset, part in self._write_spans(offset, padded):
            yield self.ssd.write_event(part_offset, part, trace)
        self.appends += 1
        self.bytes_appended += len(padded)
        return offset

    def append_bytes(self, data: bytes, trace=None):
        """Generator: byte-granular append.

        Only the device blocks touched by this entry are (re)written —
        one block write for small entries, matching one NVMe access
        per PUT value (§3.3).  Returns the virtual offset.
        """
        offset = self.reserve(len(data))
        return (yield from self.write_reserved(offset, data, trace))

    def write_reserved(self, offset: int, data: bytes, trace=None):
        """Generator: :meth:`commit`, waited for; returns ``offset``."""
        ticket = self.commit(offset, data, trace)
        if not ticket.processed:
            yield ticket
        return offset

    def commit(self, offset: int, data: bytes, trace=None) -> "CommitTicket":
        """Fill a range previously claimed with :meth:`reserve`.

        The data is merged into DRAM block images synchronously, so
        interleaved writers sharing a block never lose updates, and
        the touched blocks are marked dirty for the group-commit
        flusher; the caller waits on the returned ticket only if the
        entry is not durable by then.  ``trace`` records a
        ``log.commit`` device-phase span from here to durability (the
        flush is shared across writers, so this span is the
        per-request attribution of commit time).
        """
        if offset + len(data) > self.tail:
            raise LogRangeError("writing past tail of %s" % self.name)
        ctx = None
        if trace is not None:
            ctx = trace.child("log.commit", cat="device",
                              args={"log": self.name, "bytes": len(data)})
        blocks = self._touched_blocks(offset, len(data))
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
        self._generation += 1
        for block in blocks:
            self._dirty_gen[block] = self._generation
        ticket = CommitTicket(self.sim)
        ticket.blocks, ticket.generation, ticket.nbytes, ticket.ctx = (
            blocks, self._generation, len(data), ctx)
        self._uncommitted.append(ticket)
        if not self._flusher_active:
            # Submitted one zero-delay event later, not here: entries
            # committed at this same instant ride the first flush, and
            # a device access the caller submits next (PUT's segment
            # read) is admitted, and draws its jitter, before it.
            self._flusher_active = True
            self.sim.schedule(0.0, self._flush_next)
        return ticket

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

    def _flush_next(self) -> None:
        """Group-commit flusher: one in-flight device write at a time.

        Snapshots the current images of the lowest dirty run — so the
        write carries every byte merged before it was issued — and
        submits it (two back-to-back device writes when the run wraps
        the region).  Bytes merged while it is in flight stay dirty
        and are picked up by the next run.
        """
        run = self._next_dirty_run()
        if run is None:
            self._flusher_active = False
            return
        low, high = run
        captured = {block: self._dirty_gen[block]
                    for block in range(low, high + 1)}
        data = b"".join(bytes(self._staged[block])
                        for block in range(low, high + 1))
        self._write_run(self._write_spans(low * self.block_size, data),
                        captured)

    def _write_run(self, spans, captured: Dict[int, int], _event=None) -> None:
        """Submit a flush's next device write; after the last, finish."""
        if spans:
            self.ssd.write_event(*spans[0]).callbacks.append(
                partial(self._write_run, spans[1:], captured))
        else:
            self._flushed(captured)

    def _flushed(self, captured: Dict[int, int]) -> None:
        """Record the generations a completed flush captured, retire the
        entries it made durable (commit order), start the next run."""
        flushed = self._flushed_gen
        for block, generation in captured.items():
            if flushed.get(block, 0) < generation:
                flushed[block] = generation
        waiting = []
        for ticket in self._uncommitted:
            if any(flushed.get(block, 0) < ticket.generation
                   for block in ticket.blocks):
                waiting.append(ticket)
            else:
                self._retire(ticket)
        self._uncommitted = waiting
        self._flush_next()

    def _retire(self, ticket: "CommitTicket") -> None:
        """A durable entry: release its staging references (keeping
        images other writers still need and the current tail block,
        which future appends extend), close its span, count the append
        and wake its waiter if one was attached."""
        tail_block = self.tail // self.block_size
        for block in ticket.blocks:
            self._stage_refs[block] -= 1
            if self._stage_refs[block] <= 0:
                del self._stage_refs[block]
                if block != tail_block:
                    self._staged.pop(block, None)
                    self._dirty_gen.pop(block, None)
                    self._flushed_gen.pop(block, None)
        if ticket.ctx is not None:
            ticket.ctx.finish()
        self.appends += 1
        self.bytes_appended += ticket.nbytes
        if ticket.callbacks:
            ticket.succeed()
        else:
            ticket._ok, ticket._value, ticket.callbacks = True, None, None

    def _pad_to_block(self, data: bytes) -> bytes:
        remainder = len(data) % self.block_size
        if remainder:
            return bytes(data) + b"\x00" * (self.block_size - remainder)
        return bytes(data)

    def _write_spans(self, virtual_offset: int, data: bytes):
        """Device ``(offset, bytes)`` writes of ``data`` at a virtual
        offset: two when the range wraps the end of the region."""
        start_physical = virtual_offset % self.size
        first_len = min(len(data), self.size - start_physical)
        spans = [(self.region_offset + start_physical, data[:first_len])]
        if first_len < len(data):
            spans.append((self.region_offset, data[first_len:]))
        return spans

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
            data += yield self.ssd.read_event(offset, span, trace)
        return self._overlay_staged(virtual_offset, data)

    def read_event(self, virtual_offset: int, length: int):
        """Completion event (value: the bytes) of a read that does not
        wrap the region, e.g. one aligned block — for a caller that
        holds the read while doing something else (prefetch)."""
        (span,) = self._read_spans(virtual_offset, length)
        event = self.ssd.read_event(*span)

        def overlay(event) -> None:
            event._value = self._overlay_staged(virtual_offset, event._value)

        event.callbacks.append(overlay)
        return event

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
