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

from operator import attrgetter
from typing import Dict, List, Optional, Set

from repro.hw.ssd import NVMeSSD
from repro.sim.events import PENDING, Event

_new = object.__new__


class LogFullError(Exception):
    """An append did not fit between tail and head."""


class LogRangeError(Exception):
    """A read touched bytes outside the valid [head, tail) window."""


class CommitTicket(Event):
    """An entry given to :meth:`CircularLog.commit`; fires once flushes
    covered every block it touched.  With no waiter attached by then
    it is just marked processed — check ``processed`` before yielding."""

    #: ``blocks`` the entry touches, ``pending`` of them not yet
    #: covered by a completed flush; ``sequence`` is the commit order.
    __slots__ = ("blocks", "pending", "sequence", "nbytes", "ctx")


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
        #: Blocks holding bytes merged since their last flush was issued.
        self._dirty: Set[int] = set()
        #: Per block, the committed entries (commit order) that no
        #: flush issued so far covers there.
        self._waiting: Dict[int, List[CommitTicket]] = {}
        self._commits = 0
        self._flusher_active = False
        #: The flush in flight: the entry-blocks it covers, and the
        #: second device write of a run that wraps the region.
        self._flush_covers: List[CommitTicket] = []
        self._flush_rest: Optional[tuple] = None
        #: Headroom the owning store keeps free for its compactor (the
        #: store sets and enforces it; appends here do not).
        self.compaction_reserve = 0
        self.appends = 0
        self.bytes_appended = 0

    # -- geometry ---------------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self.tail - self.head

    @property
    def free_bytes(self) -> int:
        return self.size - (self.tail - self.head)

    def fill_fraction(self) -> float:
        """Used fraction of the log region (compaction trigger input)."""
        return self.used_bytes / self.size

    def contains(self, virtual_offset: int, length: int = 1) -> bool:
        """True when ``[offset, offset+length)`` lies in the valid window."""
        return self.head <= virtual_offset and virtual_offset + length <= self.tail

    # -- appends -----------------------------------------------------------------

    def reserve(self, nbytes: int) -> int:
        """Claim ``nbytes`` at the tail; returns the entry's virtual offset.

        Reservation is synchronous (a tail-pointer bump) so concurrent
        PUTs each get a distinct offset before their device writes
        complete — this is what lets LEED overlap the key-segment read
        with the value-log write (§3.3).
        """
        offset = self.tail
        if nbytes > self.size - (offset - self.head):
            raise LogFullError("%s: need %d bytes, %d free"
                               % (self.name, nbytes, self.free_bytes))
        self.tail = offset + nbytes
        refs = self._stage_refs
        size = self.block_size
        # The blocks the entry touches (an empty one: its first).
        for block in range(offset // size,
                           (offset + (nbytes or 1) - 1) // size + 1):
            refs[block] = refs.get(block, 0) + 1
        return offset

    def append_blocks(self, data: bytes, trace=None):
        """Generator: append whole blocks; returns the virtual offset.

        The tail advances by ``data`` rounded up to whole blocks, and
        the device is charged for them, but only ``data`` is
        programmed: reads see the rest of a short last block as zeros.
        Wrap-around is split into at most two device writes.  When the
        tail is block-aligned the new blocks are exclusively owned, so
        the write bypasses the staging/group-commit path and runs in
        parallel with other appends.
        """
        block = self.block_size
        data = bytes(data)  # itself when already immutable
        nbytes = -(-len(data) // block) * block
        offset = self.tail
        if offset % block:
            return (yield from self.append_bytes(
                data.ljust(nbytes, b"\x00"), trace))
        if nbytes > self.size - (offset - self.head):
            raise LogFullError("%s: need %d bytes, %d free"
                               % (self.name, nbytes, self.free_bytes))
        self.tail = offset + nbytes
        for part_offset, part in self._write_spans(offset, data):
            yield self.ssd.write_event(part_offset, part, trace)
        self.appends += 1
        self.bytes_appended += nbytes
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
        nbytes = len(data)
        end = offset + nbytes
        if end > self.tail:
            raise LogRangeError("writing past tail of %s" % self.name)
        ctx = None
        if trace is not None:
            ctx = trace.child("log.commit", cat="device",
                              args={"log": self.name, "bytes": nbytes})
        size = self.block_size
        first = offset // size
        stop = (offset + (nbytes or 1) - 1) // size + 1
        blocks = range(first, stop)
        self._commits += 1
        # ``Event.__init__`` spelled out (one ticket per PUT replica).
        ticket = _new(CommitTicket)
        ticket.sim = self.sim
        ticket.callbacks = []
        ticket._value = PENDING
        ticket._ok = None
        ticket._defused = False
        ticket.blocks = blocks
        ticket.pending = stop - first
        ticket.sequence = self._commits
        ticket.nbytes = nbytes
        ticket.ctx = ctx
        # Synchronous merge into staged block images.  A block staged
        # for the first time starts from its on-flash content, not
        # zeros: after crash recovery the partially-filled tail block
        # already holds live bytes that a flush must not clobber (a
        # real store reloads its append buffer the same way).
        staged = self._staged
        dirty = self._dirty
        waiting = self._waiting
        for block in blocks:
            block_start = block * size
            image = staged.get(block)
            if image is None:
                image = staged[block] = bytearray(self.ssd.flash.read(
                    self.region_offset + block_start % self.size, size))
            lo = offset if offset > block_start else block_start
            hi = end if end < block_start + size else block_start + size
            image[lo - block_start:hi - block_start] = data[lo - offset:hi - offset]
            if block in dirty:
                waiting[block].append(ticket)
            else:
                dirty.add(block)
                waiting[block] = [ticket]
        if not self._flusher_active:
            # Submitted one zero-delay event later, not here: entries
            # committed at this same instant ride the first flush, and
            # a device access the caller submits next (PUT's segment
            # read) is admitted, and draws its jitter, before it.
            self._flusher_active = True
            self.sim.timeout(0.0).callbacks.append(self._flush_next)
        return ticket

    def _flush_next(self, _event=None) -> None:
        """Group-commit flusher: one in-flight device write at a time.

        Snapshots the current images of the lowest contiguous run of
        dirty blocks — so the write carries every byte merged before
        it was issued, and covers every entry committed there by now —
        and submits it (two back-to-back device writes when the run
        wraps the region).  Bytes merged while it is in flight make
        their blocks dirty again and are picked up by the next run.
        """
        dirty = self._dirty
        if not dirty:
            self._flusher_active = False
            return
        low = high = min(dirty)
        while high + 1 in dirty:
            high += 1
        staged = self._staged
        waiting = self._waiting
        if low == high:
            dirty.remove(low)
            self._flush_covers = waiting.pop(low)
            data = bytes(staged[low])
        else:
            covers = self._flush_covers = []
            images = []
            for block in range(low, high + 1):
                dirty.remove(block)
                covers += waiting.pop(block)
                images.append(staged[block])
            data = b"".join(images)
        first, *rest = self._write_spans(low * self.block_size, data)
        self._flush_rest = rest[0] if rest else None
        self.ssd.write_event(*first).callbacks.append(self._flush_written)

    def _flush_written(self, _event) -> None:
        """A device write of the flush in flight completed: submit its
        second one if the run wrapped; else retire the entries it made
        durable (commit order) and start the next run."""
        rest = self._flush_rest
        if rest is not None:
            self._flush_rest = None
            self.ssd.write_event(*rest).callbacks.append(self._flush_written)
            return
        durable = []
        for ticket in self._flush_covers:
            ticket.pending -= 1
            if not ticket.pending:
                durable.append(ticket)
        self._flush_covers = []
        if len(durable) > 1:
            # Block by block is commit order only within a block.
            durable.sort(key=attrgetter("sequence"))
        for ticket in durable:
            self._retire(ticket)
        self._flush_next()

    def _retire(self, ticket: "CommitTicket") -> None:
        """A durable entry: release its staging references (keeping
        images other writers still need and the current tail block,
        which future appends extend), close its span, count the append
        and wake its waiter, if one was attached, inside this dispatch."""
        tail_block = self.tail // self.block_size
        refs = self._stage_refs
        for block in ticket.blocks:
            count = refs[block] - 1
            if count > 0:
                refs[block] = count
            else:
                del refs[block]
                if block != tail_block:
                    self._staged.pop(block, None)
        if ticket.ctx is not None:
            ticket.ctx.finish()
        self.appends += 1
        self.bytes_appended += ticket.nbytes
        if ticket.callbacks:
            ticket.succeed_inline()
        else:
            ticket._ok, ticket._value, ticket.callbacks = True, None, None

    def _write_spans(self, virtual_offset: int, data: bytes):
        """Device ``(offset, bytes)`` writes of ``data`` at a virtual
        offset: two when the range wraps the end of the region."""
        start_physical = virtual_offset % self.size
        room = self.size - start_physical
        if len(data) <= room:
            return ((self.region_offset + start_physical, data),)
        return ((self.region_offset + start_physical, data[:room]),
                (self.region_offset, data[room:]))

    # -- reads --------------------------------------------------------------------

    def _read_spans(self, virtual_offset: int, length: int):
        """Device ``(offset, length)`` spans of a read inside the window.

        Raises :class:`LogRangeError` before any device work when the
        range is not wholly inside ``[head, tail)``; a read that wraps
        the end of the region splits into two spans.
        """
        if virtual_offset < self.head or virtual_offset + length > self.tail:
            raise LogRangeError(
                "%s: read [%d,+%d) outside window [%d,%d)"
                % (self.name, virtual_offset, length, self.head, self.tail))
        start_physical = virtual_offset % self.size
        room = self.size - start_physical
        if length <= room:
            return ((self.region_offset + start_physical, length),)
        return ((self.region_offset + start_physical, room),
                (self.region_offset, length - room))

    def read(self, virtual_offset: int, length: int, trace=None):
        """Generator: read ``length`` bytes at a virtual offset.

        :meth:`charge_read`, waited for, then :meth:`fetch`.  Bytes
        still staged in DRAM (tail block not yet flushed by a
        concurrent writer) are served from the staged image, exactly as
        a real store would serve them from its append buffer.
        """
        head = yield self.charge_read(virtual_offset, length, trace)
        return self.fetch(virtual_offset, length, head)

    def charge_read(self, virtual_offset: int, length: int,
                    trace=None) -> Event:
        """Submit :meth:`read`'s device reads without copying their
        bytes; returns the completion event of the last.

        Validates the range at the call and issues the spans back to
        back, as :meth:`read` does.  For a caller that holds the
        decoded content, or copies it (:meth:`fetch`) only when it
        turns out not to.  The event's value is None, except for a
        wrapped read: its first span is copied at that span's
        completion, when a read copies it, and the event carries those
        bytes for :meth:`fetch`.
        """
        ssd = self.ssd
        (offset, room), *wrapped = self._read_spans(virtual_offset, length)
        if not wrapped:
            return ssd.charge_read_event(length, trace)
        done = Event(self.sim)

        def second(first) -> None:
            def fire(_event) -> None:
                # ``done.succeed`` without scheduling it: its waiter
                # runs inside this completion, as if it had waited on
                # the second span itself.
                done._ok = True
                done._value = first._value
                callbacks, done.callbacks = done.callbacks, None
                for callback in callbacks:
                    callback(done)

            ssd.charge_read_event(wrapped[0][1], trace).callbacks.append(fire)

        ssd.read_event(offset, room, trace).callbacks.append(second)
        return done

    def fetch(self, virtual_offset: int, length: int,
              head: Optional[bytes] = None) -> bytes:
        """The bytes a read of the range completing now returns: flash
        with the staged images laid over, charging no device time and
        checking no window.  ``head`` is the value of the range's
        :meth:`charge_read` event (a wrapped read's first span)."""
        flash = self.ssd.flash
        start = virtual_offset
        if head:
            start += len(head)
            length -= len(head)
        physical = start % self.size
        room = self.size - physical
        data = flash.read(self.region_offset + physical,
                          length if length <= room else room)
        if length > room:
            data += flash.read(self.region_offset, length - room)
        if head:
            data = head + data
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

    def charge_read_at(self, virtual_offset: int, length: int,
                       at: float) -> float:
        """Analytic :meth:`charge_read` (fast datapath): returns
        ``done_us``.

        Same validation and wrap splitting, but the device model is
        charged starting at ``at`` (both halves of a wrapped read at
        once) and the completion time is returned instead of yielded
        on.  No bytes are copied: a caller that needs them calls
        :meth:`fetch` now.
        """
        done = at
        for _offset, span in self._read_spans(virtual_offset, length):
            part_done = self.ssd.charge_read_at(span, at)
            if part_done > done:
                done = part_done
        return done

    def _overlay_staged(self, offset: int, data: bytes) -> bytes:
        """``data`` with bytes of blocks still staged in DRAM laid over."""
        staged = self._staged
        if not staged:
            return data
        size = self.block_size
        length = len(data)
        end = offset + length
        patched = None
        for block in range(offset // size,
                           (offset + (length or 1) - 1) // size + 1):
            image = staged.get(block)
            if image is None:
                continue
            if patched is None:
                patched = bytearray(data)
            block_start = block * size
            lo = offset if offset > block_start else block_start
            hi = end if end < block_start + size else block_start + size
            patched[lo - offset:hi - offset] = image[lo - block_start:hi - block_start]
        return data if patched is None else bytes(patched)

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
