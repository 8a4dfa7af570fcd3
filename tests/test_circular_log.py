"""Tests for the circular log data structure (§3.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.circular_log import CircularLog, LogFullError, LogRangeError
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive


@pytest.fixture
def log(sim, quiet_ssd):
    return CircularLog(quiet_ssd, region_offset=0, size=16 << 10, name="t")


class TestGeometry:
    def test_initially_empty(self, log):
        assert log.used_bytes == 0
        assert log.free_bytes == log.size
        assert log.fill_fraction() == 0.0

    def test_alignment_enforced(self, sim, quiet_ssd):
        with pytest.raises(ValueError):
            CircularLog(quiet_ssd, region_offset=100, size=1024)
        with pytest.raises(ValueError):
            CircularLog(quiet_ssd, region_offset=0, size=1000)

    def test_region_must_fit_device(self, sim, quiet_ssd):
        with pytest.raises(ValueError):
            CircularLog(quiet_ssd, region_offset=0,
                        size=quiet_ssd.capacity_bytes + 512)


class TestAppendRead:
    def test_block_append_roundtrip(self, sim, log):
        def proc():
            offset = yield from log.append_blocks(b"hello-block")
            data = yield from log.read(offset, 11)
            return offset, data

        offset, data = drive(sim, proc())
        assert offset == 0
        assert data == b"hello-block"
        assert log.tail == 512  # padded to one block

    def test_byte_append_roundtrip(self, sim, log):
        def proc():
            first = yield from log.append_bytes(b"aaa")
            second = yield from log.append_bytes(b"bbbb")
            data1 = yield from log.read(first, 3)
            data2 = yield from log.read(second, 4)
            return first, second, data1, data2

        first, second, data1, data2 = drive(sim, proc())
        assert (first, second) == (0, 3)
        assert data1 == b"aaa"
        assert data2 == b"bbbb"
        assert log.tail == 7  # byte-granular tail

    def test_concurrent_byte_appends_share_block(self, sim, log):
        """Two writers staging into the same tail block must not lose
        each other's bytes (the DRAM staging invariant)."""
        def writer(payload):
            offset = log.reserve(len(payload))
            yield sim.timeout(1)  # interleave before the flush
            yield from log.write_reserved(offset, payload)
            return offset

        proc_a = sim.process(writer(b"A" * 100))
        proc_b = sim.process(writer(b"B" * 100))
        sim.run()

        def check():
            data = yield from log.read(0, 200)
            return data

        data = drive(sim, check())
        assert data == b"A" * 100 + b"B" * 100

    def test_read_outside_window_rejected(self, sim, log):
        def proc():
            yield from log.append_bytes(b"xy")
            with pytest.raises(LogRangeError):
                yield from log.read(10, 5)

        drive(sim, proc())

    def test_full_log_rejects_append(self, sim, log):
        def proc():
            yield from log.append_blocks(b"z" * log.size)
            with pytest.raises(LogFullError):
                log.reserve(1)

        drive(sim, proc())


class TestWrapAround:
    def test_wrapped_append_and_read(self, sim, log):
        """After reclaiming the head, appends wrap to the region start
        and reads spanning the physical boundary still work."""
        block = log.block_size
        blocks_total = log.size // block

        def proc():
            # Fill the log completely.
            for index in range(blocks_total):
                yield from log.append_blocks(bytes([index % 256]) * block)
            # Reclaim the first half.
            log.advance_head(log.size // 2)
            # Append wraps into the freed space.
            payload = b"WRAPPED!" * (block // 8)
            offset = yield from log.append_blocks(payload * 2)
            data = yield from log.read(offset, 2 * block)
            return offset, data, payload

        offset, data, payload = drive(sim, proc())
        assert offset == log.size  # virtual offsets keep growing
        assert data == payload * 2

    def test_wrapped_read_copies_each_span_at_its_completion(self, sim, log):
        """A flash change that lands between the two spans' completions
        shows in neither ``read`` nor ``charge_read`` + ``fetch``: the
        first span's bytes are the ones its completion saw."""
        block = log.block_size

        def fill():
            for _ in range(log.size // block):
                yield from log.append_blocks(b"\x01" * block)
            log.advance_head(log.size - block)      # keep the last block
            yield from log.append_blocks(b"\x02" * block)   # wraps

        drive(sim, fill())
        start = log.size - block
        last_block = log.region_offset + log.size - block

        def read():
            return (yield from log.read(start, 2 * block))

        def charge_and_fetch():
            head = yield log.charge_read(start, 2 * block)
            return log.fetch(start, 2 * block, head)

        outcomes = []
        for reader in (read, charge_and_fetch):
            proc = sim.process(reader())
            sim.run(until=sim.now + 80.0)   # span 1 done, span 2 in flight
            log.ssd.flash.write(last_block, b"\x03" * block)
            outcomes.append(sim.run(until=proc))
            log.ssd.flash.write(last_block, b"\x01" * block)
        assert outcomes == [b"\x01" * block + b"\x02" * block] * 2

    def test_virtual_offsets_monotonic(self, sim, log):
        def proc():
            offsets = []
            for round_index in range(3):
                for _ in range(log.size // log.block_size // 2):
                    offset = yield from log.append_blocks(b"x")
                    offsets.append(offset)
                log.advance_head(log.tail)
            return offsets

        offsets = drive(sim, proc())
        assert offsets == sorted(offsets)
        assert len(set(offsets)) == len(offsets)


class TestHeadAdvance:
    def test_reclaims_space(self, sim, log):
        def proc():
            yield from log.append_blocks(b"x" * 2048)
            log.advance_head(1024)
            return log.free_bytes

        assert drive(sim, proc()) == log.size - 1024

    def test_cannot_move_backwards_or_past_tail(self, sim, log):
        def proc():
            yield from log.append_blocks(b"x" * 1024)
            log.advance_head(512)
            with pytest.raises(LogRangeError):
                log.advance_head(256)
            with pytest.raises(LogRangeError):
                log.advance_head(log.tail + 1)

        drive(sim, proc())

    def test_read_of_reclaimed_range_rejected(self, sim, log):
        def proc():
            offset = yield from log.append_blocks(b"old" + b"\x00" * 509)
            yield from log.append_blocks(b"new")
            log.advance_head(512)
            with pytest.raises(LogRangeError):
                yield from log.read(offset, 3)

        drive(sim, proc())


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(chunks=st.lists(st.binary(min_size=1, max_size=700),
                           min_size=1, max_size=20))
    def test_byte_appends_always_read_back(self, chunks):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(0))
        log = CircularLog(ssd, 0, 64 << 10)

        def proc():
            offsets = []
            for chunk in chunks:
                offset = yield from log.append_bytes(chunk)
                offsets.append(offset)
            contents = []
            for offset, chunk in zip(offsets, chunks):
                data = yield from log.read(offset, len(chunk))
                contents.append(data)
            return contents

        process = sim.process(proc())
        contents = sim.run(until=process)
        assert contents == chunks

    @settings(max_examples=25, deadline=None)
    @given(sizes=st.lists(st.integers(min_value=1, max_value=2000),
                          min_size=1, max_size=30))
    def test_accounting_invariants(self, sizes):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(0))
        log = CircularLog(ssd, 0, 64 << 10)

        def proc():
            for size in sizes:
                if size > log.free_bytes:
                    log.advance_head(log.tail - log.used_bytes // 2)
                if size <= log.free_bytes:
                    yield from log.append_bytes(b"q" * size)
                assert 0 <= log.used_bytes <= log.size
                assert log.head <= log.tail

        process = sim.process(proc())
        sim.run(until=process)


class ProcessFlusherLog(CircularLog):
    """Test-only reference: the group commit as it was before the
    callback chain — ``write_reserved`` parks the writer on a waiter
    that every flush completion wakes, and a flusher *process* issues
    the device writes.  Kept so the callback form can be held to it,
    exactly, the way ``TestResourceEquivalence`` holds the calendars
    to the ``Resource`` models they replaced.  It also keeps that
    version's own bookkeeping — a commit generation per dirty block and
    per flushed block, compared on every wake-up — which the log itself
    replaced by a dirty set and per-block waiting lists."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._flush_waiters = []
        self._generation = 0
        self._dirty_gen = {}
        self._flushed_gen = {}

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

    def write_reserved(self, offset, data, trace=None):
        size = self.block_size
        blocks = list(range(offset // size,
                            (offset + (len(data) or 1) - 1) // size + 1))
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
        generation = self._generation
        for block in blocks:
            self._dirty_gen[block] = generation
        if not self._flusher_active:
            self._flusher_active = True
            self.sim.process(self._flush_loop(), name=self.name + ".flush")
        while any(self._flushed_gen.get(block, 0) < generation
                  for block in blocks):
            waiter = self.sim.event()
            self._flush_waiters.append(waiter)
            yield waiter
        tail_block = self.tail // self.block_size
        for block in blocks:
            self._stage_refs[block] -= 1
            if self._stage_refs[block] <= 0:
                del self._stage_refs[block]
                if block != tail_block:
                    self._staged.pop(block, None)
                    self._dirty_gen.pop(block, None)
                    self._flushed_gen.pop(block, None)
        self.appends += 1
        self.bytes_appended += len(data)
        return offset

    def _flush_loop(self):
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
                for offset, part in self._write_spans(low * self.block_size,
                                                      data):
                    yield from self.ssd.write(offset, part)
                for block, generation in captured.items():
                    if self._flushed_gen.get(block, 0) < generation:
                        self._flushed_gen[block] = generation
                waiters, self._flush_waiters = self._flush_waiters, []
                for waiter in waiters:
                    waiter.succeed()
        finally:
            self._flusher_active = False


class TestGroupCommitEquivalence:
    """Callback group commit ≡ the process flusher, to the last bit and
    byte, on twin logs over jittered twin devices."""

    SIZE = 16 << 10

    def _run(self, log_class, start, writers):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                      jitter=0.1), rng=RngRegistry(9))
        log = log_class(ssd, 0, self.SIZE, name="twin")
        log.head = log.tail = start
        durable = {}

        def writer(index, nbytes):
            data = bytes([65 + index % 26]) * nbytes
            offset = log.reserve(nbytes)
            yield from log.write_reserved(offset, data)
            durable[index] = (offset, sim.now)

        def source():
            for index, (gap, nbytes) in enumerate(writers):
                if gap:
                    yield sim.timeout(gap)
                sim.process(writer(index, nbytes))

        sim.process(source())
        sim.run()
        return (durable, ssd.flash.read(0, self.SIZE), log.appends,
                log.bytes_appended, ssd.stats, sim.now)

    # Gaps well under, around and over the ~26 us device write: writers
    # that share a flush, arrive mid-flush, or find the flusher idle.
    # Sizes from a few bytes (several entries per tail block) to three
    # blocks; ``start`` puts the tail just before the region wrap so
    # some flush lands astride it.
    @settings(max_examples=60, deadline=None)
    @given(start=st.sampled_from([0, 100, SIZE - 700, SIZE - 40,
                                  3 * SIZE - 513]),
           writers=st.lists(
               st.tuples(st.sampled_from([0, 0, 0.5, 7, 13, 26, 30, 90]),
                         st.sampled_from([1, 9, 100, 300, 511, 512, 513,
                                          1100, 1536])),
               min_size=1, max_size=14))
    def test_matches_process_flusher(self, start, writers):
        new = self._run(CircularLog, start, writers)
        old = self._run(ProcessFlusherLog, start, writers)
        assert len(new[0]) == len(writers)
        assert new == old

    def test_shared_tail_block_and_a_wrapping_run(self):
        """Four writers fill what is left of one tail block 700 bytes
        before the region wraps; the fifth entry spans three blocks
        across the wrap and the sixth lands behind it, so one flush run
        is astride the region end (two device writes) while entries of
        several blocks retire out of block order."""
        writers = [(0, 50), (0, 60), (0, 70), (0, 8), (0.5, 1100),
                   (0, 30), (13, 513), (0, 1), (26, 300)]
        new = self._run(CircularLog, self.SIZE - 700, writers)
        old = self._run(ProcessFlusherLog, self.SIZE - 700, writers)
        assert new == old
        durable, flash, appends, nbytes, stats, _end = new
        assert appends == len(writers) == len(durable)
        assert nbytes == sum(size for _gap, size in writers)
        # The first four share one flush: durable at the same instant.
        assert len({durable[index][1] for index in range(4)}) == 1
        # Fewer device writes than entry-blocks, more than entries/2:
        # grouping happened, and a wrapped run cost two writes.
        assert 4 <= stats.writes_completed < 14
        assert flash[:400].count(b"E"[0]) > 0  # entry 4 wrapped to offset 0

    def _commit_against_offset_order(self, log_class):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                      jitter=0.1), rng=RngRegistry(9))
        log = log_class(ssd, 0, self.SIZE, name="twin")
        log.head = log.tail = 5 * 512 + 200
        low = log.reserve(400)    # blocks 5-6
        high = log.reserve(700)   # blocks 6-7
        woke = []

        def writer(name, offset, data):
            yield from log.write_reserved(offset, data)
            woke.append((name, sim.now))

        sim.process(writer("high", high, b"H" * 700))  # commits first
        sim.process(writer("low", low, b"L" * 400))
        sim.run()
        return woke, ssd.flash.read(0, self.SIZE), log.appends

    def test_entries_of_one_flush_retire_in_commit_order(self):
        """Both entries become durable with the one run [5, 7]; the one
        committed first finishes at the *higher* block, so walking the
        run block by block meets it last — it still wakes first."""
        new = self._commit_against_offset_order(CircularLog)
        assert new == self._commit_against_offset_order(ProcessFlusherLog)
        woke = new[0]
        assert [name for name, _when in woke] == ["high", "low"]
        assert woke[0][1] == woke[1][1]

    def test_wrapped_flush_is_two_back_to_back_writes(self):
        durable, _flash, appends, _bytes, stats, _now = self._run(
            CircularLog, self.SIZE - 100, [(0, 300)])
        assert appends == 1 and stats.writes_completed == 2
        # Second write submitted when the first completed: ~2 x 26 us.
        assert durable[0][1] > 1.8 * 26

    def test_unwaited_ticket_is_processed_without_an_event(self):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(9))
        log = CircularLog(ssd, 0, self.SIZE)
        ticket = log.commit(log.reserve(10), b"0123456789")
        assert not ticket.processed
        sim.run()
        assert ticket.processed and log.appends == 1
        # The flusher's submit hop and the device completion; nothing
        # to wake, so no third event.
        assert sim.events_dispatched == 2


class TestAnalyticRead:
    """``charge_read_at`` then ``fetch`` — single span, wrapped, staged
    overlay — is ``read`` on the analytic clock: same bytes, same range
    check."""

    @settings(max_examples=60, deadline=None)
    @given(chunks=st.lists(st.integers(1, 700), min_size=1, max_size=30),
           reclaim=st.integers(0, 12), blockwise=st.booleans())
    def test_same_bytes_as_the_event_form(self, chunks, reclaim, blockwise):
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(3))
        log = CircularLog(ssd, region_offset=1024, size=4096, name="t")
        entries = []

        def writer():
            for index, size in enumerate(chunks):
                data = bytes([1 + index % 250]) * size
                if len(entries) == reclaim and entries:
                    log.advance_head(entries[-1][0])    # room to wrap into
                try:
                    if blockwise:
                        offset = yield from log.append_blocks(data)
                    else:
                        offset = yield from log.append_bytes(data)
                except LogFullError:
                    break
                entries.append((offset, data))
            # Staged tail bytes, a reclaimed range, a range past the tail.
            probes = [(offset, len(data)) for offset, data in entries]
            probes += [(log.head, log.tail - log.head), (log.tail, 1),
                       (max(log.head - 1, 0), 2)]
            for offset, length in probes:
                outcomes = []
                for form in ("event", "analytic"):
                    try:
                        if form == "event":
                            data = yield from log.read(offset, length)
                        else:
                            done = log.charge_read_at(offset, length,
                                                      sim.now)
                            data = log.fetch(offset, length)
                            assert done > sim.now or length == 0
                        outcomes.append(data)
                    except LogRangeError as error:
                        outcomes.append(str(error))
                assert outcomes[0] == outcomes[1]
                assert type(outcomes[0]) is type(outcomes[1])
            for offset, data in entries:
                if offset >= log.head:
                    assert log.fetch(offset, len(data)) == data

        drive(sim, writer())
