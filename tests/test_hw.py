"""Tests for the hardware models: flash, SSD, CPU, DRAM, platforms."""

import dataclasses
import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.cpu import CYCLE_COSTS, Core
from repro.hw.dram import Dram, OutOfMemoryError
from repro.hw.flash import FlashArray, FlashError
from repro.hw.platforms import (
    RASPBERRY_PI,
    SERVER_JBOF,
    STINGRAY,
)
from repro.hw.ssd import NVMeSSD, SSDProfile

from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

from conftest import drive


class TestFlashArray:
    def test_roundtrip_block(self):
        flash = FlashArray(1 << 20, block_size=512)
        flash.write_block(3, b"hello")
        assert flash.read(3 * 512, 512) == b"hello" + b"\x00" * 507

    def test_unwritten_reads_zero(self):
        flash = FlashArray(1 << 20, block_size=512)
        assert flash.read(100 * 512, 512) == b"\x00" * 512

    def test_byte_reads_cross_blocks(self):
        flash = FlashArray(1 << 20, block_size=512)
        flash.write(0, b"A" * 512 + b"B" * 512)
        assert flash.read(500, 24) == b"A" * 12 + b"B" * 12

    def test_unaligned_write_rejected(self):
        flash = FlashArray(1 << 20, block_size=512)
        with pytest.raises(FlashError):
            flash.write(100, b"data")

    def test_out_of_range_rejected(self):
        flash = FlashArray(1 << 20, block_size=512)
        with pytest.raises(FlashError):
            flash.read(1 << 20, 1)
        with pytest.raises(FlashError):
            flash.write_block(-1, b"x")

    def test_oversized_block_write_rejected(self):
        flash = FlashArray(1 << 20, block_size=512)
        with pytest.raises(FlashError):
            flash.write_block(0, b"x" * 513)

    def test_counters(self):
        flash = FlashArray(1 << 20, block_size=512)
        flash.write_block(0, b"a")
        flash.write_block(0, b"b")
        flash.read(0, 512)
        assert flash.writes == 2
        assert flash.reads == 1

    def test_capacity_must_be_block_multiple(self):
        with pytest.raises(ValueError):
            FlashArray(1000, block_size=512)


class PaddedFlash:
    """Test-only reference: a dict of zero-padded blocks, written and
    read block by block, with :class:`FlashArray`'s four counters."""

    def __init__(self, blocks, block):
        self.size, self.block, self.blocks = blocks * block, block, {}
        self.reads = self.writes = self.bytes_read = self.bytes_written = 0

    def write(self, offset, data):
        if offset % self.block or offset + len(data) > self.size:
            raise FlashError("reference")
        for start in range(0, len(data), self.block):
            self.blocks[(offset + start) // self.block] = bytes(
                data[start:start + self.block]).ljust(self.block, b"\x00")
            self.writes += 1
            self.bytes_written += self.block

    def read(self, offset, length):
        if offset < 0 or length < 0 or offset + length > self.size:
            raise FlashError("reference")
        if not length:
            return b""
        first = offset // self.block
        count = -(-(offset - first * self.block + length) // self.block)
        self.reads += count
        self.bytes_read += count * self.block
        blob = b"".join(self.blocks.get(block, bytes(self.block))
                        for block in range(first, first + count))
        return blob[offset - first * self.block:][:length]


class TestFlashFastPaths:
    """Every read of the flash is the padded-block reference's, byte for
    byte and counter for counter, while each block stores only the
    bytes its last write carried."""

    BLOCK = 64
    BLOCKS = 12

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("write"), st.integers(0, BLOCKS - 1),
                  st.integers(0, 4 * BLOCK + 5), st.booleans()),
        # One block, then a shorter program over it.
        st.tuples(st.just("shrink"), st.integers(0, BLOCKS - 1),
                  st.integers(0, BLOCK - 1), st.booleans()),
        st.tuples(st.just("read"), st.integers(0, BLOCKS * BLOCK),
                  st.integers(0, 4 * BLOCK + 5), st.booleans())),
        min_size=1, max_size=40))
    def test_matches_blockwise_reference(self, ops):
        fast = FlashArray(self.BLOCKS * self.BLOCK, self.BLOCK)
        slow = PaddedFlash(self.BLOCKS, self.BLOCK)
        carried = {}   # block -> the bytes its last write carried
        stamp = 0
        for verb, where, length, flag in ops:
            outcomes = []
            stamp += 1
            lengths = [self.BLOCK, length] if verb == "shrink" else [length]
            for flash in (fast, slow):
                try:
                    if verb == "read":
                        # ``flag``: snap the offset to a block boundary.
                        offset = where - where % self.BLOCK if flag else where
                        outcomes.append(flash.read(offset, length))
                        continue
                    for size in lengths:
                        data = bytes([1 + (stamp + size) % 255]) * size
                        # ``flag``: a mutable buffer the caller reuses.
                        buffer = bytearray(data) if flag else data
                        flash.write(where * self.BLOCK, buffer)
                        if flag:
                            buffer[:] = b"\xee" * size
                        if flash is fast:
                            for start in range(0, size, self.BLOCK):
                                carried[where + start // self.BLOCK] = (
                                    data[start:start + self.BLOCK])
                    outcomes.append(None)
                except FlashError:
                    outcomes.append(FlashError)
            assert outcomes[0] == outcomes[1]
            assert type(outcomes[0]) is type(outcomes[1])
            assert fast._blocks == carried
            assert all(type(block) is bytes for block in fast._blocks.values())
            assert all(fast.stored_bytes(block) == len(carried.get(block, b""))
                       for block in range(self.BLOCKS))
            assert ((fast.reads, fast.writes, fast.bytes_read,
                     fast.bytes_written)
                    == (slow.reads, slow.writes, slow.bytes_read,
                        slow.bytes_written))

    def test_stored_block_is_not_the_callers_buffer(self):
        flash = FlashArray(4 * self.BLOCK, self.BLOCK)
        data = b"d" * self.BLOCK
        flash.write(0, data)
        assert flash.read(0, self.BLOCK) == data
        assert flash._blocks[0] is not data


class TestNVMeSSD:
    def test_write_read_roundtrip(self, sim, quiet_ssd):
        def proc():
            yield from quiet_ssd.write(0, b"payload")
            data = yield from quiet_ssd.read(0, 7)
            return data

        assert drive(sim, proc()) == b"payload"

    def test_read_latency_matches_profile(self, sim, quiet_ssd):
        def proc():
            yield from quiet_ssd.read(0, 512)
            return sim.now

        expected = quiet_ssd.profile.read_service_us(512)
        assert drive(sim, proc()) == pytest.approx(expected)

    def test_write_slower_in_aggregate_than_read(self, sim, quiet_ssd):
        """Sustained 4KB writes are bandwidth-paced; reads are not."""
        count = 400

        def writes():
            for index in range(count):
                yield from quiet_ssd.write(index * 4096, b"w" * 4096)

        def reads():
            for index in range(count):
                yield from quiet_ssd.read(index * 4096, 4096)

        procs = [sim.process(writes())]
        sim.run()
        write_time = sim.now
        sim2 = type(sim)()
        profile = quiet_ssd.profile
        ssd2 = NVMeSSD(sim2, profile, name="r")
        for _ in range(8):
            sim2.process(reads_gen(ssd2, count // 8))
        sim2.run()
        assert write_time > sim2.now * 0.5  # writes take comparably long serially

    def test_channel_parallelism(self, sim, quiet_ssd):
        """N concurrent reads finish ~in parallel up to channel count."""
        channels = quiet_ssd.profile.channels

        def one_read():
            yield from quiet_ssd.read(0, 512)

        for _ in range(channels):
            sim.process(one_read())
        sim.run()
        expected = quiet_ssd.profile.read_service_us(512)
        assert sim.now == pytest.approx(expected)

    def test_stats_accumulate(self, sim, quiet_ssd):
        def proc():
            yield from quiet_ssd.write(0, b"x" * 512)
            yield from quiet_ssd.read(0, 512)

        drive(sim, proc())
        assert quiet_ssd.stats.reads_completed == 1
        assert quiet_ssd.stats.writes_completed == 1
        assert quiet_ssd.stats.read_bytes == 512
        assert quiet_ssd.stats.mean_read_latency_us > 0

    def test_jitter_bounded(self, sim, small_ssd):
        latencies = []

        def proc():
            for _ in range(50):
                before = sim.now
                yield from small_ssd.read(0, 512)
                latencies.append(sim.now - before)

        drive(sim, proc())
        mean = small_ssd.profile.read_service_us(512)
        jitter = small_ssd.profile.jitter
        assert all(mean * (1 - jitter) * 0.999 <= lat <= mean * (1 + jitter) * 1.001
                   for lat in latencies)
        assert len(set(latencies)) > 1  # actually random

    def test_peak_iops_formulas(self):
        profile = SSDProfile()
        assert profile.peak_read_iops() > 300_000


def reads_gen(ssd, count):
    for index in range(count):
        yield from ssd.read(index * 4096, 4096)


class TestCore:
    def test_execute_charges_time(self, sim):
        core = Core(sim, freq_ghz=3.0)

        def proc():
            yield from core.execute(3000)
            return sim.now

        assert drive(sim, proc()) == pytest.approx(1.0)  # 3000 cycles @ 3GHz = 1us

    def test_serial_execution(self, sim):
        core = Core(sim, freq_ghz=1.0)
        done = []

        def worker(name):
            yield from core.execute(1000)  # 1us at 1GHz
            done.append((sim.now, name))

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert done[0][0] == pytest.approx(1.0)
        assert done[1][0] == pytest.approx(2.0)

    def test_utilization(self, sim):
        core = Core(sim, freq_ghz=1.0)

        def proc():
            yield from core.execute(30_000)
            yield sim.timeout(70)

        drive(sim, proc())
        assert core.utilization() == pytest.approx(0.3)

    def test_negative_cycles_rejected(self, sim):
        core = Core(sim, freq_ghz=1.0)
        with pytest.raises(ValueError):
            drive(sim, core.execute(-5))

    def test_cycle_costs_defined(self):
        for key in ("rpc_receive", "hash_lookup", "btree_node_visit",
                    "compaction_per_entry"):
            assert CYCLE_COSTS[key] > 0


class TestFcfsRecurrence:
    """The analytic hw timing is the only implementation, so pin it to
    the textbook FCFS k-server recurrence: a work item starts at
    ``max(arrival, k-th latest finish)`` — what a k-slot FIFO resource
    would grant — for arbitrary arrival/size schedules."""

    @staticmethod
    def _run_schedule(sim, schedule, submit):
        """Spawn ``submit(item)`` at each item's arrival; return
        ``[(arrival, finish)]`` in submission order."""
        observed = [None] * len(schedule)

        def one(index, item):
            arrival = sim.now
            yield from submit(item)
            observed[index] = (arrival, sim.now)

        def source():
            for index, item in enumerate(schedule):
                if item[0]:
                    yield sim.timeout(item[0])
                sim.process(one(index, item))

        sim.process(source())
        sim.run()
        return observed

    @settings(max_examples=60, deadline=None)
    @given(schedule=st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 6)),
        min_size=1, max_size=40))
    def test_core_execute_is_single_server_fcfs(self, schedule):
        """Items are ``(gap_us, work_us)``; at 1 GHz, 1000 cycles = 1 us,
        so every time below is an exact integer."""
        sim = Simulator()
        core = Core(sim, freq_ghz=1.0)
        observed = self._run_schedule(
            sim, schedule, lambda item: core.execute(item[1] * 1000))
        free_at = 0.0
        for (_gap, work), (arrival, finish) in zip(schedule, observed):
            start = max(arrival, free_at)
            free_at = start + work
            assert finish == free_at
        assert core.busy_time_us == sum(work for _gap, work in schedule)

    @staticmethod
    def _first_fit(intervals, at, duration):
        """Earliest start >= at whose slice overlaps no reserved one."""
        for start in sorted([at] + [end for _begin, end in intervals
                                    if end > at]):
            if not any(start < end and start + duration > begin
                       for begin, end in intervals):
                return start
        raise AssertionError("unreachable: after the last slice is free")

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.integers(0, 4), st.integers(1, 5), st.integers(0, 12)),
        min_size=1, max_size=30))
    def test_charge_at_future_slices_are_backfilled(self, ops):
        """``(gap_us, work_us, lead_us)``: lead 0 executes now, lead > 0
        reserves a slice ``lead`` into the future via ``charge_at``.
        Either way the slice is the earliest gap that fits (first fit
        over the calendar, checked by brute force)."""
        sim = Simulator()
        core = Core(sim, freq_ghz=1.0)
        intervals = []
        finishes = []

        def reserve(at, work):
            start = self._first_fit(intervals, at, float(work))
            intervals.append((start, start + work))
            return start + work

        def executes(work):
            expected = reserve(sim.now, work)
            yield from core.execute(work * 1000)
            finishes.append((sim.now, expected))

        def source():
            for gap, work, lead in ops:
                if gap:
                    yield sim.timeout(gap)
                if lead:
                    expected = reserve(sim.now + lead, work)
                    assert core.charge_at(work * 1000,
                                          sim.now + lead) == expected
                else:
                    sim.process(executes(work))

        sim.process(source())
        sim.run()
        assert all(finish == expected for finish, expected in finishes)
        assert core.busy_time_us == sum(work for _gap, work, _lead in ops)

    class ScanCore(Core):
        """Test-only reference: ``_reserve`` as it was — expired slices
        popped one by one, then always the first-fit scan and an
        ``insert`` — and every ``execute_event`` slice reserved through
        it (``Core`` handles the idle and append cases inline)."""

        def execute_event(self, cycles):
            duration = cycles / (self.freq_ghz * 1e3)
            start = self._reserve(self.sim.now, duration)
            event = self.sim.timeout_at(start + duration)

            def book(_event):
                self.cycles_executed += cycles
                self.busy_time_us += duration

            event.callbacks.append(book)
            return event

        def _reserve(self, at, duration):
            reserved = self._reserved
            now = self.sim.now
            while reserved and reserved[0][1] <= now:
                reserved.pop(0)
            start = at
            index = len(reserved)
            for i, (begin, end) in enumerate(reserved):
                if start + duration <= begin:
                    index = i
                    break
                if end > start:
                    start = end
            reserved.insert(index, (start, start + duration))
            return start

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.4, 1.0, 3.0]),
                  st.sampled_from([0, 7, 300, 1200, 2500, 9000]),
                  st.sampled_from([0.0, 0.0, 0.0, 0.2, 0.4, 1.0, 2.5, 8.0])),
        min_size=1, max_size=50))
    def test_reserve_matches_the_scan_slice_by_slice(self, ops):
        """``(gap_us, cycles, lead_us)`` at 3 GHz (inexact floats): lead
        0 is an ``execute_event`` now, lead > 0 a fused ``charge_at`` in
        the future, cycles 0 a zero-length slice.  After every
        reservation the calendar — order included — the start handed
        out and the finish times equal the scan's."""
        calendars = []
        for core_class in (Core, self.ScanCore):
            sim = Simulator()
            core = core_class(sim, freq_ghz=3.0)
            trail = []

            def source(sim=sim, core=core, trail=trail):
                for gap, cycles, lead in ops:
                    if gap:
                        yield sim.timeout(gap)
                    if lead:
                        trail.append(core.charge_at(cycles, sim.now + lead))
                    else:
                        event = core.execute_event(cycles)
                        event.callbacks.append(
                            lambda _event: trail.append(("done", sim.now)))
                    trail.append(list(core._reserved))

            sim.process(source())
            sim.run()
            trail.append((core.cycles_executed, core.busy_time_us))
            calendars.append(trail)
        assert calendars[0] == calendars[1]

    @settings(max_examples=60, deadline=None)
    @given(channels=st.integers(1, 4),
           schedule=st.lists(
               st.tuples(st.integers(0, 40),
                         st.sampled_from(["read", "write"]),
                         st.integers(1, 16)),
               min_size=1, max_size=40))
    def test_ssd_is_k_server_fcfs_with_write_drain(self, channels, schedule):
        """Items are ``(gap_us, verb, blocks)``.  Reference: ``k``
        channel free-times; an I/O takes the earliest-free channel at
        ``max(arrival, free)`` for its service time.  A write, once it
        has its channel, also reserves FCFS drain time on the shared
        program path and keeps the channel until its drain slot starts
        (so paced writes crowd reads out, §2.3)."""
        sim = Simulator()
        profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                             channels=channels, jitter=0.0)
        ssd = NVMeSSD(sim, profile)

        def submit(item):
            _gap, verb, blocks = item
            if verb == "read":
                return ssd.read(0, blocks * 512)
            return ssd.write(0, b"w" * (blocks * 512))

        observed = self._run_schedule(sim, schedule, submit)

        free = [0.0] * channels
        drain_free_at = 0.0
        queue_wait = 0.0
        for (_gap, verb, blocks), (arrival, finish) in zip(schedule,
                                                           observed):
            size = blocks * 512
            channel = free.index(min(free))
            start = max(arrival, free[channel])
            if verb == "write":
                hold = profile.write_service_us(size)
                drain_start = max(start, drain_free_at)
                drain_free_at = drain_start + size / profile.write_bw_bpus
                hold += drain_start - start
            else:
                hold = profile.read_service_us(size)
            free[channel] = start + hold
            queue_wait += start - arrival
            assert finish == pytest.approx(free[channel], rel=1e-12)
        assert ssd.stats.queue_wait_us == pytest.approx(queue_wait, abs=1e-6)


class HelperAdmissionSSD(NVMeSSD):
    """Read admission as it was: ``_jittered`` of the profile's mean
    service time, then ``_take_channel``."""

    def _jittered(self, mean_us):
        if self._jitter_span <= 0.0:
            return mean_us
        return mean_us * (self._jitter_low + self._jitter_span * self._draw())

    def _take_channel(self, at):
        busy = self._chan_busy
        if len(busy) >= self.profile.channels:
            freed = heapq.heappop(busy)
            if freed > at:
                return freed
        return at

    def _admit_read(self, length, at):
        service = self._jittered(self.profile.read_service_us(length or 1))
        start = self._take_channel(at)
        done = start + service
        heapq.heappush(self._chan_busy, done)
        return service, start, done


class TestReadAdmissionMatchesReference:
    """``_admit_read`` spells jitter and channel choice out; with the
    same RNG stream it must grant what the helpers granted."""

    @settings(max_examples=80, deadline=None)
    @given(channels=st.integers(1, 3), jitter=st.sampled_from([0.0, 0.1]),
           reads=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 3.0, 70.0]),      # gap
               st.sampled_from([0, 1, 512, 4096]),          # length
               st.sampled_from([0.0, 0.0, 25.0]),           # lead of ``at``
               st.sampled_from(["charge_event", "charge", "event"])),
               min_size=1, max_size=40))
    def test_same_grants_same_statistics(self, channels, jitter, reads):
        trails = []
        for device in (NVMeSSD, HelperAdmissionSSD):
            sim = Simulator()
            profile = SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                 channels=channels, jitter=jitter)
            ssd = device(sim, profile, rng=RngRegistry(7), name="d")
            trail = []
            for gap, length, lead, form in reads:
                sim.run(until=sim.now + gap)
                if form == "charge_event":
                    ssd.charge_read_event(length).callbacks.append(
                        lambda _event, sim=sim, trail=trail:
                        trail.append(("charged", sim.now)))
                elif form == "charge":
                    trail.append(ssd.charge_read_at(length, sim.now + lead))
                else:
                    ssd.read_event(0, length).callbacks.append(
                        lambda _event, sim=sim, trail=trail:
                        trail.append(("done", sim.now)))
                trail.append(sorted(ssd._chan_busy))
            sim.run()
            trail.append(dataclasses.astuple(ssd.stats))
            trails.append(trail)
        assert trails[0] == trails[1]


class TestTimingOnlyRead:
    """``read_event`` is ``charge_read_event`` plus the flash copy: the
    two book the same statistics, draw the same jitter and record the
    same ``ssd.read`` spans; only the event's value differs."""

    @settings(max_examples=40, deadline=None)
    @given(channels=st.integers(1, 3), jitter=st.sampled_from([0.0, 0.1]),
           reads=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 3.0, 70.0]),      # gap
               st.sampled_from([0, 1, 512, 4096]),          # length
               st.booleans()),                              # traced
               min_size=1, max_size=30))
    def test_same_statistics_draws_and_spans(self, channels, jitter, reads):
        from repro.obs.spans import Tracer

        runs = []
        for timing_only in (False, True):
            sim = Simulator()
            profile = SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                 channels=channels, jitter=jitter)
            ssd = NVMeSSD(sim, profile, rng=RngRegistry(7), name="d")
            ssd.flash.write(0, bytes(range(256)) * 32)
            tracer = Tracer(sim)
            root = tracer.trace("op", track="t")
            completions = []
            for gap, length, traced in reads:
                sim.run(until=sim.now + gap)
                trace = root if traced else None
                event = (ssd.charge_read_event(length, trace) if timing_only
                         else ssd.read_event(0, length, trace))
                event.callbacks.append(
                    lambda event, sim=sim, length=length: completions.append(
                        (sim.now, event.value if event.value is None
                         else len(event.value) == length)))
            sim.run()
            runs.append((dataclasses.astuple(ssd.stats), sorted(ssd._chan_busy),
                         ssd._draw(), [dataclasses.astuple(span)
                                       for span in tracer.spans],
                         [at for at, _value in completions],
                         [value for _at, value in completions],
                         ssd.flash.reads))
        copied, charged = runs
        assert copied[:5] == charged[:5]
        assert set(copied[5]) == {True} and set(charged[5]) == {None}
        assert charged[6] == 0 and copied[6] == sum(
            (length + 511) // 512 for _gap, length, _traced in reads)

    def test_read_event_copies_at_completion(self, sim, quiet_ssd):
        quiet_ssd.flash.write(0, b"a" * 512)
        event = quiet_ssd.read_event(0, 3)
        sim.run(until=event.sim.now + 1.0)
        quiet_ssd.flash.write(0, b"b" * 512)   # lands before completion
        assert sim.run(until=event) == b"bbb"


class TestShortWrite:
    """A program covers whole blocks: a write whose last block is short
    is charged exactly as its zero-padded twin and reads back the same
    bytes."""

    @settings(max_examples=60, deadline=None)
    @given(channels=st.sampled_from([1, 3]),
           writes=st.lists(st.tuples(
               st.sampled_from([0.0, 0.0, 3.0, 70.0]),   # gap
               st.integers(0, 7),                        # first block
               st.integers(0, 3 * 512 + 7)),             # length
               min_size=1, max_size=20))
    def test_charged_as_its_padded_twin(self, channels, writes):
        runs = []
        for padded in (False, True):
            sim = Simulator()
            profile = SSDProfile(capacity_bytes=1 << 20, block_size=512,
                                 channels=channels, jitter=0.1)
            ssd = NVMeSSD(sim, profile, rng=RngRegistry(7), name="d")
            completions = []
            for gap, block, length in writes:
                sim.run(until=sim.now + gap)
                data = bytes([1 + block]) * length
                if padded:
                    data = data.ljust(-(-length // 512) * 512, b"\x00")
                ssd.write_event(block * 512, data).callbacks.append(
                    lambda event, sim=sim: completions.append(
                        (sim.now, event.value)))
            sim.run()
            runs.append((completions, dataclasses.astuple(ssd.stats),
                         sorted(ssd._chan_busy), ssd._write_drain_free_at,
                         ssd._draw(), ssd.flash.read(0, 11 * 512),
                         ssd.flash.writes, ssd.flash.bytes_written))
        assert runs[0] == runs[1]


class TestResourceEquivalence:
    """FCFS ``Resource`` ≡ calendar, bit for bit: the event-per-stage
    models the analytic ones replaced (grant event, then a timeout for
    the service time) live on here as the reference, and every
    completion timestamp must match to the last ulp under contention."""

    @staticmethod
    def _drive(sim, schedule, submit):
        finished = []

        def one(index, item):
            yield from submit(item)
            finished.append((index, sim.now))

        def source():
            for index, item in enumerate(schedule):
                if item[0]:
                    yield sim.timeout(item[0])
                sim.process(one(index, item))

        sim.process(source())
        sim.run()
        return finished

    @settings(max_examples=40, deadline=None)
    @given(schedule=st.lists(
        st.tuples(st.sampled_from([0.0, 0.0, 0.1, 0.7, 1.3, 5.0]),
                  st.sampled_from([7, 300, 1200, 2500, 30000])),
        min_size=1, max_size=60))
    def test_core_matches_resource_queue(self, schedule):
        from repro.sim.resources import Resource

        sim = Simulator()
        core = Core(sim, freq_ghz=3.0)
        analytic = self._drive(sim, schedule,
                               lambda item: core.execute(item[1]))

        ref_sim = Simulator()
        unit = Resource(ref_sim, capacity=1)

        def reference(item):
            yield unit.acquire()
            yield ref_sim.timeout(item[1] / 3.0e3)
            unit.release()

        assert analytic == self._drive(ref_sim, schedule, reference)

    @settings(max_examples=40, deadline=None)
    @given(channels=st.sampled_from([1, 3, 24]),
           schedule=st.lists(
               st.tuples(st.sampled_from([0.0, 0.0, 0.0, 0.5, 3.0, 20.0]),
                         st.sampled_from(["read", "read", "write"]),
                         st.sampled_from([512, 1024, 4096, 16384])),
               min_size=1, max_size=80))
    def test_ssd_matches_resource_queue(self, channels, schedule):
        from repro.sim.resources import Resource

        profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                             channels=channels, jitter=0.1)
        sim = Simulator()
        ssd = NVMeSSD(sim, profile, rng=RngRegistry(9))

        def submit(item):
            if item[1] == "read":
                return ssd.read(0, item[2])
            return ssd.write(0, b"w" * item[2])

        analytic = self._drive(sim, schedule, submit)

        ref_sim = Simulator()
        lanes = Resource(ref_sim, capacity=channels)
        jitter = RngRegistry(9).stream("ssd/nvme0")
        drain_free_at = [0.0]

        def reference(item):
            _gap, verb, nbytes = item
            yield lanes.acquire()
            scale = jitter.uniform(1.0 - profile.jitter, 1.0 + profile.jitter)
            if verb == "read":
                hold = profile.read_service_us(nbytes) * scale
            else:
                drain_start = max(ref_sim.now, drain_free_at[0])
                drain_free_at[0] = drain_start + nbytes / profile.write_bw_bpus
                hold = (profile.write_service_us(nbytes) * scale
                        + (drain_start - ref_sim.now))
            yield ref_sim.timeout(hold)
            lanes.release()

        assert analytic == self._drive(ref_sim, schedule, reference)


class TestDram:
    def test_reserve_and_release(self):
        dram = Dram(1000)
        dram.reserve("index", 400)
        assert dram.used_bytes == 400
        assert dram.free_bytes == 600
        assert dram.release("index") == 400
        assert dram.used_bytes == 0

    def test_out_of_memory(self):
        dram = Dram(1000)
        dram.reserve("a", 900)
        with pytest.raises(OutOfMemoryError):
            dram.reserve("b", 200)

    def test_reserve_accumulates(self):
        dram = Dram(1000)
        dram.reserve("x", 100)
        dram.reserve("x", 100)
        assert dram.reservation("x") == 200

    def test_resize(self):
        dram = Dram(1000)
        dram.reserve("x", 500)
        dram.resize("x", 100)
        assert dram.reservation("x") == 100
        dram.resize("x", 0)
        assert dram.reservation("x") == 0

    def test_transfer_time(self):
        dram = Dram(1000, bandwidth_bpus=100.0)
        assert dram.transfer_time_us(500) == pytest.approx(5.0)


class TestPlatforms:
    def test_skew_ordering_matches_table1(self):
        """SmartNIC JBOF has the most skewed storage hierarchy."""
        assert (STINGRAY.storage_skew_ratio()
                > SERVER_JBOF.storage_skew_ratio()
                > RASPBERRY_PI.storage_skew_ratio())

    def test_computing_density_ordering(self):
        assert (STINGRAY.network_density_gbps_per_core()
                > SERVER_JBOF.network_density_gbps_per_core()
                > RASPBERRY_PI.network_density_gbps_per_core())
        assert (STINGRAY.storage_density_iops_per_core()
                > SERVER_JBOF.storage_density_iops_per_core()
                > RASPBERRY_PI.storage_density_iops_per_core())

    def test_power_ordering(self):
        assert (SERVER_JBOF.max_power_w > STINGRAY.max_power_w
                > RASPBERRY_PI.max_power_w)
        # Stingray draws roughly one-fifth to one-fourth of a server (§2.1).
        ratio = SERVER_JBOF.max_power_w / STINGRAY.max_power_w
        assert 3.0 < ratio < 6.0

    def test_active_power_interpolates(self):
        low = STINGRAY.active_power_w(0.0)
        high = STINGRAY.active_power_w(1.0)
        mid = STINGRAY.active_power_w(0.5)
        assert low == STINGRAY.idle_power_w
        assert high == STINGRAY.max_power_w
        assert low < mid < high

    def test_utilization_clamped(self):
        assert STINGRAY.active_power_w(5.0) == STINGRAY.max_power_w
        assert STINGRAY.active_power_w(-1.0) == STINGRAY.idle_power_w


class TestWorkEvents:
    """Work is an event: ``execute_event`` / ``read_event`` /
    ``write_event`` return the completion ``Timeout`` itself."""

    def test_flash_and_stats_change_at_completion_not_submission(
            self, sim, quiet_ssd):
        event = quiet_ssd.write_event(0, b"x" * 512)
        assert quiet_ssd.flash.read(0, 1) == b"\x00"
        assert quiet_ssd.stats.writes_completed == 0
        sim.run(until=event)
        assert quiet_ssd.flash.read(0, 1) == b"x"
        assert quiet_ssd.stats.writes_completed == 1
        core = Core(sim, freq_ghz=1.0)
        slice_ = core.execute_event(2000)
        assert core.busy_time_us == 0.0
        sim.run(until=slice_)
        assert core.busy_time_us == 2.0 and core.cycles_executed == 2000

    def test_held_event_keeps_its_value_after_later_timeouts(self, sim,
                                                             quiet_ssd):
        """A work-event held past its dispatch keeps its value while
        plenty of timeouts are handed out after it fired."""
        drive(sim, quiet_ssd.write(0, b"held" + b"\x00" * 508))
        held = quiet_ssd.read_event(0, 4)

        def churn():
            for _ in range(50):
                yield sim.timeout(100)
                assert all(sim.timeout(1) is not held for _ in range(8))

        drive(sim, churn())
        assert held.processed and held.value == b"held"
