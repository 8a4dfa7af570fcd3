"""NVMe SSD model: functional flash plus a timing/queueing model.

The timing model captures the device properties LEED's design leans
on (§2.3, §3.2.1):

* fast random reads served by many parallel flash channels;
* sequential writes that are individually quick (SLC buffer) but
  bandwidth-limited in aggregate — the read/write bandwidth
  discrepancy that makes write overload a first-class problem;
* a bounded number of flash channels, beyond which submissions wait
  FCFS for the earliest channel to free.

Channel admission is analytic: a heap of per-channel busy-until times
gives each I/O its start (``max(submit, earliest free channel)``) and
completion at submission, so an I/O costs one timeout event.  This is
the textbook FCFS k-server recurrence — exactly the schedule a
``channels``-slot FIFO resource produces (tests/test_hw.py checks it).

Service times come from a :class:`SSDProfile` and carry lognormal-ish
jitter via a named RNG stream, reproducing the "varied unpredictably"
per-IO cost the paper calls out (§3.4).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.hw.flash import FlashArray
from repro.sim.core import Simulator
from repro.sim.events import Timeout
from repro.sim.rng import RngRegistry


@dataclass(frozen=True)
class SSDProfile:
    """Timing parameters for one SSD model.

    Defaults approximate the Samsung DCT983 960 GB used in the paper:
    up to ~400 K 4 KB random-read IOPS, ~3 GB/s sequential read,
    ~1.4 GB/s sequential write, tens-of-µs access latency.
    """

    name: str = "samsung-dct983-960g"
    capacity_bytes: int = 960 * 10**9
    #: LBA format: the DCT983 supports 512e sectors, and LEED sizes
    #: its buckets to the sector (512 B for small-object workloads,
    #: §3.2.2), so 512 is the default here.
    block_size: int = 512
    #: Parallel flash channels (concurrent in-service I/Os).
    channels: int = 24
    #: Fixed read latency before data transfer, microseconds.
    read_base_us: float = 55.0
    #: Fixed write latency (SLC buffer program), microseconds.
    write_base_us: float = 26.0
    #: Sustained read bandwidth, bytes per microsecond (3 GB/s).
    read_bw_bpus: float = 3000.0
    #: Sustained write bandwidth, bytes per microsecond (1.4 GB/s).
    write_bw_bpus: float = 1400.0
    #: Multiplicative jitter half-width (0.1 -> +/-10%).
    jitter: float = 0.10

    def read_service_us(self, nbytes: int) -> float:
        """Mean read service time for ``nbytes``."""
        return self.read_base_us + nbytes / self.read_bw_bpus

    def write_service_us(self, nbytes: int) -> float:
        """Mean write service time for ``nbytes``."""
        return self.write_base_us + nbytes / self.write_bw_bpus

    def peak_read_iops(self, io_bytes: int = 4096) -> float:
        """Theoretical random-read IOPS ceiling for ``io_bytes`` I/Os."""
        return self.channels / (self.read_service_us(io_bytes) * 1e-6)


#: The 32 GB SanDisk SD card of the Raspberry Pi 3B+ testbed
#: (60-80 MB/s sequential).  Random reads are slow (hundreds of µs of
#: controller latency); sequential appends ride the write buffer and
#: are much cheaper per op — the asymmetry FAWN's log-structured
#: design exploits (Fig. 12: FAWN speeds up as the PUT share grows).
SDCARD_PROFILE = SSDProfile(
    name="sandisk-sd-32g",
    capacity_bytes=32 * 10**9,
    block_size=4096,
    channels=1,
    read_base_us=700.0,
    write_base_us=220.0,
    read_bw_bpus=80.0,   # 80 MB/s
    write_bw_bpus=60.0,  # 60 MB/s
    jitter=0.15,
)


@dataclass
class SSDStats:
    """Cumulative per-device statistics."""

    reads_completed: int = 0
    writes_completed: int = 0
    read_bytes: int = 0
    write_bytes: int = 0
    total_read_latency_us: float = 0.0
    total_write_latency_us: float = 0.0
    busy_time_us: float = 0.0
    queue_wait_us: float = 0.0

    @property
    def mean_read_latency_us(self) -> float:
        if not self.reads_completed:
            return 0.0
        return self.total_read_latency_us / self.reads_completed

    @property
    def mean_write_latency_us(self) -> float:
        if not self.writes_completed:
            return 0.0
        return self.total_write_latency_us / self.writes_completed


class NVMeSSD:
    """A simulated NVMe device: timing model over a functional flash array.

    An I/O is submitted with ``read_event`` / ``write_event`` and waited
    for by yielding the returned event; ``read`` / ``write`` are the
    generator forms (``data = yield from ssd.read(off, n)``).  The
    ``charge_*`` forms time a read without copying its bytes.
    """

    def __init__(self, sim: Simulator, profile: Optional[SSDProfile] = None,
                 rng: Optional[RngRegistry] = None, name: str = "nvme0",
                 capacity_bytes: Optional[int] = None):
        self.sim = sim
        self.profile = profile or SSDProfile()
        if capacity_bytes is not None:
            self.profile = SSDProfile(**{
                **self.profile.__dict__, "capacity_bytes": capacity_bytes})
        self.name = name
        self.flash = FlashArray(self.profile.capacity_bytes, self.profile.block_size)
        #: One draw per I/O from the device's named stream scales its
        #: service time by ``uniform(1 - jitter, 1 + jitter)``, spelled
        #: ``low + span * random()`` as ``Random.uniform`` computes it.
        self._draw = (rng or RngRegistry()).stream("ssd/" + name).random
        jitter = self.profile.jitter
        self._jitter_low = 1.0 - jitter
        self._jitter_span = (1.0 + jitter) - (1.0 - jitter)
        self.stats = SSDStats()
        # Aggregate write-bandwidth pacing: sustained writes cannot exceed
        # profile.write_bw_bpus even when channels are free.
        self._write_drain_free_at = 0.0
        #: Heap of busy-until times, one entry per channel used so far
        #: (a time in the past: the channel is idle again), and how
        #: many channels were never used: ``channels - len(_chan_busy)``.
        self._chan_busy: list = []
        self._chan_unused = self.profile.channels

    # -- properties ----------------------------------------------------------

    @property
    def block_size(self) -> int:
        return self.profile.block_size

    @property
    def capacity_bytes(self) -> int:
        return self.profile.capacity_bytes

    def _admit_read(self, length: int, at: float) -> Tuple[float, float, float]:
        """Analytic channel admission of a read submitted at ``at``
        (>= now): draws the jittered service time and returns
        ``(service, start, done)``.

        The I/O starts at ``at`` while a channel is unused, else when
        the earliest one to free does (FCFS; it is taken off the heap).
        Entries already in the past are not pruned: they only ever
        lose against ``at``.
        """
        profile = self.profile
        service = profile.read_base_us + (length or 1) / profile.read_bw_bpus
        if self._jitter_span > 0.0:
            service *= self._jitter_low + self._jitter_span * self._draw()
        busy = self._chan_busy
        start = at
        if self._chan_unused > 0:
            self._chan_unused -= 1
        else:
            freed = heapq.heappop(busy)
            if freed > at:
                start = freed
        done = start + service
        heapq.heappush(busy, done)
        return service, start, done

    # -- I/O: a device access is its completion event ------------------------
    #
    # Admission, jitter draw and channel booking happen at the call;
    # the event's first callback books statistics at completion, and
    # a write's changes flash there too (a read's second copies the
    # bytes out).  Yield it to wait, or hold it and do something else.

    def read_event(self, offset: int, length: int, trace=None) -> Timeout:
        """Submit a read; the event's value is the bytes.

        :meth:`charge_read_event` plus the functional read, which
        copies the flash bytes at completion.
        """
        event = self.charge_read_event(length, trace)
        flash = self.flash

        def copy_out(event) -> None:
            event._value = flash.read(offset, length)

        event.callbacks.append(copy_out)
        return event

    def charge_read_event(self, length: int, trace=None) -> Timeout:
        """Submit a read of ``length`` bytes that copies none of them:
        the event fires at completion with no value.

        For callers that hold the bytes already, or fetch them from
        flash only when they turn out not to: the device is charged
        exactly as for :meth:`read_event` (the simulated SSD has no
        read cache).  ``trace`` is a duck-typed trace context (this
        layer never imports :mod:`repro.obs`): an ``ssd.read`` device
        span covers queue wait plus service.
        """
        ctx = None
        if trace is not None:
            ctx = trace.child("ssd.read", track=self.name, cat="device",
                              args={"bytes": length})
        submitted = self.sim.now
        service, admitted, done = self._admit_read(length, submitted)
        event = self.sim.timeout_at(done)

        def complete(_event) -> None:
            stats = self.stats
            stats.reads_completed += 1
            stats.read_bytes += length
            stats.total_read_latency_us += done - submitted
            stats.queue_wait_us += admitted - submitted
            stats.busy_time_us += service
            if ctx is not None:
                ctx.finish({"queue_wait_us": admitted - submitted})

        event.callbacks.append(complete)
        return event

    def read(self, offset: int, length: int, trace=None):
        """Generator: :meth:`read_event`, waited for; returns the bytes."""
        return (yield self.read_event(offset, length, trace))

    def charge_read_at(self, length: int, at: float) -> float:
        """Analytic :meth:`charge_read_event`: returns ``done_us``.

        Synchronous companion for fused server paths: admission,
        jitter draw and statistics are the event form's, but booked at
        submission, and the caller chains the returned completion time
        instead of yielding on a timeout.  ``at`` is the submission
        time (>= now).  No bytes are copied; a caller that needs them
        reads ``flash``.
        """
        service, start, done = self._admit_read(length, at)
        # Booked at submission, the event form at completion:
        # interleaved traffic sums the float counters in that order,
        # which the energy figures can see.
        stats = self.stats
        stats.reads_completed += 1
        stats.read_bytes += length
        stats.total_read_latency_us += done - at
        stats.queue_wait_us += start - at
        stats.busy_time_us += service
        return done

    def write_event(self, offset: int, data: bytes, trace=None) -> Timeout:
        """Submit a program of ``data`` at a block-aligned ``offset``;
        the event fires once durable (flash changes then, not now).

        A program covers whole blocks: ``data`` is charged (service
        time, drain pacing, ``write_bytes``, the event's value) rounded
        up to the block, so a short last block costs what its
        zero-padded form does, and flash keeps only ``data``.
        """
        profile = self.profile
        block = profile.block_size
        nbytes = -(-len(data) // block) * block
        ctx = None
        if trace is not None:
            ctx = trace.child("ssd.write", track=self.name, cat="device",
                              args={"bytes": nbytes})
        sim = self.sim
        submitted = sim.now
        service = profile.write_base_us + (nbytes or 1) / profile.write_bw_bpus
        if self._jitter_span > 0.0:
            service *= self._jitter_low + self._jitter_span * self._draw()
        busy = self._chan_busy
        admitted = submitted
        if self._chan_unused > 0:
            self._chan_unused -= 1
        else:
            freed = heapq.heappop(busy)
            if freed > submitted:
                admitted = freed
        # Aggregate bandwidth pacing: once it has a channel, each write
        # reserves drain time on the device's shared program path and
        # holds the channel until its drain slot starts.  Admission is
        # FCFS, so the reservations are made in submission order and
        # can all be computed here, at submission.
        dstart = self._write_drain_free_at
        if dstart < admitted:
            dstart = admitted
        self._write_drain_free_at = dstart + nbytes / profile.write_bw_bpus
        extra_wait = dstart - admitted
        done = admitted + (service + extra_wait)
        heapq.heappush(busy, done)
        event = sim.timeout_at(done, nbytes)

        def complete(_event) -> None:
            self.flash.write(offset, data)
            stats = self.stats
            stats.writes_completed += 1
            stats.write_bytes += nbytes
            stats.total_write_latency_us += sim.now - submitted
            stats.queue_wait_us += admitted - submitted
            stats.busy_time_us += service + extra_wait
            if ctx is not None:
                ctx.finish({"queue_wait_us": admitted - submitted})

        event.callbacks.append(complete)
        return event

    def write(self, offset: int, data: bytes, trace=None):
        """Generator: :meth:`write_event`, waited for; returns the bytes
        charged (``len(data)`` rounded up to whole blocks)."""
        return (yield self.write_event(offset, data, trace))

    def __repr__(self):
        now = self.sim.now
        return "<NVMeSSD %s busy_channels=%d reads=%d writes=%d>" % (
            self.name, sum(1 for until in self._chan_busy if until > now),
            self.stats.reads_completed, self.stats.writes_completed)
