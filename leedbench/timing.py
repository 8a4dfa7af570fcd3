"""Calibrated host timing: kernel, sliced runner, child launcher, summaries.

Host time on a shared box drifts by tens of percent within seconds, so
a raw wall-clock reading of a multi-second phase mostly measures the
neighbours.  Every host-time figure in this benchmark is therefore
*calibrated*: the phase is cut into short segments, a fixed
pure-Python kernel (a miniature event loop: the simulator's own mix of
generator resumes, heap push/pop and scattered writes) is timed between
segments, and each
segment is expressed in *kernel units* — its raw seconds divided by
the mean of the two adjacent kernel timings.  Multiplying the summed
units by :data:`KERNEL_NOMINAL_S`, the kernel's unloaded timing on the
reference box, gives "seconds on a machine that runs the kernel in
6 ms".  (Scaling by the fastest kernel sample of the invocation
instead was measured and dropped: that minimum itself moved 5 % from
one invocation to the next and doubled the spread.)  The raw wall time
and the kernel timings are kept next to it as diagnostics.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Events one calibration kernel execution dispatches: ~6 ms on the
#: reference box, long enough to average out timer jitter, short enough
#: that ~40 samples per phase cost well under the phase itself.
KERNEL_EVENTS = 5000
#: Objects the kernel's processes scatter their writes over (~5 MB):
#: like the simulator, the kernel must miss the CPU caches, or a noisy
#: neighbour slows the simulator down without slowing the kernel.
KERNEL_TABLE_SLOTS = 50_000

#: What one kernel execution takes between slices of a quiet run on
#: the reference box (medians read 6.1-6.2 ms; caches are cold, the
#: simulator has just run): the constant that turns kernel units back
#: into seconds.
KERNEL_NOMINAL_S = 0.006

#: A child that has not finished by then is killed; the contract caps
#: a whole invocation at 180 s.
CHILD_TIMEOUT_S = 170.0

REPEAT_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "repeat.py")


class _Slot:
    __slots__ = ("key", "last", "hits")

    def __init__(self, key: int):
        self.key = key
        self.last = None
        self.hits = 0


def _kernel_process(pid: int, table: List[_Slot], rng: List[int]):
    """One process of the miniature event loop: touch a slot, sleep."""
    value = pid
    slots = len(table)
    while True:
        rng[0] = state = (rng[0] * 1103515245 + 12345) & 0x7FFFFFFF
        slot = table[state % slots]
        slot.hits += 1
        slot.last = (value, state)
        value = (value + slot.key) & 0xFFFF
        yield (state & 1023) + 1


def kernel(table: List[_Slot], events: int = KERNEL_EVENTS) -> int:
    """The fixed calibration workload: a miniature discrete-event loop.

    64 generator processes on a heap, each resume allocating a tuple
    and writing to a pseudo-random slot of ``table`` — the simulator's
    own instruction mix (generator resumes, heap push/pop, attribute
    writes, small allocations, cache misses) in code that no change to
    the simulator can touch.
    """
    rng = [99991]
    heap = []
    for pid in range(64):
        process = _kernel_process(pid, table, rng)
        heapq.heappush(heap, (next(process), pid, process))
    for _ in range(events):
        when, pid, process = heapq.heappop(heap)
        heapq.heappush(heap, (when + next(process), pid, process))
    return rng[0]


class Calibrator:
    """Collects (raw seconds, adjacent kernel timings) per named phase."""

    def __init__(self):
        self._table = [_Slot(key) for key in range(KERNEL_TABLE_SLOTS)]
        self.time_kernel()  # warm the allocator and code caches
        self.kernel_s: List[float] = [self.time_kernel()]
        #: phase -> [(raw_s, kernel_before_s, kernel_after_s)]
        self.segments: Dict[str, List[Tuple[float, float, float]]] = {}

    def time_kernel(self) -> float:
        """Seconds one kernel execution takes right now."""
        started = time.perf_counter()
        kernel(self._table)
        return time.perf_counter() - started

    def segment(self, phase: str, work: Callable[[], object]) -> object:
        """Run ``work()`` as one calibrated segment of ``phase``."""
        before = self.kernel_s[-1]
        started = time.perf_counter()
        result = work()
        raw = time.perf_counter() - started
        after = self.time_kernel()
        self.kernel_s.append(after)
        self.segments.setdefault(phase, []).append((raw, before, after))
        return result

    def run_sliced(self, phase: str, sim, done, slice_us: float,
                   between: Optional[Callable[[], None]] = None) -> None:
        """Advance ``sim`` in ``slice_us`` steps until ``done`` triggers.

        Each step is one calibrated segment.  The last step overruns the
        completion by less than one slice of idle simulated time;
        figures that must not depend on slicing are snapshotted by the
        driver itself at completion.
        """
        while not done.triggered:
            self.segment(phase, lambda: sim.run(until=sim.now + slice_us))
            if between is not None:
                between()

    def raw_s(self, phase: str) -> float:
        return sum(raw for raw, _, _ in self.segments.get(phase, ()))

    def units(self, phase: str) -> List[float]:
        """Each segment of ``phase`` in kernel units (raw / adjacent mean)."""
        return [raw / ((before + after) / 2.0)
                for raw, before, after in self.segments.get(phase, ())]

    def report(self) -> dict:
        """Everything the parent needs to calibrate and diagnose."""
        return {
            "kernel_min_s": min(self.kernel_s),
            "kernel_median_s": statistics.median(self.kernel_s),
            "phases": {phase: {"raw_s": self.raw_s(phase),
                               "units": self.units(phase)}
                       for phase in self.segments},
        }


class RepeatFailed(RuntimeError):
    """A child repeat exited non-zero, timed out, or printed no result."""


def launch_repeat(request: dict) -> dict:
    """Run one repeat in a fresh child process and return its result.

    One child at a time, single-threaded: the box has two cores and a
    second busy process would be measuring the scheduler.  A fresh
    process per repeat gives every repeat the same heap, the same
    import state and its own ``ru_maxrss``.
    """
    try:
        completed = subprocess.run(
            [sys.executable, REPEAT_SCRIPT, json.dumps(request)],
            stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise RepeatFailed("repeat %r timed out after %.0f s"
                           % (request, CHILD_TIMEOUT_S))
    if completed.returncode != 0:
        raise RepeatFailed("repeat %r exited with code %d"
                           % (request, completed.returncode))
    lines = completed.stdout.decode().strip().splitlines()
    if not lines:
        raise RepeatFailed("repeat %r printed no result" % (request,))
    return json.loads(lines[-1])


def steady_units(repeats: Sequence[Sequence[float]]) -> float:
    """Kernel units of one phase, from the per-segment units of its repeats.

    The simulation is deterministic and slices are cut in simulated
    time, so segment ``j`` is the same work in every repeat: taking the
    median over repeats segment by segment, then summing, keeps a burst
    of interference that hit part of one repeat out of the result.
    (A median of whole-phase totals would carry that repeat's burst
    whenever the other repeats had bursts elsewhere.)
    """
    if len({len(units) for units in repeats}) != 1:
        raise ValueError("repeats were sliced differently: %s segments"
                         % [len(units) for units in repeats])
    return sum(statistics.median(column) for column in zip(*repeats))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's steadiness measure; 0 below 2 values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / centre if centre else 0.0
