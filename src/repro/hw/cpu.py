"""CPU core model: run-to-completion execution with cycle accounting.

LEED's challenge C2 is the tiny per-I/O compute headroom of a
SmartNIC core.  We model each core as a serially-executing resource:
work items charge cycles, a core runs one item at a time, and cycle
budgets differ per platform (A72 vs Xeon vs A53).  This is what makes
KVell's B-tree "computation-heavy" on the SmartNIC in Table 3 and
bounds FAWN's embedded nodes at 1 GbE.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.core import Simulator
from repro.sim.events import Timeout


class Core:
    """One CPU core; work executes FCFS and to completion."""

    def __init__(self, sim: Simulator, freq_ghz: float, core_id: int = 0,
                 name: str = "core"):
        if freq_ghz <= 0:
            raise ValueError("frequency must be positive")
        self.sim = sim
        self.freq_ghz = float(freq_ghz)
        self.core_id = int(core_id)
        self.name = "%s%d" % (name, core_id)
        self.cycles_executed = 0
        self.busy_time_us = 0.0
        #: Work reserves a slice of the reservation calendar and sleeps
        #: until the slice ends — one timeout per work item.  Work
        #: submitted at ``now`` (:meth:`execute`) is served FCFS, as a
        #: single-server queue would; fused callers that reserve at
        #: future instants (:meth:`charge_at`) leave gaps that
        #: concurrent items backfill (see :meth:`_reserve`).
        #: Future reserved slices ``(start, end)``: disjoint, sorted.
        self._reserved: List[Tuple[float, float]] = []

    def _reserve(self, at: float, duration: float) -> float:
        """Earliest start >= ``at`` with ``duration`` of free core time.

        A fused request chains ``charge_at`` calls at future instants,
        so its CPU slices land with SSD-sized gaps between them.  An
        earlier free-at-horizon model reserved straight past those
        gaps, which convoyed every concurrent request behind whole
        pipelines instead of sub-microsecond CPU slices (mean latency
        roughly doubled at closed-loop concurrency).  Scanning the
        reservation calendar for the first wide-enough gap restores
        the interleaving the process-based model produces.

        Work arriving at or after the last slice's start has no gap to
        scan for — the slices are disjoint and sorted, so only the
        last one can still be in its way — and is appended without a
        scan (zero-length work excepted: it fits *before* a slice
        starting at the same instant).
        """
        reserved = self._reserved
        now = self.sim.now
        expired = 0
        for _begin, end in reserved:
            if end > now:
                break
            expired += 1
        if expired:
            del reserved[:expired]
        if not reserved:
            reserved.append((at, at + duration))
            return at
        last_begin, last_end = reserved[-1]
        if at >= last_begin and duration > 0.0:
            start = at if at >= last_end else last_end
            reserved.append((start, start + duration))
            return start
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

    def execute_event(self, cycles: int) -> Timeout:
        """Occupy the core for ``cycles`` of work; returns the event that
        fires when the slice ends.  The slice is reserved now (FCFS
        among work submitted at ``now``); the counters are booked by
        the event's first callback, at completion."""
        if cycles < 0:
            raise ValueError("negative cycle count")
        duration = cycles / (self.freq_ghz * 1e3)
        # ``_reserve(now, duration)``: its expiry and its append arm
        # inline (the slices are disjoint and sorted, so the last one
        # ends last and starts after every other has ended), the gap
        # scan as the fallback.
        now = self.sim.now
        reserved = self._reserved
        if not reserved or reserved[-1][1] <= now:
            start = now                 # idle: every slice has ended
            del reserved[:]
            reserved.append((start, start + duration))
        elif reserved[-1][0] <= now and duration > 0.0:
            start = reserved[-1][1]     # busy with the last slice
            del reserved[:-1]
            reserved.append((start, start + duration))
        else:
            start = self._reserve(now, duration)
        event = self.sim.timeout_at(start + duration)

        def book(_event) -> None:
            self.cycles_executed += cycles
            self.busy_time_us += duration

        event.callbacks.append(book)
        return event

    def execute(self, cycles: int):
        """Generator: :meth:`execute_event`, waited for."""
        yield self.execute_event(cycles)

    def charge_at(self, cycles: int, at: float) -> float:
        """Analytic charge: returns the completion time.

        Reserves ``cycles`` of work starting no earlier than ``at``
        (>= now) on the reservation calendar, without yielding — fused
        server paths chain these completion times and sleep once.
        """
        duration = cycles / (self.freq_ghz * 1e3)
        start = self._reserve(at, duration)
        self.cycles_executed += cycles
        self.busy_time_us += duration
        return start + duration

    def utilization(self) -> float:
        """Fraction of wall time spent executing since creation."""
        if self.sim.now <= 0:
            return 0.0
        return min(self.busy_time_us / self.sim.now, 1.0)

    def __repr__(self):
        reserved = self._reserved
        return "<Core %s %.1fGHz busy=%s>" % (
            self.name, self.freq_ghz,
            bool(reserved) and reserved[-1][1] > self.sim.now)


class CpuComplex:
    """A set of cores sharing a frequency (one SoC)."""

    def __init__(self, sim: Simulator, num_cores: int, freq_ghz: float,
                 name: str = "cpu"):
        if num_cores < 1:
            raise ValueError("need at least one core")
        self.sim = sim
        self.name = name
        self.cores = [Core(sim, freq_ghz, core_id=i, name=name + ".c")
                      for i in range(num_cores)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, index: int) -> Core:
        return self.cores[index]

    def mean_utilization(self) -> float:
        return sum(c.utilization() for c in self.cores) / len(self.cores)


#: Cycle costs (per operation) used by the stores.  These are coarse
#: software-path costs calibrated so the relative compute weight of
#: each design matches the paper's observations: LEED's hash + chain
#: walk is cheap; KVell's B-tree descent is expensive on wimpy cores;
#: FAWN's single hash probe is cheapest.
CYCLE_COSTS = {
    "rpc_receive": 1200,          # parse + dispatch one request
    "rpc_reply": 800,             # format + post one response
    "hash_lookup": 300,           # SegTbl / hash-index probe
    "bucket_scan_per_key": 60,    # linear scan within a fetched bucket
    "bucket_update": 500,         # insert/overwrite a key item
    "btree_node_visit": 2500,     # KVell B-tree node binary search + pointer chase
    "kvell_commit": 30000,        # KVell write path: journaling, batching bookkeeping
    "log_append_bookkeeping": 400,
    "compaction_per_entry": 250,
    "token_accounting": 150,
    "replication_forward": 900,
    "dirty_map_op": 200,
}
