"""Workload drivers: closed-loop and open-loop request generation.

Drivers execute a :class:`~repro.workloads.ycsb.YCSBWorkload` stream
against anything exposing the client API (``get``/``put``/``delete``
generator methods returning results with a ``status``) — a LEED
front-end, a baseline client, or a bare data store.

* **Closed loop**: N outstanding operations per driver; the next op
  issues when one completes.  Used for peak-throughput measurements
  (Table 3, Fig. 5).
* **Open loop**: Poisson arrivals at a target rate, the standard way
  to trace a latency-throughput curve (Figs. 6, 14) — latency blows
  up as the offered rate approaches capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.sim.core import Simulator
from repro.sim.rng import derive_stream
from repro.workloads.ycsb import Operation, YCSBWorkload


def percentile(samples, quantile: float) -> float:
    """The ``quantile`` order statistic of ``samples`` (0.0 if empty).

    Exact (sorts the samples), index ``min(int(q * n), n - 1)``: every
    latency percentile in a figure cell or a scenario golden uses this
    rule, so they stay comparable — and byte-stable.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(int(quantile * len(ordered)), len(ordered) - 1)]


@dataclass
class DriverStats:
    """Completed-operation accounting for one driver."""

    completed: int = 0
    failed: int = 0
    started_at_us: float = 0.0
    finished_at_us: float = 0.0
    latencies_us: List[float] = field(default_factory=list)
    #: (completion_time_us, latency_us) samples for timelines (Fig. 9).
    timeline: List[tuple] = field(default_factory=list)
    record_timeline: bool = False

    def record(self, now: float, latency_us: float, ok: bool) -> None:
        self.completed += 1
        if not ok:
            self.failed += 1
        self.latencies_us.append(latency_us)
        if self.record_timeline:
            self.timeline.append((now, latency_us))

    @property
    def elapsed_us(self) -> float:
        return max(self.finished_at_us - self.started_at_us, 0.0)

    @property
    def throughput_qps(self) -> float:
        if self.elapsed_us <= 0:
            return 0.0
        return self.completed / (self.elapsed_us * 1e-6)

    def mean_latency_us(self) -> float:
        if not self.latencies_us:
            return 0.0
        return sum(self.latencies_us) / len(self.latencies_us)

    def percentile_us(self, quantile: float) -> float:
        return percentile(self.latencies_us, quantile)

    def merge(self, other: "DriverStats") -> "DriverStats":
        merged = DriverStats(
            completed=self.completed + other.completed,
            failed=self.failed + other.failed,
            started_at_us=min(self.started_at_us, other.started_at_us),
            finished_at_us=max(self.finished_at_us, other.finished_at_us))
        merged.latencies_us = self.latencies_us + other.latencies_us
        merged.timeline = sorted(self.timeline + other.timeline)
        return merged


def _execute_operation(client, operation: Operation):
    """Generator: run one workload op against a client-like object."""
    if operation.op == "get":
        result = yield from client.get(operation.key)
        return result
    if operation.op == "put":
        result = yield from client.put(operation.key, operation.value)
        return result
    if operation.op == "rmw":
        read = yield from client.get(operation.key)
        if getattr(read, "status", None) not in ("ok", "not_found"):
            return read
        result = yield from client.put(operation.key, operation.value)
        return result
    if operation.op == "del":
        result = yield from client.delete(operation.key)
        return result
    raise ValueError("unknown op %r" % operation.op)


class ClosedLoopDriver:
    """``concurrency`` outstanding ops; stops after ``num_ops`` total."""

    def __init__(self, sim: Simulator, client, workload: YCSBWorkload,
                 num_ops: int, concurrency: int = 8,
                 record_timeline: bool = False):
        self.sim = sim
        self.client = client
        self.workload = workload
        self.num_ops = num_ops
        self.concurrency = concurrency
        self.stats = DriverStats(record_timeline=record_timeline)
        self._issued = 0

    def run(self):
        """Generator: drive to completion; returns the stats."""
        self.stats.started_at_us = self.sim.now
        workers = [self.sim.process(self._worker(), name="driver.w%d" % i)
                   for i in range(self.concurrency)]
        yield self.sim.all_of(workers)
        self.stats.finished_at_us = self.sim.now
        return self.stats

    def _worker(self):
        while self._issued < self.num_ops:
            self._issued += 1
            operation = self.workload.next_operation()
            begin = self.sim.now
            result = yield from _execute_operation(self.client, operation)
            status = getattr(result, "status", "ok")
            self.stats.record(self.sim.now, self.sim.now - begin,
                              status in ("ok", "not_found"))


class OpenLoopDriver:
    """Poisson arrivals at ``rate_qps``; runs for ``duration_us``.

    ``max_inflight`` bounds concurrency so an over-saturated run does
    not spawn unbounded processes — arrivals beyond the bound are
    dropped and counted (they would have seen effectively infinite
    latency).
    """

    def __init__(self, sim: Simulator, client, workload: YCSBWorkload,
                 rate_qps: float, duration_us: float,
                 max_inflight: int = 512, seed: int = 0,
                 record_timeline: bool = False):
        if rate_qps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.client = client
        self.workload = workload
        self.rate_qps = rate_qps
        self.duration_us = duration_us
        self.max_inflight = max_inflight
        self.rng = derive_stream(seed, "driver.openloop")
        self.stats = DriverStats(record_timeline=record_timeline)
        self.dropped = 0
        self._inflight = 0

    def run(self):
        """Generator: offered load for the duration; returns the stats."""
        self.stats.started_at_us = self.sim.now
        deadline = self.sim.now + self.duration_us
        mean_gap_us = 1e6 / self.rate_qps
        pending = []
        while self.sim.now < deadline:
            yield self.sim.timeout(self.rng.expovariate(1.0 / mean_gap_us))
            if self._inflight >= self.max_inflight:
                self.dropped += 1
                continue
            operation = self.workload.next_operation()
            self._inflight += 1
            pending.append(self.sim.process(self._one(operation),
                                            name="driver.op"))
            pending = [p for p in pending if not p.triggered]
        if pending:
            yield self.sim.all_of(pending)
        self.stats.finished_at_us = self.sim.now
        return self.stats

    def _one(self, operation: Operation):
        begin = self.sim.now
        result = yield from _execute_operation(self.client, operation)
        status = getattr(result, "status", "ok")
        self.stats.record(self.sim.now, self.sim.now - begin,
                          status in ("ok", "not_found"))
        self._inflight -= 1


def merge_stats(stats: List[DriverStats]) -> DriverStats:
    """Combine several drivers' stats into one summary."""
    if not stats:
        return DriverStats()
    merged = stats[0]
    for other in stats[1:]:
        merged = merged.merge(other)
    return merged
