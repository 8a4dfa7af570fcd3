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

Every driver runs its ops through :meth:`Driver.execute`, which
appends one row per op to the run's shared
:class:`~repro.workloads.history.History`; a run's statistics are a
:class:`~repro.workloads.history.Window` over it (:func:`drive`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.sim.core import Simulator
from repro.sim.rng import derive_stream
from repro.workloads.history import SUCCESS, History, Window
from repro.workloads.ycsb import YCSBWorkload


class Driver:
    """One client of a run: executes ops and records their rows."""

    def __init__(self, sim: Simulator, client, history: History):
        self.sim = sim
        self.client = client
        self.history = history
        self.client_id = history.add_client()
        self._inflight = 0

    def arrive(self, workload: YCSBWorkload, max_inflight: int,
               pending: list) -> None:
        """One open-loop arrival: the workload's next op in ``_one``,
        started on the spot and appended to ``pending``, or a drop at
        ``max_inflight``.
        ``pending`` sheds its finished ops only once it passes ``2 *
        max_inflight`` (a few ``triggered`` reads per arrival); one
        left in it counts as fired in the run's closing ``all_of``."""
        if self._inflight >= max_inflight:
            self.history.dropped += 1
            return
        self._inflight += 1
        pending.append(self.sim.process_inline(
            self._one(workload.next_operation()), name="driver.op"))
        if len(pending) > 2 * max_inflight:
            pending[:] = [p for p in pending if not p.triggered]

    def execute(self, op: str, key: bytes, value: Optional[bytes] = None):
        """Generator: run one op against the client, append its row and
        return the client's result."""
        client, invoke, read = self.client, self.sim.now, None
        if op == "get":
            result = yield from client.get(key)
            read = result.value
        elif op == "put":
            result = yield from client.put(key, value)
        elif op == "rmw":
            result = yield from client.get(key)
            if result.status in SUCCESS:
                read = result.value
                result = yield from client.put(key, value)
            else:
                value = None       # the write was never issued
        else:
            raise ValueError("unknown op %r" % op)
        self.history.record(self.client_id, op, key, value, invoke,
                            self.sim.now, result.status, read)
        return result


class ClosedLoopDriver(Driver):
    """``concurrency`` outstanding ops; stops after ``num_ops`` total."""

    def __init__(self, sim: Simulator, client, workload: YCSBWorkload,
                 num_ops: int, concurrency: int = 8, *, history: History):
        super().__init__(sim, client, history)
        self.workload = workload
        self.num_ops = num_ops
        self.concurrency = concurrency
        self._issued = 0

    def run(self):
        """Generator: drive to completion."""
        workers = [self.sim.process(self._worker(), name="driver.w%d" % i)
                   for i in range(self.concurrency)]
        yield self.sim.all_of(workers)

    def _worker(self):
        while self._issued < self.num_ops:
            self._issued += 1
            operation = self.workload.next_operation()
            yield from self.execute(operation.op, operation.key,
                                    operation.value)


class OpenLoopDriver(Driver):
    """Poisson arrivals at ``rate_qps``; runs for ``duration_us``.

    ``max_inflight`` bounds concurrency so an over-saturated run does
    not spawn unbounded processes — arrivals beyond the bound are
    dropped and counted in the history's ``dropped`` (they would have
    seen effectively infinite latency).
    """

    def __init__(self, sim: Simulator, client, workload: YCSBWorkload,
                 rate_qps: float, duration_us: float,
                 max_inflight: int = 512, seed: int = 0, *,
                 history: History):
        if rate_qps <= 0:
            raise ValueError("rate must be positive")
        super().__init__(sim, client, history)
        self.workload = workload
        self.rate_qps = rate_qps
        self.duration_us = duration_us
        self.max_inflight = max_inflight
        self.rng = derive_stream(seed, "driver.openloop")

    def run(self):
        """Generator: offered load for the duration."""
        deadline = self.sim.now + self.duration_us
        mean_gap_us = 1e6 / self.rate_qps
        pending = []
        while self.sim.now < deadline:
            yield self.sim.timeout(self.rng.expovariate(1.0 / mean_gap_us))
            self.arrive(self.workload, self.max_inflight, pending)
        if pending:
            yield self.sim.all_of(pending)

    def _one(self, operation):
        yield from self.execute(operation.op, operation.key, operation.value)
        self._inflight -= 1


def drive(sim: Simulator, drivers: Sequence[Driver],
          name: str = "driver") -> Window:
    """Run ``drivers`` — one run, sharing one history — to completion;
    returns the window of the rows they appended."""
    window = drivers[0].history.open(sim.now)
    procs = [sim.process(driver.run(), name=name) for driver in drivers]
    sim.run(until=sim.all_of(procs))
    return window.close(sim.now)
