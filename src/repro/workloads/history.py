"""The run history: one row per completed client operation.

Every driver of a run appends to one :class:`History` through
:meth:`repro.workloads.driver.Driver.execute`: one list append per
column, no simulator event.  Throughput, latency percentiles, phase
summaries, the autoscaler's recent p99 and the acked-write verdict
are reads of it; a run or a phase is a :class:`Window`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Bytes of a value that identify the write that stored it (a token):
#: the scenario ledger's ``w%016x.`` tag, a YCSB value's random prefix.
TOKEN_LEN = 18

#: Statuses of an operation that succeeded.
SUCCESS = ("ok", "not_found")


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


class History:
    """Every completed operation of one run, as columns in completion
    order: client id, op, key, ``written`` (the token a put/rmw wrote,
    else None), ``invoke_us``, ``response_us``, status and ``read``
    (the token a get/rmw read, else None).  ``dropped`` counts
    open-loop arrivals refused at the in-flight cap; they have no row.
    """

    __slots__ = ("client", "op", "key", "written", "invoke_us",
                 "response_us", "status", "read", "dropped", "clients")

    def __init__(self):
        self.client: List[int] = []
        self.op: List[str] = []
        self.key: List[bytes] = []
        self.written: List[Optional[bytes]] = []
        self.invoke_us: List[float] = []
        self.response_us: List[float] = []
        self.status: List[str] = []
        self.read: List[Optional[bytes]] = []
        self.dropped = 0
        self.clients = 0

    def __len__(self) -> int:
        return len(self.op)

    def add_client(self) -> int:
        """A new client id; ids number drivers in construction order."""
        self.clients += 1
        return self.clients - 1

    def record(self, client, op, key, written, invoke_us, response_us,
               status, read) -> None:
        """Append one row; ``written`` / ``read`` are whole values."""
        self.client.append(client)
        self.op.append(op)
        self.key.append(key)
        self.written.append(None if written is None
                            else written[:TOKEN_LEN])
        self.invoke_us.append(invoke_us)
        self.response_us.append(response_us)
        self.status.append(status)
        self.read.append(None if read is None else read[:TOKEN_LEN])

    def open(self, now: float) -> "Window":
        """Start a window at the next row; :meth:`Window.close` ends it."""
        return Window(self, now)


class Window:
    """The rows appended between :meth:`History.open` and
    :meth:`close`: one run, or one scenario phase."""

    __slots__ = ("history", "start", "stop", "dropped", "started_at_us",
                 "finished_at_us")

    def __init__(self, history: History, now: float):
        self.history = history
        self.start = self.stop = len(history)
        #: Arrivals dropped inside the window, once closed.
        self.dropped = history.dropped
        self.started_at_us = self.finished_at_us = now

    def close(self, now: float) -> "Window":
        self.stop = len(self.history)
        self.dropped = self.history.dropped - self.dropped
        self.finished_at_us = now
        return self

    @property
    def completed(self) -> int:
        return self.stop - self.start

    @property
    def failed(self) -> int:
        return sum(status not in SUCCESS for status
                   in self.history.status[self.start:self.stop])

    @property
    def elapsed_us(self) -> float:
        return max(self.finished_at_us - self.started_at_us, 0.0)

    @property
    def throughput_qps(self) -> float:
        elapsed = self.elapsed_us
        return self.completed / (elapsed * 1e-6) if elapsed > 0 else 0.0

    @property
    def latencies_us(self) -> List[float]:
        """Latencies client by client in client order, each client's in
        completion order: the order the mean sums them in."""
        history = self.history
        rows = sorted(range(self.start, self.stop),
                      key=history.client.__getitem__)
        invoke, response = history.invoke_us, history.response_us
        return [response[row] - invoke[row] for row in rows]

    def mean_latency_us(self) -> float:
        latencies = self.latencies_us
        return sum(latencies) / len(latencies) if latencies else 0.0

    def percentile_us(self, quantile: float) -> float:
        return percentile(self.latencies_us, quantile)

    def summary(self) -> Dict[str, object]:
        """Traffic accounting of a scenario phase (or of all of them)."""
        failed = self.failed
        ok = self.completed - failed
        offered = ok + failed + self.dropped
        latencies = self.latencies_us
        duration = self.elapsed_us
        return {
            "start_us": self.started_at_us,
            "duration_us": duration,
            "issued": self.completed + self.dropped,
            "ok": ok,
            "failed": failed,
            "dropped": self.dropped,
            "availability": round(ok / offered, 6) if offered else 1.0,
            "p50_us": round(percentile(latencies, 0.50), 3),
            "p99_us": round(percentile(latencies, 0.99), 3),
            "throughput_qps": round(ok / (duration * 1e-6), 3)
            if duration > 0 else 0.0,
        }
