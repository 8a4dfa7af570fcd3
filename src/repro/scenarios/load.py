"""Curve-following load generation and the acked-write verdict.

:class:`CurveDriver` is an open-loop Poisson driver whose rate and
Zipf skew follow a phase's :class:`~repro.scenarios.dsl.Segment`
curve; every PUT carries a unique token minted by the
:class:`WriteLedger`.  Its ops and the final read-back sweep's reads
are rows of the run's :class:`~repro.workloads.history.History`, and
:func:`judge` reads only those rows: an acked write whose value cannot
be observed (and was not superseded) is a *lost acked write* — the
invariant every scenario asserts to zero.

Single-writer discipline: PUT keys are remapped so each record id is
only ever written by one driver (``rid - rid % writers + index``,
which preserves Zipf hotness buckets).  Within one driver, open-loop
concurrency can still put the same key twice in flight; such keys are
*racy* and only require read-your-issued.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.workloads.driver import Driver
from repro.workloads.history import TOKEN_LEN, History
from repro.workloads.ycsb import YCSBWorkload, make_key

#: Smallest value size the ledger can tag.
MIN_VALUE_SIZE = 32


class WriteLedger:
    """Mints scenario PUT values: ``b"w%016x."`` (unique per run, and
    ordered as the writes were issued) padded to the value size."""

    def __init__(self, value_size: int):
        if value_size < MIN_VALUE_SIZE:
            raise ValueError("ledger needs value_size >= %d, got %d"
                             % (MIN_VALUE_SIZE, value_size))
        self.padding = b"x" * (value_size - TOKEN_LEN)
        self._seq = 0

    def mint(self) -> bytes:
        token = b"w%016x." % self._seq
        self._seq += 1
        return token + self.padding


def key_writes(history: History, stop: int
               ) -> Dict[bytes, Tuple[Set[bytes], Optional[bytes], bool]]:
    """Per key, from the PUT rows before ``stop``: every token issued,
    the newest acked one (None without an ack), and whether the key is
    racy.

    Minted tokens sort in issue order.  A PUT invoked before an
    earlier-issued one on the same key responded makes the key racy;
    a tie counts as an overlap.
    """
    rows: Dict[bytes, List[int]] = {}
    for row in range(stop):
        if history.op[row] == "put":
            rows.setdefault(history.key[row], []).append(row)
    written, status = history.written, history.status
    writes = {}
    for key, puts in rows.items():
        puts.sort(key=written.__getitem__)
        racy, busy_until, acked = False, float("-inf"), None
        for row in puts:
            racy = racy or history.invoke_us[row] <= busy_until
            busy_until = max(busy_until, history.response_us[row])
            if status[row] == "ok":
                acked = written[row]
        writes[key] = ({written[row] for row in puts}, acked, racy)
    return writes


def judge(history: History, sweep_start: int) -> Dict[bytes, str]:
    """The verdict on the last read of each key the sweep (the rows
    from ``sweep_start``) read: ``"ok"``, ``"indeterminate"`` (it shows
    a write issued after the last ack whose outcome the client never
    learned) or ``"lost"`` (the acked write is gone)."""
    writes = key_writes(history, sweep_start)
    verdicts: Dict[bytes, str] = {}
    for row in range(sweep_start, len(history)):
        key, token = history.key[row], history.read[row]
        issued, acked, racy = writes[key]
        if history.status[row] != "ok" or token not in issued:
            verdict = "lost"       # no deletes: not_found or pre-run bytes
        elif racy or token == acked:
            verdict = "ok"         # concurrent same-key puts: any issued wins
        elif token > acked:
            verdict = "indeterminate"
        else:
            verdict = "lost"       # older write resurfaced over the ack
        verdicts[key] = verdict
    return verdicts


class CurveDriver(Driver):
    """One client's open-loop Poisson traffic through a phase curve.

    Arrivals follow the active :class:`Segment`'s rate (divided evenly
    across the runtime's clients); a segment with a ``skew`` override
    swaps in a workload generator with that Zipfian constant.
    """

    def __init__(self, runtime, phase, phase_index: int, writer_index: int):
        clients = runtime.cluster.clients
        super().__init__(runtime.sim, clients[writer_index], runtime.history)
        self.scale, self.scenario = runtime.scale, runtime.scenario
        self.ledger = runtime.ledger
        self.segments = phase.segments
        self.duration_us = phase.duration * runtime.scale.phase_unit_us
        self.rng = runtime.rng.stream("scenario.%s.arrivals.c%d"
                                      % (phase.name, writer_index))
        self.writer_index = writer_index
        self.num_writers = len(clients)
        self.workload_seed = ((runtime.seed + 1) * 10_000
                              + phase_index * 100 + writer_index)
        self._workloads: Dict[float, YCSBWorkload] = {}

    def _workload(self, skew: float) -> YCSBWorkload:
        """Generator stream for one skew value (cached per driver)."""
        workload = self._workloads.get(skew)
        if workload is None:
            workload = YCSBWorkload(
                self.scenario.workload, self.scale.num_records,
                value_size=self.scale.value_size, skew=skew,
                seed=self.workload_seed)
            self._workloads[skew] = workload
        return workload

    def run(self):
        """Generator: Poisson arrivals across every segment."""
        start = self.sim.now
        pending = []
        skew = self.scenario.skew
        for position, segment in enumerate(self.segments):
            if segment.skew is not None:
                skew = segment.skew
            seg_end = start + self.duration_us * (
                self.segments[position + 1].frac
                if position + 1 < len(self.segments) else 1.0)
            rate = segment.rate * self.scale.base_rate_qps / self.num_writers
            if rate <= 0:
                if seg_end > self.sim.now:
                    yield self.sim.timeout(seg_end - self.sim.now)
                continue
            mean_gap_us = 1e6 / rate
            workload = self._workload(skew)
            while self.sim.now < seg_end:
                gap = self.rng.expovariate(1.0 / mean_gap_us)
                if self.sim.now + gap >= seg_end:
                    yield self.sim.timeout(seg_end - self.sim.now)
                    break
                yield self.sim.timeout(gap)
                self.arrive(workload, self.scale.max_inflight, pending)
        if pending:
            yield self.sim.all_of(pending)

    def _remap_put_key(self, key: bytes) -> bytes:
        """Single-writer key: keep the Zipf bucket, fix the writer."""
        record_id = int(key[-12:])
        remapped = (record_id - record_id % self.num_writers
                    + self.writer_index)
        if remapped >= self.scale.num_records:
            remapped -= self.num_writers
        return make_key(remapped)

    def _one(self, operation):
        if operation.op == "put":
            yield from self.execute("put", self._remap_put_key(operation.key),
                                    self.ledger.mint())
        else:
            yield from self.execute("get", operation.key)
        self._inflight -= 1
