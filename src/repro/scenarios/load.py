"""Curve-following load generation and the acked-write ledger.

:class:`CurveDriver` is an open-loop Poisson driver whose rate and
Zipf skew follow a phase's :class:`~repro.scenarios.dsl.Segment`
curve.  Every PUT it issues is routed through a shared
:class:`WriteLedger` that assigns a globally unique value token and,
after the run, adjudicates a read-back sweep: an acked write whose
value cannot be observed (and was not superseded) is a *lost acked
write* — the invariant every scenario asserts to zero.

Single-writer discipline: PUT keys are remapped so each record id is
only ever written by one driver (``rid - rid % writers + index``,
which preserves Zipf hotness buckets).  Within one driver, open-loop
concurrency can still put the same key twice in flight; the ledger
marks such keys *racy* and only requires read-your-issued for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.sim.core import Simulator
from repro.workloads.driver import percentile
from repro.workloads.ycsb import YCSBWorkload, make_key

#: Value-token prefix length: b"w%016x." — unique per ledger sequence
#: number, so equality of the first 18 bytes implies write identity.
TOKEN_LEN = 18

#: Smallest value size the ledger can tag.
MIN_VALUE_SIZE = 32


class _KeyState:
    """Per-key write history inside a :class:`WriteLedger`."""

    __slots__ = ("issued", "acked_seq", "outstanding", "racy")

    def __init__(self):
        #: token bytes -> ledger seq, for every write ever issued.
        self.issued: Dict[bytes, int] = {}
        self.acked_seq: Optional[int] = None
        self.outstanding = 0
        self.racy = False


class WriteLedger:
    """Tracks every scenario PUT and judges the final read-back sweep."""

    def __init__(self, value_size: int):
        if value_size < MIN_VALUE_SIZE:
            raise ValueError("ledger needs value_size >= %d, got %d"
                             % (MIN_VALUE_SIZE, value_size))
        self.value_size = value_size
        self._keys: Dict[bytes, _KeyState] = {}
        self._seq = 0
        self.acked_writes = 0
        self.failed_writes = 0

    def begin(self, key: bytes):
        """Register a write about to be issued; returns (seq, value)."""
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _KeyState()
        if state.outstanding > 0:
            state.racy = True
        state.outstanding += 1
        seq = self._seq
        self._seq += 1
        token = (b"w%016x." % seq)
        state.issued[token] = seq
        value = token + b"x" * (self.value_size - TOKEN_LEN)
        return seq, value

    def finish(self, key: bytes, seq: int, acked: bool) -> None:
        """Record the outcome of a write begun via :meth:`begin`."""
        state = self._keys[key]
        state.outstanding -= 1
        if acked:
            self.acked_writes += 1
            if state.acked_seq is None or seq > state.acked_seq:
                state.acked_seq = seq
        else:
            self.failed_writes += 1

    # -- final sweep -------------------------------------------------------

    def acked_keys(self) -> List[bytes]:
        """Keys with at least one acknowledged write, sorted."""
        return sorted(k for k, s in self._keys.items()
                      if s.acked_seq is not None)

    def judge(self, key: bytes, status: str,
              value: Optional[bytes]) -> str:
        """Adjudicate one sweep read of an acked key.

        Returns ``"ok"``, ``"indeterminate"`` (a write issued after
        the last ack whose outcome the client never learned — allowed
        to have landed), or ``"lost"`` (the acked write is gone: the
        key vanished, holds a pre-scenario value, or regressed to an
        older write).
        """
        state = self._keys[key]
        if status != "ok" or value is None:
            # No deletes in scenario traffic: not_found = lost.
            return "lost"
        seq = state.issued.get(bytes(value[:TOKEN_LEN]))
        if seq is None:
            return "lost"          # pre-scenario bytes over an acked write
        if state.racy:
            return "ok"            # concurrent same-key puts: any issued wins
        if seq == state.acked_seq:
            return "ok"
        if seq > state.acked_seq:
            return "indeterminate"
        return "lost"              # older write resurfaced over the ack

    @property
    def racy_key_count(self) -> int:
        return sum(1 for s in self._keys.values() if s.racy)


class PhaseStats:
    """Aggregated per-phase traffic accounting (all drivers)."""

    __slots__ = ("name", "started_at_us", "finished_at_us", "issued",
                 "ok", "failed", "dropped", "latencies_us")

    def __init__(self, name: str):
        self.name = name
        self.started_at_us = 0.0
        self.finished_at_us = 0.0
        self.issued = 0
        self.ok = 0
        self.failed = 0
        self.dropped = 0
        self.latencies_us: List[float] = []

    def percentile_us(self, quantile: float) -> float:
        return percentile(self.latencies_us, quantile)

    def availability(self) -> float:
        denom = self.ok + self.failed + self.dropped
        if denom == 0:
            return 1.0
        return self.ok / denom

    def summary(self) -> Dict[str, object]:
        duration = max(self.finished_at_us - self.started_at_us, 0.0)
        return {
            "name": self.name,
            "start_us": self.started_at_us,
            "duration_us": duration,
            "issued": self.issued,
            "ok": self.ok,
            "failed": self.failed,
            "dropped": self.dropped,
            "availability": round(self.availability(), 6),
            "p50_us": round(self.percentile_us(0.50), 3),
            "p99_us": round(self.percentile_us(0.99), 3),
            "throughput_qps": round(self.ok / (duration * 1e-6), 3)
            if duration > 0 else 0.0,
        }


class CurveDriver:
    """One client's open-loop Poisson traffic through a phase curve.

    Arrivals follow the active :class:`Segment`'s rate (divided evenly
    across drivers); a segment with a ``skew`` override swaps in a
    workload generator with that Zipfian constant.  Latency samples
    are mirrored into ``latency_sink`` (the runner's rolling window)
    so the autoscaler can react to them mid-run.
    """

    def __init__(self, sim: Simulator, client, scale, scenario,
                 segments, duration_us: float, rng, ledger: WriteLedger,
                 writer_index: int, num_writers: int, stats: PhaseStats,
                 latency_sink=None, workload_seed: int = 0):
        self.sim = sim
        self.client = client
        self.scale = scale
        self.scenario = scenario
        self.segments = list(segments)
        self.duration_us = duration_us
        self.rng = rng
        self.ledger = ledger
        self.writer_index = writer_index
        self.num_writers = max(num_writers, 1)
        self.stats = stats
        self.latency_sink = latency_sink
        self.workload_seed = workload_seed
        self._workloads: Dict[float, YCSBWorkload] = {}
        self._inflight = 0

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
                self.stats.issued += 1
                if self._inflight >= self.scale.max_inflight:
                    self.stats.dropped += 1
                    continue
                self._inflight += 1
                operation = workload.next_operation()
                pending.append(self.sim.process(
                    self._one(operation), name="scenario.op"))
                pending = [p for p in pending if not p.triggered]
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
        begin = self.sim.now
        if operation.op == "put":
            key = self._remap_put_key(operation.key)
            seq, value = self.ledger.begin(key)
            result = yield from self.client.put(key, value)
            status = getattr(result, "status", "error")
            self.ledger.finish(key, seq, status == "ok")
            ok = status == "ok"
        else:
            result = yield from self.client.get(operation.key)
            status = getattr(result, "status", "error")
            ok = status in ("ok", "not_found")
        latency = self.sim.now - begin
        if ok:
            self.stats.ok += 1
        else:
            self.stats.failed += 1
        self.stats.latencies_us.append(latency)
        if self.latency_sink is not None:
            self.latency_sink.append(latency)
        self._inflight -= 1
