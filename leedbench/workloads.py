"""The benchmark's workloads: cluster shapes, load generation, correctness.

Everything here goes through the simulator's public API
(``repro.baselines.make_cluster``, ``YCSBWorkload``, the clients'
``get``/``put`` generators and ``Simulator.run``); the closed-loop
driver, the write ledger and the figure digest are the benchmark's own
so that a change to ``repro.workloads.driver`` or ``repro.bench``
cannot move the numbers it is judged by.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.baselines import make_cluster
from repro.core.datastore import StoreConfig
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import YCSBWorkload

VALUE_SIZE = 256
LOAD_PARALLELISM = 16
#: Simulated µs per calibration slice of the load phase (~15 slices).
LOAD_SLICE_US = 4000.0
READBACK_KEYS = 256
#: Client-visible statuses that count as a completed operation.
OK_STATUSES = ("ok",)


@dataclass(frozen=True)
class Spec:
    """One benchmark workload: a cluster shape plus a closed-loop run."""

    name: str
    why: str
    ycsb: str
    records: int
    ops: int
    jbofs: int
    clients: int
    #: Outstanding operations per client (closed loop).
    outstanding: int
    #: ``LeedOptions(fast_datapath=True, admission_batch=8)`` when set,
    #: default options (event-per-stage datapath) otherwise.
    fused: bool = False
    key_log_bytes: int = 4 << 20
    value_log_bytes: int = 24 << 20
    #: Simulated µs per calibration slice: ~40 slices per timed phase.
    slice_us: float = 500.0

    def options(self) -> LeedOptions:
        if self.fused:
            return LeedOptions(fast_datapath=True, admission_batch=8)
        return LeedOptions()

    def quick(self) -> "Spec":
        """The smoke-sized variant (``--quick``): a fifth of the ops."""
        return replace(self, ops=self.ops // 5)

    def reference_twin(self) -> "Spec":
        """Same inputs on the event-per-stage datapath (parity baseline)."""
        return replace(self, fused=False)


#: The four workloads.  ``why`` is the one-liner BENCHMARK.json carries;
#: README.md has the long form and the layer each one is meant to move.
SPECS: Dict[str, Spec] = {spec.name: spec for spec in (
    Spec(name="ycsb_b_ref",
         why="95/5 zipfian on the event-per-stage reference datapath: "
             "~35 events/op, so the sim event loop and net/io_engine "
             "process hops carry the host cost",
         ycsb="B", records=2000, ops=10_000, jbofs=4, clients=8,
         outstanding=8, slice_us=500.0),
    Spec(name="ycsb_b_fused",
         why="same ops and seed on the fused fast datapath: ~9 events/op, "
             "so hw calendars and datastore decode carry the cost; "
             "bypasses most of what ycsb_b_ref stresses",
         ycsb="B", records=2000, ops=10_000, jbofs=4, clients=8,
         outstanding=8, fused=True, slice_us=500.0),
    Spec(name="ycsb_wr_compact",
         why="100% updates into a 1152 KB key ring so key-log compaction "
             "rounds finish inside the timed phase: replication chain, "
             "WAL, log append and SSD writes, idle on the B workloads",
         ycsb="WR", records=2000, ops=5000, jbofs=4, clients=4,
         outstanding=1, key_log_bytes=1152 << 10,
         value_log_bytes=8 << 20, slice_us=8000.0),
    Spec(name="rack_b_fused",
         why="YCSB-B on 16 JBOFs with 64 clients x 2 outstanding, fused: "
             "same events/op as ycsb_b_fused, so per-event costs that "
             "grow with cluster size (heap depth, flow control) show",
         ycsb="B", records=4000, ops=12_288, jbofs=16, clients=64,
         outstanding=2, fused=True, slice_us=300.0),
)}


def percentile(ordered: List[float], quantile: float) -> float:
    """Exact nearest-rank percentile of an ascending list."""
    rank = max(math.ceil(quantile * len(ordered)), 1)
    return ordered[rank - 1]


# -- cluster construction and load ---------------------------------------------

def build(spec: Spec, seed: int, workers: int = 0,
          trace_sample_interval: int = 0):
    """(cluster, workload) for ``spec``; both seeded from ``seed``."""
    store = StoreConfig(num_segments=256, key_log_bytes=spec.key_log_bytes,
                        value_log_bytes=spec.value_log_bytes)
    cluster = make_cluster(
        "leed", num_nodes=spec.jbofs, ssds_per_node=2,
        num_clients=spec.clients, replication=3, store_config=store,
        options=spec.options(), seed=seed, workers=workers,
        trace_sample_interval=trace_sample_interval)
    workload = YCSBWorkload(spec.ycsb, num_records=spec.records, seed=seed,
                            value_size=VALUE_SIZE)
    return cluster, workload


class Ledger:
    """Last acknowledged PUTs per key, for the read-back check.

    Keeps the two most recently acknowledged writes of each key: when
    they overlapped in simulated time either may be the survivor.  A
    key with a failed (unacknowledged, possibly applied) PUT after its
    last ack is marked uncertain and skipped.
    """

    def __init__(self):
        #: key -> [(value, begin_us, end_us), ...] newest last, <= 2 kept
        self.acked: Dict[bytes, List[Tuple[bytes, float, float]]] = {}
        self.uncertain: set = set()
        self.updated: set = set()

    def loaded(self, key: bytes, value: bytes) -> None:
        self.acked[key] = [(value, 0.0, 0.0)]

    def put_done(self, key: bytes, value: bytes, begin_us: float,
                 end_us: float, ok: bool) -> None:
        if not ok:
            self.uncertain.add(key)
            return
        self.uncertain.discard(key)
        self.updated.add(key)
        history = self.acked.setdefault(key, [])
        history.append((value, begin_us, end_us))
        del history[:-2]

    def acceptable(self, key: bytes) -> List[bytes]:
        """Values a read of ``key`` may legitimately return now."""
        history = self.acked[key]
        last = history[-1]
        accepted = [last[0]]
        if len(history) == 2 and last[1] < history[0][2]:
            accepted.append(history[0][0])
        return accepted

    def sample_keys(self, seed: int, count: int = READBACK_KEYS) -> List[bytes]:
        """Deterministic read-back sample, updated keys first.

        Half the sample is drawn from keys written in the timed phase
        (the ones a lost or reordered write would corrupt), the rest
        from keys that only the load phase wrote.
        """
        rng = random.Random(seed)
        certain = [key for key in sorted(self.acked)
                   if key not in self.uncertain]
        updated = [key for key in certain if key in self.updated]
        untouched = [key for key in certain if key not in self.updated]
        picked = rng.sample(updated, min(len(updated), count // 2))
        picked += rng.sample(untouched,
                             min(len(untouched), count - len(picked)))
        return picked

    def mismatches(self, observed: Dict[bytes, Tuple[str, Optional[bytes]]]
                   ) -> List[str]:
        """Human-readable read-back failures (empty when all match)."""
        problems = []
        for key, (status, value) in sorted(observed.items()):
            if status != "ok":
                problems.append("%r: read-back status %s" % (key, status))
            elif value not in self.acceptable(key):
                problems.append("%r: read-back value is not the last "
                                "acknowledged PUT" % (key,))
        return problems


def load(cluster, workload, ledger: Ledger):
    """Start the cluster and return the load-phase completion event."""
    pairs = list(workload.load_pairs())
    for key, value in pairs:
        ledger.loaded(key, value)
    cluster.start()
    return cluster.sim.process(
        cluster.load(iter(pairs), parallelism=LOAD_PARALLELISM),
        name="leedbench.load")


# -- the closed-loop driver ----------------------------------------------------

class ClosedLoop:
    """``outstanding`` operations in flight per client until ``ops`` are issued.

    All workers draw from one budget, so every client stays busy until
    the last operation: with per-client shares the phase would end with
    the slowest client draining alone, and throughput would measure that
    straggler.

    Records every operation (kind, latency, status) and, at the instant
    the last one completes, calls ``on_finish`` from inside the
    simulation so end-of-phase snapshots do not depend on how the host
    slices ``Simulator.run``.
    """

    def __init__(self, cluster, workload, spec: Spec, ledger: Ledger,
                 on_finish=None):
        self.sim = cluster.sim
        self.cluster = cluster
        self.workload = workload
        self.spec = spec
        self.ledger = ledger
        self.on_finish = on_finish
        self.attempted = 0
        self.put_bytes = 0
        self.kinds: List[str] = []
        self.latencies_us: List[float] = []
        self.statuses: List[str] = []
        self.started_at_us = 0.0
        self.finished_at_us = 0.0
        self.done = None

    def start(self):
        """Spawn the workers; returns the completion event."""
        self.started_at_us = self.sim.now
        workers = [self.sim.process(
            self._worker(client),
            name="leedbench.%s.w%d" % (client.address, slot))
            for client in self.cluster.clients
            for slot in range(self.spec.outstanding)]
        self.done = self.sim.process(self._collect(workers),
                                     name="leedbench.collect")
        return self.done

    def _collect(self, workers):
        yield self.sim.all_of(workers)
        self.finished_at_us = self.sim.now
        if self.on_finish is not None:
            self.on_finish()

    def _worker(self, client):
        sim = self.sim
        while self.attempted < self.spec.ops:
            self.attempted += 1
            operation = self.workload.next_operation()
            begin = sim.now
            if operation.op == "get":
                result = yield from client.get(operation.key)
            else:
                result = yield from client.put(operation.key,
                                               operation.value)
                self.put_bytes += len(operation.value)
                self.ledger.put_done(operation.key, operation.value, begin,
                                     sim.now, result.status in OK_STATUSES)
            self.kinds.append(operation.op)
            self.latencies_us.append(sim.now - begin)
            self.statuses.append(result.status)

    # -- results ---------------------------------------------------------------

    @property
    def completed(self) -> int:
        return sum(1 for status in self.statuses if status in OK_STATUSES)

    @property
    def failed(self) -> int:
        return len(self.statuses) - self.completed

    def failed_by_status(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for status in self.statuses:
            if status not in OK_STATUSES:
                counts[status] = counts.get(status, 0) + 1
        return counts

    def latencies_of(self, kind: str) -> List[float]:
        return sorted(latency for latency, op in
                      zip(self.latencies_us, self.kinds) if op == kind)

    def digest(self) -> str:
        """Hash of every simulated outcome of the timed phase.

        Covers each operation's kind, status and latency in completion
        order plus the phase's simulated span — never host time — so
        equal digests mean equal figures whatever the engine, the
        slicing or the machine.
        """
        hasher = hashlib.sha256()
        hasher.update(struct.pack("<dd", self.started_at_us,
                                  self.finished_at_us))
        hasher.update(struct.pack("<%dd" % len(self.latencies_us),
                                  *self.latencies_us))
        hasher.update(",".join(self.kinds).encode())
        hasher.update(",".join(self.statuses).encode())
        return hasher.hexdigest()[:16]


def read_back(cluster, ledger: Ledger, seed: int
              ) -> Dict[bytes, Tuple[str, Optional[bytes]]]:
    """GET the ledger's sample through client 0 after the timed phase."""
    sim = cluster.sim
    client = cluster.clients[0]
    observed: Dict[bytes, Tuple[str, Optional[bytes]]] = {}

    def reader(keys):
        for key in keys:
            result = yield from client.get(key)
            observed[key] = (result.status, result.value)

    keys = ledger.sample_keys(seed)
    readers = [sim.process(reader(keys[lane::LOAD_PARALLELISM]),
                           name="leedbench.readback")
               for lane in range(LOAD_PARALLELISM)]
    sim.run(until=sim.all_of(readers))
    return observed
