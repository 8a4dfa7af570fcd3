"""Figure 13: the impact of execution parallelism on compaction.

Two ablations on the LEED compactor (§3.3.1):

* **(a) intra-parallelism** — throughput of a store under compaction
  pressure as the number of sub-compaction workers sweeps 1 → 32
  (paper: ~1.9x improvement by 8 workers, then flat);
* **(b) inter-parallelism** — co-scheduling 1 → 4 concurrent
  compactions across partitions on one SSD (paper: +17.9%).

Workloads: WR-ONLY (uniform random writes), MIX-50 (50/50 uniform),
MIX-50-Zip (50/50 Zipf 0.99) — small logs so compaction runs
constantly, making its efficiency visible in end-to-end throughput.
"""

from __future__ import annotations

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_single_store,
    drive_store,
    preload_store,
)
from repro.core.compaction import CompactionConfig, Compactor, Trigger
from repro.core.datastore import StoreConfig
from repro.hw.cpu import Core
from repro.hw.platforms import STINGRAY
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.driver import ClosedLoopDriver, drive
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload

WORKLOAD_DEFS = (
    ("WR-ONLY", "WR", "uniform", None),
    ("MIX-50", "A", "uniform", None),
    ("MIX-50-Zip", "A", "zipfian", 0.99),
)

#: Tight store geometry: the value log barely exceeds the live data
#: set, so PUT progress is gated by how fast compaction reclaims
#: space — making compaction efficiency visible in throughput.
def _pressure_config() -> StoreConfig:
    return StoreConfig(num_segments=512,
                       key_log_bytes=2 << 20,
                       value_log_bytes=256 << 10,
                       compact_high_watermark=0.70,
                       compact_low_watermark=0.45)


class BlockingStore:
    """Store adapter: PUTs wait for compaction instead of failing.

    Mirrors a deployment where the engine holds a write until the log
    has room (the paper: "PUTs would be served slowly if the new log
    entry generation speed cannot catch up").
    """

    def __init__(self, sim, store):
        self.sim = sim
        self.store = store

    def get(self, key):
        return (yield from self.store.get(key))

    def delete(self, key):
        return (yield from self.store.delete(key))

    def put(self, key, value):
        while True:
            result = yield from self.store.put(key, value)
            if result.status != "store_full":
                return result
            yield self.sim.timeout(60.0)


def _run_with_compactor(workload_def, subcompactions: int,
                        num_records: int, num_ops: int,
                        seed: int = 13) -> float:
    label, mix, dist, skew = workload_def
    single = build_single_store(
        "leed", value_size=256, seed=seed,
        store_kwargs={"config": _pressure_config()})
    compactor = Compactor(single.store,
                          CompactionConfig(subcompactions=subcompactions))
    single.store.on_pressure = Trigger(
        single.sim, lambda _store: compactor.maintenance(),
        name="fig13.maint")
    preload_store(single, num_records, 256)
    workload = YCSBWorkload(mix, num_records, value_size=256,
                            distribution=dist, skew=skew or 0.99, seed=seed)
    sim, history = single.sim, History()
    driver = ClosedLoopDriver(sim, BlockingStore(sim, single.store), workload,
                              num_ops, concurrency=24, history=history)
    window = history.open(sim.now)
    sim.run(until=sim.process(driver.run(), name="fig13.drive"))
    return window.close(sim.now).throughput_qps


def run_intra(scale: str = QUICK) -> ExperimentResult:
    """Figure 13a: sub-compaction count sweep."""
    num_records = 450 if scale == QUICK else 600
    num_ops = 900 if scale == QUICK else 6000
    counts = (1, 2, 4, 8, 16) if scale == QUICK else (1, 2, 4, 8, 16, 32)
    result = ExperimentResult(
        name="Figure 13a: compaction intra-parallelism",
        columns=["workload", "subcompactions", "kqps"])
    for workload_def in WORKLOAD_DEFS:
        for count in counts:
            kqps = _run_with_compactor(workload_def, count,
                                       num_records, num_ops) / 1e3
            result.add(workload=workload_def[0], subcompactions=count,
                       kqps=kqps)
    return result


def run_inter(scale: str = QUICK) -> ExperimentResult:
    """Figure 13b: co-scheduled compactions across partitions.

    Four partitions share one SSD; their writes kick one trigger that
    lets at most K partitions compact concurrently.
    """
    num_records = 450 if scale == QUICK else 600
    num_ops = 2400 if scale == QUICK else 9600
    partitions = 4
    result = ExperimentResult(
        name="Figure 13b: compaction inter-parallelism",
        columns=["workload", "concurrent_compactions", "kqps"])

    for workload_def in WORKLOAD_DEFS:
        label, mix, dist, skew = workload_def
        for limit in (1, 2, 3, 4):
            sim = Simulator()
            rng = RngRegistry(31)
            ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=256 << 20,
                                          block_size=512),
                          rng=rng, name="fig13b")
            cores = [Core(sim, STINGRAY.freq_ghz, core_id=i)
                     for i in range(partitions)]
            singles = []
            compactors = {}
            # At most ``limit`` concurrent compaction rounds.
            trigger = Trigger(
                sim, lambda store, compactors=compactors:
                compactors[store].maintenance(),
                limit=limit, name="fig13b.compact")
            config = _pressure_config()
            for index in range(partitions):
                single = build_single_store(
                    "leed", value_size=256, sim=sim, ssd=ssd,
                    core=cores[index], name="p%d" % index,
                    store_kwargs={
                        "config": config,
                        "region_offset": index * config.total_bytes()})
                singles.append(single)
                compactors[single.store] = Compactor(single.store,
                                                     CompactionConfig())
                single.store.on_pressure = trigger
            for index, single in enumerate(singles):
                preload_store(single, num_records, 256,
                              key_prefix="p%d-user" % index,
                              seed=40 + index)
            history = History()
            drivers = []
            for index, single in enumerate(singles):
                workload = YCSBWorkload(mix, num_records, value_size=256,
                                        distribution=dist,
                                        skew=skew or 0.99,
                                        seed=50 + index,
                                        key_prefix="p%d-user" % index)
                drivers.append(ClosedLoopDriver(
                    sim, BlockingStore(sim, single.store), workload,
                    num_ops // partitions, concurrency=10, history=history))
            stats = drive(sim, drivers)
            result.add(workload=label, concurrent_compactions=limit,
                       kqps=stats.throughput_qps / 1e3)
    return result


def run(scale: str = QUICK):
    intra = run_intra(scale)
    inter = run_inter(scale)
    combined = ExperimentResult(
        name="Figure 13: compaction parallelism (a: intra, b: inter)",
        columns=["part", "workload", "x", "kqps"])
    for row in intra.rows:
        combined.add(part="13a", workload=row["workload"],
                     x=row["subcompactions"], kqps=row["kqps"])
    for row in inter.rows:
        combined.add(part="13b", workload=row["workload"],
                     x=row["concurrent_compactions"], kqps=row["kqps"])
    return combined
