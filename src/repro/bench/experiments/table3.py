"""Table 3: single-node comparison of FAWN-JBOF, KVell-JBOF, LEED.

All three stores run on the *same* SmartNIC JBOF hardware (the
point of §4.2): 4 NVMe SSDs, one 3 GHz A72 core per SSD.  Rows:

* **Max. Capacity** — analytic, from the real index entry sizes and
  the full-scale 4x960 GB / 8 GB platform (see repro.core.analysis);
* **RND RD/WR latency** — measured at concurrency 1 (unloaded);
* **RND RD/WR throughput** — measured at saturating concurrency.

Expected shape: FAWN has the lowest latency (1 device access) but a
tiny usable capacity; KVell's B-tree is compute-bound on the wimpy
core (worst latency); LEED pays 2+ accesses but exposes nearly the
whole flash and the highest node throughput.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_single_store,
    preload_store,
)
from repro.core.analysis import capacity_table
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry
from repro.hw.cpu import Core
from repro.hw.platforms import STINGRAY
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.workloads.driver import ClosedLoopDriver, drive
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload

NUM_SSDS = 4


def _build_node(system: str, value_size: int, num_records: int, seed: int):
    """4 stores on 4 SSDs with 4 cores — one Table 3 node."""
    sim = Simulator()
    rng = RngRegistry(seed)
    singles = []
    for index in range(NUM_SSDS):
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=256 << 20,
                                      block_size=512),
                      rng=rng.fork("ssd%d" % index), name="nvme%d" % index)
        core = Core(sim, STINGRAY.freq_ghz, core_id=index)
        single = build_single_store(system, value_size=value_size,
                                    sim=sim, ssd=ssd, core=core,
                                    name="%s%d" % (system, index))
        singles.append(single)
    for index, single in enumerate(singles):
        preload_store(single, num_records, value_size, seed=seed + index,
                      key_prefix="n%d-user" % index)
    return sim, singles


def _measure(system: str, value_size: int, num_records: int, num_ops: int,
             workload_name: str, concurrency: int, seed: int = 3):
    sim, singles = _build_node(system, value_size, num_records, seed)
    history = History()
    drivers = []
    for index, single in enumerate(singles):
        workload = YCSBWorkload(workload_name, num_records,
                                value_size=value_size,
                                distribution="uniform",
                                seed=seed + 17 * index,
                                key_prefix="n%d-user" % index)
        drivers.append(ClosedLoopDriver(
            sim, single.store, workload, num_ops // NUM_SSDS,
            concurrency=max(concurrency // NUM_SSDS, 1), history=history))
    return drive(sim, drivers)


def run(scale: str = QUICK) -> ExperimentResult:
    num_records = 400 if scale == QUICK else 2000
    num_ops = 1200 if scale == QUICK else 8000
    saturating = 160 if scale == QUICK else 256

    capacities = capacity_table()
    result = ExperimentResult(
        name="Table 3: single-node comparison on a SmartNIC JBOF",
        columns=["system", "value_size", "max_capacity_pct",
                 "rd_lat_us", "wr_lat_us", "rd_kqps", "wr_kqps"])
    label = {"fawn": "FAWN-JBOF", "kvell": "KVell-JBOF", "leed": "LEED"}
    for system in ("fawn", "kvell", "leed"):
        for value_size in (1024, 256):
            # Unloaded latency: concurrency 1.
            lat_rd = _measure(system, value_size, num_records,
                              max(num_ops // 4, 200), "C", NUM_SSDS)
            lat_wr = _measure(system, value_size, num_records,
                              max(num_ops // 4, 200), "WR", NUM_SSDS)
            # Saturating throughput.
            thr_rd = _measure(system, value_size, num_records, num_ops,
                              "C", saturating)
            thr_wr = _measure(system, value_size, num_records, num_ops,
                              "WR", saturating)
            result.add(system=label[system], value_size=value_size,
                       max_capacity_pct=100 * capacities[label[system]
                                                         if label[system] != "LEED"
                                                         else "LEED"][value_size],
                       rd_lat_us=lat_rd.mean_latency_us(),
                       wr_lat_us=lat_wr.mean_latency_us(),
                       rd_kqps=thr_rd.throughput_qps / 1e3,
                       wr_kqps=thr_wr.throughput_qps / 1e3)
    result.notes = ("Capacity is analytic at full 4x960GB/8GB scale; "
                    "latency at concurrency 4 (1 per SSD); throughput at "
                    "concurrency %d." % saturating)
    return result
