"""Figure 5: energy efficiency (queries/Joule) across three platforms.

Six YCSB workloads x {Embedded-FAWN, Server-KVell, SmartNIC-LEED} x
{256 B, 1 KB} with replication factor 3 and default Zipf skew.  Each
system runs on its native platform at saturating closed-loop load;
energy is the back-end nodes' Joules over the run phase
(``cluster.energy_joules()``).

Paper's headline: SmartNIC-LEED beats Server-KVell by 4.2x/3.8x and
Embedded-FAWN by 17.5x/19.1x on average — except YCSB-C (read-only),
where Server-KVell's in-memory sorted index wins on queries/Joule.
"""

from __future__ import annotations

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_metered,
    scale_profile,
)
from repro.workloads.ycsb import YCSBWorkload

WORKLOAD_SET = ("A", "B", "C", "D", "F", "WR")
SYSTEM_LABELS = {"fawn": "Embedded-FAWN", "kvell": "Server-KVell",
                 "leed": "SmartNIC-LEED"}


def run(scale: str = QUICK) -> ExperimentResult:
    profile = scale_profile(scale)
    result = ExperimentResult(
        name="Figure 5: energy efficiency (KQueries/Joule)",
        columns=["workload", "value_size", "system", "kqps", "watts",
                 "kq_per_joule"])
    for value_size in (256, 1024):
        for workload_name in WORKLOAD_SET:
            for system in ("fawn", "kvell", "leed"):
                workload = YCSBWorkload(workload_name, profile.num_records,
                                        value_size=value_size, seed=5)
                cluster = build_cluster(system, scale=scale,
                                        value_size=value_size, seed=5)
                load_cluster(cluster, workload)
                time_before = cluster.sim.now
                num_ops = profile.num_ops
                concurrency = profile.concurrency * 6
                if system == "fawn":
                    num_ops = max(num_ops // 6, 300)  # Pi nodes are slow
                    concurrency = profile.concurrency
                stats, energy = run_metered(cluster, workload, num_ops,
                                            concurrency)
                elapsed_s = (cluster.sim.now - time_before) * 1e-6
                watts = energy / max(elapsed_s, 1e-9)
                result.add(workload="YCSB-" + workload_name,
                           value_size=value_size,
                           system=SYSTEM_LABELS[system],
                           kqps=stats.throughput_qps / 1e3,
                           watts=watts,
                           kq_per_joule=stats.completed / max(energy, 1e-9)
                           / 1e3)
    return result
