"""Figure 7: CRRS read-imbalance handling vs Zipf skewness.

YCSB-B and YCSB-C on a LEED cluster with CRRS enabled vs disabled
(reads at the tail only), sweeping the Zipf constant.  The paper's
result: at low skew CRRS changes little; at 0.9-0.99 it multiplies
throughput (up to 7.3x) and collapses average/99.9th latencies,
because dirty-free replicas absorb the hot keys' reads.
"""

from __future__ import annotations

from repro import telemetry
from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_closed_loop,
    scale_profile,
)
from repro.core.protocol import ReadPolicy
from repro.workloads.ycsb import YCSBWorkload

SKEWS_QUICK = (0.1, 0.5, 0.9, 0.99)
SKEWS_FULL = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


def run(scale: str = QUICK) -> ExperimentResult:
    profile = scale_profile(scale)
    skews = SKEWS_QUICK if scale == QUICK else SKEWS_FULL
    result = ExperimentResult(
        name="Figure 7: CRRS vs plain chain replication",
        columns=["workload", "skew", "crrs", "kqps", "avg_ms", "p999_ms",
                 "reads_shipped"])
    for workload_name in ("B", "C"):
        for skew in skews:
            for crrs in (True, False):
                workload = YCSBWorkload(workload_name, profile.num_records,
                                        value_size=1024, skew=skew, seed=7)
                cluster = build_cluster(
                    "leed", scale=scale, seed=7,
                    read_policy=(ReadPolicy.CRRS if crrs
                                 else ReadPolicy.TAIL))
                load_cluster(cluster, workload)
                stats = run_closed_loop(cluster, workload,
                                        profile.num_ops,
                                        profile.concurrency * 4)
                result.add(workload="YCSB-" + workload_name, skew=skew,
                           crrs="on" if crrs else "off",
                           kqps=stats.throughput_qps / 1e3,
                           avg_ms=stats.mean_latency_us() / 1e3,
                           p999_ms=stats.percentile_us(0.999) / 1e3,
                           reads_shipped=telemetry.counters(cluster)[
                               "vnode.reads_shipped"])
    return result
