"""Figure 10: intra-JBOF data swapping under imbalanced writes.

A write-only Zipf workload sweeping the skewness, on a LEED cluster
with the data-swapping mechanism (§3.6) enabled vs disabled.  The
paper: the higher the skew, the bigger the win — +15.4%/+17.2%
throughput at 0.99 skew for 256 B/1 KB, and ~29%/32% average/99.9th
latency savings across skewed runs, because a burst of writes to one
partition's SSD is absorbed by idle co-located drives.
"""

from __future__ import annotations

from dataclasses import replace

from repro import telemetry
from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_closed_loop,
)
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import YCSBWorkload

SKEWS_QUICK = (0.1, 0.5, 0.9, 0.99)
SKEWS_FULL = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)


def run(scale: str = QUICK) -> ExperimentResult:
    """Single-JBOF, replication 1: the configuration where intra-JBOF
    swapping is the only defense against a write-hot partition, as in
    the paper's controlled experiment."""
    skews = SKEWS_QUICK if scale == QUICK else SKEWS_FULL
    num_records = 2400 if scale == QUICK else 6000
    num_ops = 3000 if scale == QUICK else 12000
    result = ExperimentResult(
        name="Figure 10: data swapping on/off (write-only Zipf)",
        columns=["value_size", "skew", "swap", "kqps", "avg_ms",
                 "p999_ms", "redirects"])
    for value_size in (1024, 256):
        for skew in skews:
            for swap in (True, False):
                options = replace(LeedOptions(), enable_swap=swap,
                                  swap_threshold=4)
                workload = YCSBWorkload("WR", num_records,
                                        value_size=value_size, skew=skew,
                                        seed=10)
                cluster = build_cluster("leed", scale=scale,
                                        options=options, seed=10,
                                        num_nodes=1, replication=1,
                                        num_clients=2)
                load_cluster(cluster, workload)
                stats = run_closed_loop(cluster, workload, num_ops, 256)
                result.add(value_size=value_size, skew=skew,
                           swap="on" if swap else "off",
                           kqps=stats.throughput_qps / 1e3,
                           avg_ms=stats.mean_latency_us() / 1e3,
                           p999_ms=stats.percentile_us(0.999) / 1e3,
                           redirects=telemetry.counters(cluster)[
                               "jbof.swap_redirects"])
    return result
