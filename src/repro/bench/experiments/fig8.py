"""Figure 8: load-aware scheduling (token flow control) on/off.

YCSB-B and YCSB-C across a Zipf skew sweep, offered *past* the
cluster's capacity (open loop), with the coupled intra-JBOF token
engine + inter-JBOF flow controller enabled vs disabled ("w/o LS":
clients fire immediately, engines admit unboundedly, so the shallow
per-partition waiting queues overflow and requests are shed; shed
requests cost client retries, which is where goodput goes to die).

The paper reports +52.2% throughput and -34.4%/-33.7% average/99.9th
latency for YCSB-B, with the protection weakening under severe incast
(skew 0.95/0.99) because token backpropagation needs a round trip.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_open_loop,
    scale_profile,
)
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import YCSBWorkload

SKEWS_QUICK = (0.1, 0.5, 0.9, 0.99)
SKEWS_FULL = (0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99)

#: Unbounded token pool == no admission control.
NO_LS_TOKENS = 1 << 20


def run(scale: str = QUICK) -> ExperimentResult:
    profile = scale_profile(scale)
    skews = SKEWS_QUICK if scale == QUICK else SKEWS_FULL
    result = ExperimentResult(
        name="Figure 8: load-aware scheduling on/off",
        columns=["workload", "skew", "ls", "kqps", "avg_ms", "p999_ms",
                 "dropped"])
    for workload_name in ("B", "C"):
        for skew in skews:
            for load_aware in (True, False):
                options = replace(LeedOptions(), waiting_capacity=48)
                if not load_aware:
                    options = replace(options,
                                      token_capacity=NO_LS_TOKENS,
                                      waiting_capacity=48)
                workload = YCSBWorkload(workload_name, profile.num_records,
                                        value_size=1024, skew=skew, seed=8)
                cluster = build_cluster("leed", scale=scale,
                                        options=options,
                                        flow_control=load_aware, seed=8)
                load_cluster(cluster, workload)
                stats = run_open_loop(cluster, workload,
                                      rate_qps=1.3e6,
                                      duration_us=(30_000.0 if scale == QUICK
                                                   else 150_000.0),
                                      seed=8)
                result.add(workload="YCSB-" + workload_name, skew=skew,
                           ls="on" if load_aware else "off",
                           kqps=stats.throughput_qps / 1e3,
                           avg_ms=stats.mean_latency_us() / 1e3,
                           p999_ms=stats.percentile_us(0.999) / 1e3,
                           dropped=stats.dropped)
    result.notes = ("dropped counts arrivals refused at the in-flight "
                    "cap: kqps and latencies cover the admitted rest.")
    return result
