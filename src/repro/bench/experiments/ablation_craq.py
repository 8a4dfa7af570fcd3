"""Ablation: CRRS request shipping vs the CRAQ-style alternative.

§3.7: "Another design option is to ask the intermediate node to issue
a version query message (similar to CRAQ) to implicitly serialize
command processing.  We find that this approach generates more
internal traffic across JBOFs and perturbs the traffic pattern."

Both mechanisms are implemented, as the ``"chain"`` and ``"craq"``
replication protocols.  This experiment runs a read/write mix hot
enough to keep dirty bits set — so dirty reads actually occur — and
compares throughput, latency, and the cross-JBOF messages each mode
generates.
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
from repro.workloads.ycsb import YCSBWorkload


def run(scale: str = QUICK) -> ExperimentResult:
    profile = scale_profile(scale)
    result = ExperimentResult(
        name="Ablation: dirty-read resolution — shipping (CRRS) vs "
             "version queries (CRAQ-style)",
        columns=["mode", "kqps", "avg_ms", "p999_ms", "reads_shipped",
                 "version_queries", "extra_bytes"])
    # Few records + write-heavy mix keeps keys dirty while reads race.
    records = max(profile.num_records // 10, 40)
    for protocol, mode in (("chain", "ship"), ("craq", "craq")):
        workload = YCSBWorkload("A", records, value_size=1024,
                                skew=0.99, seed=77)
        cluster = build_cluster("leed", scale=scale, seed=77,
                                replication_protocol=protocol)
        load_cluster(cluster, workload)
        stats = run_closed_loop(cluster, workload, profile.num_ops,
                                profile.concurrency * 4)
        counters = telemetry.counters(cluster)
        result.add(mode=mode, kqps=stats.throughput_qps / 1e3,
                   avg_ms=stats.mean_latency_us() / 1e3,
                   p999_ms=stats.percentile_us(0.999) / 1e3,
                   reads_shipped=counters["vnode.reads_shipped"],
                   version_queries=counters["vnode.version_queries"],
                   extra_bytes=counters["vnode.version_query_bytes"])
    result.notes = ("The paper chose shipping because version queries "
                    "add cross-JBOF messages; extra_bytes quantifies it.")
    return result
