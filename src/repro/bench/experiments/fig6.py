"""Figures 6 and 14: latency vs throughput for six YCSB workloads.

Open-loop (Poisson) offered-load sweeps against Embedded-FAWN(10),
Server-KVell, and SmartNIC-LEED.  FAWN(100) is the paper's artificial
ideal-linear-scaling point: 10x FAWN(10)'s throughput at identical
latency (§4.4) — synthesized here exactly the same way.

Figure 6 is the 1 KB case; Figure 14 (appendix) is 256 B.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_open_loop,
    scale_profile,
)
from repro.workloads.ycsb import YCSBWorkload

WORKLOAD_SET = ("A", "B", "C", "D", "F", "WR")

#: Offered rates as a fraction of each system's rough saturation point
#: (measured closed-loop in Fig. 5); absolute rates differ by orders
#: of magnitude between a Pi cluster and a JBOF cluster.
RATE_FRACTIONS = (0.3, 0.6, 0.85, 1.0)

#: Rough single-run saturation KQPS per (system); used only to choose
#: sweep rates, the *measured* throughput is reported.
SATURATION_KQPS = {
    "fawn": {"A": 5, "B": 4.5, "C": 4.5, "D": 4, "F": 3.5, "WR": 6},
    "kvell": {"A": 200, "B": 700, "C": 1800, "D": 900, "F": 190, "WR": 110},
    "leed": {"A": 75, "B": 600, "C": 900, "D": 700, "F": 100, "WR": 28},
}


def run(scale: str = QUICK, value_size: int = 1024) -> ExperimentResult:
    profile = scale_profile(scale)
    duration_us = 40_000.0 if scale == QUICK else 200_000.0
    result = ExperimentResult(
        name="Figure %s: latency vs throughput (%d B)"
             % ("6" if value_size == 1024 else "14", value_size),
        columns=["workload", "system", "offered_kqps", "kqps",
                 "avg_latency_ms", "p999_ms", "dropped"])
    for workload_name in WORKLOAD_SET:
        for system in ("fawn", "kvell", "leed"):
            saturation = SATURATION_KQPS[system][workload_name] * 1e3
            workload = YCSBWorkload(workload_name, profile.num_records,
                                    value_size=value_size, seed=6)
            for fraction in RATE_FRACTIONS:
                rate = saturation * fraction
                cluster = build_cluster(system, scale=scale,
                                        value_size=value_size, seed=6)
                load_cluster(cluster, workload)
                sweep_duration = duration_us
                if system == "fawn":
                    sweep_duration = duration_us * 10  # Pis are slow
                stats = run_open_loop(cluster, workload, rate,
                                      sweep_duration, seed=int(fraction * 10))
                label = ("Embedded-FAWN(10)" if system == "fawn"
                         else "Server-KVell" if system == "kvell"
                         else "SmartNIC-LEED")
                result.add(workload="YCSB-" + workload_name, system=label,
                           offered_kqps=rate / 1e3,
                           kqps=stats.throughput_qps / 1e3,
                           avg_latency_ms=stats.mean_latency_us() / 1e3,
                           p999_ms=stats.percentile_us(0.999) / 1e3,
                           dropped=stats.dropped)
                if system == "fawn":
                    # FAWN(100): ideal linear scaling, as in the paper.
                    result.add(workload="YCSB-" + workload_name,
                               system="Embedded-FAWN(100)",
                               offered_kqps=rate / 1e3 * 10,
                               kqps=stats.throughput_qps / 1e3 * 10,
                               avg_latency_ms=stats.mean_latency_us() / 1e3,
                               p999_ms=stats.percentile_us(0.999) / 1e3,
                               dropped=stats.dropped * 10)
    result.notes = ("FAWN(100) rows are FAWN(10) scaled 10x at equal "
                    "latency — the paper's ideal-scaling assumption.")
    return result
