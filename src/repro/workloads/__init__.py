"""Workload generation: YCSB mixes, Zipf distributions, drivers."""

from repro.workloads.driver import (
    ClosedLoopDriver,
    DriverStats,
    OpenLoopDriver,
    merge_stats,
)
from repro.workloads.ycsb import (
    DEFAULT_SKEW,
    WORKLOADS,
    Operation,
    WorkloadSpec,
    YCSBWorkload,
    make_key,
    make_value,
)
from repro.workloads.zipf import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
)

__all__ = [
    "YCSBWorkload",
    "WorkloadSpec",
    "Operation",
    "WORKLOADS",
    "DEFAULT_SKEW",
    "make_key",
    "make_value",
    "ZipfianGenerator",
    "ScrambledZipfianGenerator",
    "LatestGenerator",
    "UniformGenerator",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "DriverStats",
    "merge_stats",
]
