"""Workload generation: YCSB mixes, Zipf distributions, drivers and
the run history they record."""

from repro.workloads.driver import (
    ClosedLoopDriver,
    Driver,
    OpenLoopDriver,
    drive,
)
from repro.workloads.history import History, Window, percentile
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
    "Driver",
    "ClosedLoopDriver",
    "OpenLoopDriver",
    "drive",
    "History",
    "Window",
    "percentile",
]
