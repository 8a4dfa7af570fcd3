"""Table 1: data-store node comparison across the three platforms.

Analytic, computed from the platform spec sheets: storage-hierarchy
skew (Flash:DRAM), computing density for network (GbE/core) and
storage (4 KB random-read IOPS/core), and the balls-into-bins maximum
load for the paper's cluster sizes (100 embedded nodes vs 3 JBOFs).
"""

from __future__ import annotations

from repro.bench.harness import QUICK, ExperimentResult
from repro.core.analysis import balls_into_bins_max_load, table1_rows


def run(scale: str = QUICK) -> ExperimentResult:
    result = ExperimentResult(
        name="Table 1: platform comparison",
        columns=["platform", "flash_dram_skew", "gbe_per_core",
                 "iops_per_core", "max_load", "max_load_at_1m"])
    for row in table1_rows(embedded_nodes=100, jbof_nodes=3):
        nodes = 100 if "pi" in row.platform else 3
        result.add(platform=row.platform,
                   flash_dram_skew=row.storage_skew_ratio,
                   gbe_per_core=row.network_density_gbps_per_core,
                   iops_per_core=row.storage_density_iops_per_core,
                   max_load=row.max_load_expression,
                   max_load_at_1m=balls_into_bins_max_load(1e6, nodes))
    result.notes = ("Paper row 4 uses m = client request rate; the last "
                    "column evaluates the bound at m = 1M req/s.")
    return result
