"""Figure 14 (appendix): latency vs throughput at 256 B objects.

The same sweep as Figure 6 with small objects — the paper reports
similar shapes to the 1 KB case, and so do we.
"""

from __future__ import annotations

from repro.bench.experiments import fig6
from repro.bench.harness import QUICK, ExperimentResult


def run(scale: str = QUICK) -> ExperimentResult:
    return fig6.run(scale, value_size=256)
