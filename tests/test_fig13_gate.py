"""The fig. 13 gate: the compactor's parallelism keeps the paper's shape.

Fig. 13 is the only figure whose throughput is gated by compaction,
and the only run that compacts a value log (see
``repro.core.compaction``).  ``fig13.run("quick")`` runs once for the
module (~5 s) and its WR-ONLY rows — the workload whose PUTs wait on
reclaim — must show:

* 13a non-decreasing over 1, 2, 4 and 8 sub-compaction workers;
* 13a at 8 workers at least 1.9x 1 worker (the paper's ratio);
* 13b with 4 co-scheduled compactions more than 1.1x one at a time.
"""

import pytest

from repro.bench.experiments import fig13


@pytest.fixture(scope="module")
def wr_only():
    """``{part: {x: kqps}}`` of the quick run's WR-ONLY rows."""
    rows = {"13a": {}, "13b": {}}
    for row in fig13.run("quick").rows:
        if row["workload"] == "WR-ONLY":
            rows[row["part"]][row["x"]] = row["kqps"]
    return rows


def test_intra_parallelism_never_slows_wr_only(wr_only):
    intra = [wr_only["13a"][workers] for workers in (1, 2, 4, 8)]
    assert intra == sorted(intra), intra


def test_eight_workers_reach_the_papers_ratio(wr_only):
    intra = wr_only["13a"]
    assert intra[8] / intra[1] >= 1.9, intra


def test_co_scheduling_helps_wr_only(wr_only):
    inter = wr_only["13b"]
    assert inter[4] / inter[1] > 1.1, inter
