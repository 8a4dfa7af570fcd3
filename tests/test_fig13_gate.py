"""The fig. 13 gate: the compactor's parallelism keeps the paper's shape.

Fig. 13 is the only figure whose throughput is gated by compaction,
and the only run that compacts a value log (see
``repro.core.compaction``).  ``fig13.run("quick")`` runs once for the
session (~7 s, shared with ``test_paper_claims`` through conftest's
``quick_result``) and its WR-ONLY rows — the workload whose PUTs wait on
reclaim — must meet the fig. 13 claims of :mod:`repro.bench.paper`:

* 13a non-decreasing over 1, 2, 4 and 8 sub-compaction workers;
* 13a at 8 workers at least 1.9x 1 worker (the paper's ratio);
* 13b with 4 co-scheduled compactions more than 1.1x one at a time.

``test_paper_claims`` checks the same claims together; this names
each relation on its own.
"""

import pytest

from repro.bench.paper import evaluate


@pytest.fixture(scope="module")
def verdicts(quick_result):
    """``{claim name: Verdict}`` of the quick run's fig. 13 claims."""
    return {verdict.claim.name: verdict
            for verdict in evaluate("fig13", quick_result("fig13"))}


def _assert_hold(verdicts, *names):
    failed = [str(verdicts[name]) for name in names
              if not verdicts[name].passed]
    assert not failed, "\n".join(failed)


def test_intra_parallelism_never_slows_wr_only(verdicts):
    _assert_hold(verdicts, "intra_never_slows[WR-ONLY,1->2]",
                 "intra_never_slows[WR-ONLY,2->4]",
                 "intra_never_slows[WR-ONLY,4->8]")


def test_eight_workers_reach_the_papers_ratio(verdicts):
    _assert_hold(verdicts, "intra_8_over_1[WR-ONLY]")


def test_co_scheduling_helps_wr_only(verdicts):
    _assert_hold(verdicts, "inter_4_over_1[WR-ONLY]")
