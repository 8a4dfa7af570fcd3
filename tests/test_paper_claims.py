"""The paper's claims hold on every experiment that runs in seconds.

``python -m repro.bench run`` checks every claim of
:mod:`repro.bench.paper` on the table it prints.  This runs the same
evaluation in tier-1 on the experiments whose quick run takes under
10 s.  Their times on a 2-core box: table1 0.0 s, fig11 0.1, fig1 0.2,
ablation_lsm 0.3, fig12 1.0-1.2, ablation_craq 0.9-1.2, table3 2.6-3.1
and fig13 6.7-7.3; 11.7-13.3 s together.  fig7 (~9 s) would push the
total past 15 s, so it and the slower experiments are left to
``run all``.  Each result comes from conftest's ``quick_result``, so
fig. 13's run is shared with ``test_fig13_gate``.
"""

import pytest

from repro.bench.__main__ import main
from repro.bench.experiments import table1
from repro.bench.paper import evaluate

FAST = ("table1", "fig11", "fig1", "ablation_lsm", "fig12",
        "ablation_craq", "table3", "fig13")


@pytest.mark.parametrize("name", FAST)
def test_claims_hold(name, quick_result):
    result = quick_result(name)
    failed = [str(v) for v in evaluate(name, result) if not v.passed]
    assert not failed, "\n".join(failed)


def test_a_failed_claim_is_named_and_fails_the_run(monkeypatch, capsys):
    result = table1.run("quick")
    result.row_for(platform="stingray-ps1100r")["gbe_per_core"] = 3.2
    failed = [v.claim.name for v in evaluate("table1", result)
              if not v.passed]
    assert failed == ["stingray_gbe_per_core"]

    monkeypatch.setattr(table1, "run", lambda scale: result)
    assert main(["run", "table1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "1 claim(s) failed: table1 stingray_gbe_per_core"
