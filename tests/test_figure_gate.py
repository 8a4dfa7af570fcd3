"""The figure gate: what the model reports, pinned row by row.

``repro.bench.harness.measure_run_phase`` is the one measured run in
``src/``.  For the ``smoke`` and ``default`` run shapes × YCSB-B / C /
WR × {reference pipeline, ``fast_datapath``} this suite runs it once
(seed 11, 256 B values — ``harness.RUN_SEED`` / ``RUN_VALUE_SIZE``) and
asserts

* ``figure_digest`` and ``events`` equal ``tests/golden_figures.json``
  under this interpreter's ``major.minor`` (float repr differs across
  versions; another interpreter skips with a message).  ``events`` is
  as deterministic as the figures, so an events/op regression fails
  here bit-exactly;
* no row reports a failed op;
* ``fast_datapath`` selects the fused GET and nothing else: a workload
  without GETs (WR) is the same run with the flag on and off;
* on the ``default`` rows the fused GET reports the reference
  pipeline's latency within ±3 % mean / ±8 % p99.

A change that moves a figure on purpose pastes the block the failing
assertion prints over the same block of ``golden_figures.json`` and
says why in its description.
"""

import inspect
import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import (RUN_SEED, RUN_SHAPES, RUN_VALUE_SIZE,
                                 build_cluster, measure_run_phase)
from repro.core.jbof import LeedOptions
from repro.lint import sanitize
from repro.workloads.ycsb import WORKLOADS as YCSB_MIXES
from repro.workloads.ycsb import YCSBWorkload

GOLDEN_PATH = Path(__file__).parent / "golden_figures.json"
PY_VERSION = "%d.%d" % sys.version_info[:2]

SHAPES = ("smoke", "default")
WORKLOADS = ("B", "C", "WR")
CELLS = [(shape, workload) for shape in SHAPES for workload in WORKLOADS]

#: Fused ÷ reference latency bound (ROADMAP item 1a).  Held on the
#: ``default`` rows only: at smoke's 600 ops the p99 is the 6th-largest
#: sample, and one reordered tail op reads as 1.093 on B while the
#: mean moves 1.024 — those rows are pinned by digest instead.
MEAN_BOUND = 0.03
P99_BOUND = 0.08

#: (shape, workload) -> {"reference": row, "fast_datapath": row}; each
#: cell simulates once for the module.
_ROWS = {}


def rows_for(shape, workload):
    if (shape, workload) not in _ROWS:
        spec = RUN_SHAPES[shape]
        rows = {}
        for mode, options in (("reference", None),
                              ("fast_datapath",
                               LeedOptions(fast_datapath=True))):
            cluster = build_cluster(
                "leed", value_size=RUN_VALUE_SIZE, seed=RUN_SEED,
                options=options, num_nodes=spec["num_jbofs"],
                num_clients=spec["num_clients"])
            load = YCSBWorkload(workload, num_records=spec["records"],
                                seed=RUN_SEED, value_size=RUN_VALUE_SIZE)
            rows[mode] = measure_run_phase(cluster, load, spec["ops"],
                                           spec["concurrency"])
        _ROWS[shape, workload] = rows
    return _ROWS[shape, workload]


@pytest.mark.parametrize("shape, workload", CELLS)
def test_rows_match_golden(shape, workload):
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle).get(PY_VERSION)
    if golden is None:
        pytest.skip("no golden figures for python %s (add a %r block to "
                    "%s)" % (PY_VERSION, PY_VERSION, GOLDEN_PATH.name))
    measured = {mode: {"figure_digest": row["figure_digest"],
                       "events": row["events"]}
                for mode, row in rows_for(shape, workload).items()}
    assert measured == golden[shape][workload], (
        "%s/%s moved.  If that is intended, this is the block for "
        "%s[%r][%r]:\n%s"
        % (shape, workload, GOLDEN_PATH.name, PY_VERSION, shape,
           json.dumps({workload: measured}, indent=2)))


@pytest.mark.parametrize("shape, workload", CELLS)
def test_no_failed_op(shape, workload):
    for mode, row in rows_for(shape, workload).items():
        assert row["failed"] == 0, (mode, row["failed_by_status"])


@pytest.mark.parametrize("shape", SHAPES)
def test_no_get_workload_ignores_fast_datapath(shape):
    mix = YCSB_MIXES["WR"]
    assert mix.read_fraction == 0 and mix.rmw_fraction == 0
    rows = rows_for(shape, "WR")
    reference, fused = rows["reference"], rows["fast_datapath"]
    assert fused["figure_digest"] == reference["figure_digest"]
    assert fused["events"] == reference["events"]


@pytest.mark.parametrize("workload", ("B", "C"))
def test_fused_get_within_parity_bound(workload):
    rows = rows_for("default", workload)
    reference, fused = rows["reference"], rows["fast_datapath"]
    mean = fused["mean_latency_us"] / reference["mean_latency_us"]
    p99 = fused["p99_latency_us"] / reference["p99_latency_us"]
    assert abs(mean - 1.0) <= MEAN_BOUND, "mean latency ratio %.4f" % mean
    assert abs(p99 - 1.0) <= P99_BOUND, "p99 latency ratio %.4f" % p99


def test_run_shapes_is_the_only_run_shape_table():
    """The sanitizer's default shape is read from ``RUN_SHAPES``, not
    spelled again."""
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(sanitize.run_probe).parameters.items()
                if parameter.default is not parameter.empty}
    assert defaults == dict(RUN_SHAPES["smoke"], value_size=RUN_VALUE_SIZE,
                            seed=RUN_SEED)
