"""Self-tests of the benchmark (``python -m pytest leedbench/tests``).

Not collected by the tier-1 suite (``testpaths = ["tests"]``).  The
simulation-backed tests share a handful of ``--quick`` child repeats of
``ycsb_b_fused`` (~2 s each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import layers  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "ycsb_b_fused"


def child(mode: str, seed: int = 11, hashseed: str = "0") -> dict:
    """One --quick child repeat under a given PYTHONHASHSEED."""
    previous = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = hashseed
    try:
        return timing.launch_repeat({"workload": WORKLOAD, "seed": seed,
                                     "mode": mode, "quick": True})
    finally:
        if previous is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = previous


@pytest.fixture(scope="module")
def timed():
    return child("timed")


@pytest.fixture(scope="module")
def host_trace():
    return child("host_trace")


# -- exactness -----------------------------------------------------------------

def test_counts_and_sim_figures_repeat_exactly(timed):
    again = child("timed", hashseed="77")
    assert again["digest"] == timed["digest"]
    assert again["events"] == timed["events"]
    assert again["sim"] == timed["sim"]
    assert again["counters"] == timed["counters"]
    assert not timed["problems"] and timed["failed"] == 0


def test_python_call_counts_repeat_exactly(host_trace):
    again = child("host_trace", hashseed="77")
    assert again["fold"]["total_calls"] == host_trace["fold"]["total_calls"]
    assert again["fold"]["calls"] == host_trace["fold"]["calls"]


def test_sliced_and_unsliced_runs_give_the_same_digest(timed, host_trace):
    assert len(timed["clock"]["phases"]["timed"]["units"]) > 1
    assert len(host_trace["clock"]["phases"]["timed"]["units"]) == 1
    assert host_trace["digest"] == timed["digest"]


def test_a_different_seed_changes_the_digest(timed):
    assert child("timed", seed=12)["digest"] != timed["digest"]


# -- layer folds ---------------------------------------------------------------

def test_fold_shares_sum_to_100(host_trace):
    fold = host_trace["fold"]
    assert sum(fold["share_pct"].values()) == pytest.approx(100.0, abs=0.1)
    assert sum(fold["calls"].values()) == pytest.approx(fold["total_calls"])
    assert fold["share_pct"]["sim"] > 5.0
    assert fold["edges"]["core.client->net"]["calls"] > 0


def test_layer_of_paths():
    assert layers.layer_of("/x/src/repro/sim/core.py") == "sim"
    assert layers.layer_of("/x/src/repro/core/replication/chain.py") \
        == "core.replication"
    assert layers.layer_of("/x/src/repro/core/wal.py") == "core.replication"
    assert layers.layer_of("/x/src/repro/core/analysis.py") == "other"
    assert layers.layer_of(os.path.join(BENCH_DIR, "workloads.py")) == "bench"
    assert layers.layer_of("~") is None
    assert layers.layer_of("/usr/lib/python3.11/heapq.py") is None


def test_builtins_are_charged_to_their_callers():
    sim_fn = ("/x/src/repro/sim/core.py", 1, "run")
    net_fn = ("/x/src/repro/net/rpc.py", 1, "call")
    builtin = ("~", 0, "<built-in method heappush>")
    stats = {
        sim_fn: (1, 1, 1.0, 5.0, {}),
        net_fn: (1, 1, 2.0, 3.0, {sim_fn: (1, 1, 2.0, 3.0)}),
        builtin: (4, 4, 1.0, 1.0, {sim_fn: (3, 3, 0.75, 0.75),
                                   net_fn: (1, 1, 0.25, 0.25)}),
    }
    fold = layers.fold_profile(stats)
    assert fold["self_s"]["sim"] == pytest.approx(1.75)
    assert fold["self_s"]["net"] == pytest.approx(2.25)
    assert fold["calls"]["sim"] == pytest.approx(4)
    assert fold["calls"]["net"] == pytest.approx(2)
    assert fold["edges"] == {"sim->net": {"calls": 1, "inclusive_s": 3.0}}


def span(span_id, parent_id, name, begin, end, trace_id=1):
    return SimpleNamespace(trace_id=trace_id, span_id=span_id,
                           parent_id=parent_id, name=name,
                           begin_us=begin, end_us=end)


def test_union_self_time_is_never_negative():
    # Two children overlap (chain fan-out) and one overhangs its parent:
    # a plain sum of child durations (6 + 6 + 4 = 16) exceeds the
    # parent's 10 µs.
    spans = [span(1, None, "client.put", 100.0, 110.0),
             span(2, 1, "rpc.kv", 101.0, 107.0),
             span(3, 1, "rpc.kv", 103.0, 109.0),
             span(4, 1, "rpc.kv", 108.0, 112.0),
             span(5, None, "client.get", 10.0, 20.0, trace_id=2),
             span(6, None, "client.get", 120.0, None, trace_id=3)]
    fold = layers.fold_spans(spans, since_us=50.0)
    assert fold["roots"] == 1
    assert fold["self_us"]["client.put"] == pytest.approx(1.0)
    assert fold["self_us"]["rpc.kv"] == pytest.approx(16.0)
    assert "client.get" not in fold["self_us"]


def test_traced_run_self_times_are_non_negative():
    traced = child("sim_trace")
    assert traced["spans"]["roots"] > 0
    assert all(value >= 0.0 for value in traced["spans"]["self_us"].values())
    assert any(name.startswith("ssd.") for name in traced["spans"]["self_us"])


# -- correctness checks --------------------------------------------------------

def test_read_back_catches_a_corrupted_ledger():
    ledger = workloads.Ledger()
    ledger.loaded(b"k1", b"v0")
    ledger.loaded(b"k2", b"w0")
    ledger.put_done(b"k1", b"v1", 10.0, 20.0, ok=True)
    ledger.put_done(b"k1", b"v2", 30.0, 40.0, ok=True)
    observed = {b"k1": ("ok", b"v2"), b"k2": ("ok", b"w0")}
    assert ledger.mismatches(observed) == []
    # v1 finished before v2 began: it can no longer be the survivor.
    assert ledger.mismatches({b"k1": ("ok", b"v1")})
    ledger.acked[b"k2"][-1] = (b"corrupt", 0.0, 0.0)
    assert len(ledger.mismatches(observed)) == 1
    assert ledger.mismatches({b"k1": ("not_found", None)})


def test_overlapping_puts_accept_either_survivor():
    ledger = workloads.Ledger()
    ledger.put_done(b"k", b"a", 10.0, 25.0, ok=True)
    ledger.put_done(b"k", b"b", 20.0, 30.0, ok=True)
    assert ledger.mismatches({b"k": ("ok", b"a")}) == []
    assert ledger.mismatches({b"k": ("ok", b"b")}) == []
    ledger.put_done(b"k", b"c", 22.0, 35.0, ok=False)
    assert b"k" not in ledger.sample_keys(seed=1)


def test_a_vanished_counter_is_reported_missing_not_zero():
    reader = probes._Reader()
    stats = SimpleNamespace(reads_completed=3)
    reader.add("hw.ssd_reads", [stats], lambda s: s.reads_completed)
    reader.add("hw.ssd_writes", [stats], lambda s: s.writes_completed)
    assert reader.values == {"hw.ssd_reads": 3}
    assert len(reader.missing) == 1 and "hw.ssd_writes" in reader.missing[0]
    assert probes.delta({"a": 1, "b.gauge": 5}, {"a": 4, "b.gauge": 7}) \
        == {"a": 3, "b.gauge": 7}


# -- timing --------------------------------------------------------------------

def test_calibrator_expresses_segments_in_kernel_units():
    clock = timing.Calibrator()
    clock.kernel_s = [0.010]
    clock.segments["timed"] = [(0.5, 0.010, 0.020), (0.3, 0.020, 0.020)]
    assert clock.raw_s("timed") == pytest.approx(0.8)
    assert clock.units("timed") == pytest.approx([0.5 / 0.015, 0.3 / 0.020])


def test_steady_units_takes_the_median_segment_by_segment():
    # A burst hits segment 0 of repeat 1 and segment 2 of repeat 3; the
    # median of the totals (14, 6, 15) would keep a burst, this does not.
    repeats = [[10.0, 2.0, 2.0], [2.0, 2.0, 2.0], [2.0, 2.0, 11.0]]
    assert timing.steady_units(repeats) == pytest.approx(6.0)
    assert timing.steady_units([[1.0, 2.0]]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        timing.steady_units([[1.0, 2.0], [1.0]])


def test_quartile_spread_matches_the_contract():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert timing.quartile_spread(values) == pytest.approx(
        (17.25 - 11.75) / 14.5)
    assert timing.quartile_spread([5.0]) == 0.0


# -- the contract --------------------------------------------------------------

def test_benchmark_json_matches_the_tables():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [(w["name"], w["why"]) for w in declared["workloads"]] == [
        (spec.name, spec.why) for spec in workloads.SPECS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in declared["workloads"])
    assert any(m["name"] == "setup_s" for m in declared["end_to_end"])


def test_quick_run_prints_the_contract_line():
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         WORKLOAD, "--quick", "--trace", "0", "--seed", "3"],
        stdout=subprocess.PIPE, cwd=REPO_ROOT, check=True, timeout=120)
    line = json.loads(completed.stdout.decode().strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [name for name, _, _, _ in run.END_TO_END]
    assert all(entry["value"] > 0 for entry in line["metrics"].values())


def test_run_fails_without_the_repository(tmp_path):
    shutil.copytree(BENCH_DIR, str(tmp_path / "leedbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), str(tmp_path))
    completed = subprocess.run(
        [sys.executable, "leedbench/run.py", "--workload", WORKLOAD,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=str(tmp_path),
        timeout=60)
    assert completed.returncode != 0
    assert completed.stdout.decode().strip() == ""
