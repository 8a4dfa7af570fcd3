"""Design-space autotuner: determinism, caching, Pareto, validation."""

import json

import pytest

from repro.bench.explore import (ConfigSpace, Dimension, Evaluator,
                                 FitnessSpec, FleetRunner, config_digest,
                                 leed_space, pareto_front, run_search)
from repro.bench.explore.__main__ import main as explore_main
from repro.bench.explore.fleet import make_trial, trial_key

SEED = 11
VALUE_SIZE = 256


def small_search(cache_path=None, seed=3, budget=3, strategy="random",
                 fleet=0):
    """One tiny-scale search with a fresh runner; returns (ev, outcome)."""
    space = leed_space()
    runner = FleetRunner(cache_path=cache_path, fleet=fleet)
    fitness = FitnessSpec(slo_p99_us=2000.0)
    evaluator = Evaluator(space, runner, fitness, "tiny", "B",
                          VALUE_SIZE, SEED, budget)
    outcome = run_search(strategy, space, evaluator, seed)
    return evaluator, outcome


class TestConfigSpace:
    def test_stock_spaces_validate(self):
        space = leed_space()
        space.validate()
        assert space.size() > 1
        # The default point must be inside the space.
        space.check_point(space.default_point())

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            Dimension("x", (1, 2), "nonsense")

    def test_default_outside_values_rejected(self):
        with pytest.raises(ValueError, match="default"):
            Dimension("x", (1, 2), "options", default=3)

    def test_duplicate_dimension_rejected(self):
        dim = Dimension("x", (1, 2), "run")
        with pytest.raises(ValueError, match="duplicate"):
            ConfigSpace([dim, dim])

    def test_unknown_options_field_fails_validation(self):
        space = ConfigSpace([Dimension("no_such_option", (1, 2))])
        with pytest.raises(TypeError, match="LeedOptions"):
            space.validate()

    def test_unknown_cluster_field_fails_validation(self):
        space = ConfigSpace(
            [Dimension("no_such_field", (1, 2), "cluster")])
        with pytest.raises(TypeError):
            space.validate()

    def test_unknown_run_field_fails_validation(self):
        space = ConfigSpace([Dimension("warpdrive", (1, 2), "run")])
        with pytest.raises(ValueError, match="warpdrive"):
            space.validate()

    def test_check_point_errors(self):
        space = leed_space()
        point = space.default_point()
        with pytest.raises(ValueError, match="unknown dimension"):
            space.check_point(dict(point, bogus=1))
        missing = dict(point)
        del missing["platform"]
        with pytest.raises(ValueError, match="missing"):
            space.check_point(missing)
        with pytest.raises(ValueError, match="allowed values"):
            space.check_point(dict(point, token_capacity=999))
        # Dimensions deleted with the paths they tuned (multi-drain,
        # RPC coalescing), and the fused GET — a model-error switch,
        # not a design choice — are unknown, not silently ignored.
        assert len(space.dimensions) == 5 and len(list(space.grid())) == 162
        for removed in ("admission_batch", "rpc_coalesce_limit",
                        "fast_datapath"):
            with pytest.raises(ValueError, match="unknown dimension"):
                space.check_point(dict(point, **{removed: 8}))

    def test_neighbors_step_one_dimension(self):
        space = leed_space()
        point = space.default_point()
        for neighbor in space.neighbors(point):
            diffs = [k for k in point if point[k] != neighbor[k]]
            assert len(diffs) == 1

    def test_grid_is_exhaustive_and_ordered(self):
        space = ConfigSpace([Dimension("a", (1, 2), "run"),
                             Dimension("b", ("x", "y"), "run")])
        assert list(space.grid()) == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"}]


class TestFitness:
    def test_slo_gates_feasibility(self):
        spec = FitnessSpec(slo_p99_us=100.0)
        row = {"failed": 0, "p99_latency_us": 150.0,
               "requests_per_joule": 5.0, "wall_ops_per_sec": 1.0,
               "sim_ops_per_sec": 1000.0}
        assert not spec.feasible(row)
        assert spec.fitness(row)[0] == 0
        row["p99_latency_us"] = 50.0
        assert spec.feasible(row)
        row["failed"] = 2
        assert not spec.feasible(row)

    def test_feasibility_dominates_primary(self):
        spec = FitnessSpec(slo_p99_us=100.0)
        fast_infeasible = {"failed": 0, "p99_latency_us": 500.0,
                           "requests_per_joule": 99.0,
                           "wall_ops_per_sec": 9.0,
                           "sim_ops_per_sec": 9000.0}
        slow_feasible = {"failed": 0, "p99_latency_us": 50.0,
                         "requests_per_joule": 1.0,
                         "wall_ops_per_sec": 1.0,
                         "sim_ops_per_sec": 100.0}
        assert (spec.fitness(slow_feasible)
                > spec.fitness(fast_infeasible))

    def test_slo_is_the_only_feasibility_knob(self):
        """Trials are closed-loop YCSB rows; there is no availability
        to gate on."""
        with pytest.raises(TypeError):
            FitnessSpec(min_availability=0.5)


def synthetic(rpj, kqps, p99, failed=0, fraction=1.0, tag=None):
    """A fake full-fidelity trial record for the analytic Pareto test."""
    point = {"tag": tag if tag is not None
             else "%s-%s-%s" % (rpj, kqps, p99)}
    return {
        "trial": 0, "stage": "synthetic", "ops_fraction": fraction,
        "point": point, "point_digest": config_digest(point),
        "feasible": True, "fitness": [1, rpj, kqps],
        "metrics": {"requests_per_joule": rpj,
                    "sim_ops_per_sec": kqps * 1000.0,
                    "p99_latency_us": p99, "failed": failed,
                    "figure_digest": "f"},
    }


class TestPareto:
    def test_analytic_front(self):
        """Known dominance structure on a hand-built model."""
        a = synthetic(10.0, 5.0, 100.0)   # front: best rpj
        b = synthetic(8.0, 9.0, 100.0)    # front: best kqps
        c = synthetic(9.0, 4.0, 50.0)     # front: best p99
        d = synthetic(7.0, 4.0, 120.0)    # dominated by a and b
        e = synthetic(10.0, 5.0, 110.0)   # dominated by a (worse p99)
        front = pareto_front([d, e, c, b, a])
        assert [r["point_digest"] for r in front] == [
            a["point_digest"], c["point_digest"], b["point_digest"]]

    def test_failed_and_low_fidelity_excluded(self):
        good = synthetic(1.0, 1.0, 10.0)
        failed = synthetic(99.0, 99.0, 1.0, failed=3)
        screen = synthetic(99.0, 99.0, 1.0, fraction=0.25)
        front = pareto_front([good, failed, screen])
        assert [r["point_digest"] for r in front] == [
            good["point_digest"]]

    def test_duplicate_points_collapse(self):
        a1 = synthetic(5.0, 5.0, 10.0, tag="same")
        a2 = synthetic(6.0, 6.0, 9.0, tag="same")
        front = pareto_front([a1, a2])
        assert len(front) == 1


class TestSearchDeterminism:
    def test_same_seed_same_best_and_trajectory(self):
        ev1, outcome1 = small_search(seed=3)
        ev2, outcome2 = small_search(seed=3)
        assert outcome1["best"]["point"] == outcome2["best"]["point"]
        assert ev1.trajectory_digest() == ev2.trajectory_digest()
        assert len(ev1.trials) == len(ev2.trials)

    def test_different_seed_different_trajectory(self):
        ev1, _ = small_search(seed=3)
        ev2, _ = small_search(seed=4)
        assert ev1.trajectory_digest() != ev2.trajectory_digest()

    def test_budget_is_respected(self):
        ev, _ = small_search(seed=3, budget=2)
        # default trial is budget-free; the rest charge.
        charged = [r for r in ev.trials if r["stage"] != "default"]
        assert len(charged) == 2
        assert ev.spent == 2


class TestMemoCache:
    def test_resume_runs_zero_live_trials(self, tmp_path):
        cache = str(tmp_path / "cache.json")
        ev1, outcome1 = small_search(cache_path=cache, seed=3)
        assert ev1.runner.live_trials == len(ev1.trials)
        ev2, outcome2 = small_search(cache_path=cache, seed=3)
        assert ev2.runner.live_trials == 0
        assert ev2.runner.cache_hits == len(ev2.trials)
        assert outcome2["best"]["point"] == outcome1["best"]["point"]
        assert ev2.trajectory_digest() == ev1.trajectory_digest()

    def test_trial_key_covers_run_shape(self):
        space = leed_space()
        point = space.default_point()
        base = make_trial(point, space.overrides(point), "tiny", "B",
                          VALUE_SIZE, SEED)
        frac = make_trial(point, space.overrides(point), "tiny", "B",
                          VALUE_SIZE, SEED, ops_fraction=0.5)
        seed = make_trial(point, space.overrides(point), "tiny", "B",
                          VALUE_SIZE, SEED + 1)
        keys = {trial_key(base), trial_key(frac), trial_key(seed)}
        assert len(keys) == 3


class TestCLI:
    def test_end_to_end_report(self, tmp_path):
        output = tmp_path / "BENCH_explore.json"
        markdown = tmp_path / "explore.md"
        rc = explore_main([
            "--budget", "2", "--seed", "5", "--scale", "tiny",
            "--strategy", "random", "--output", str(output),
            "--markdown", str(markdown), "--check-improves-default"])
        assert rc == 0
        report = json.loads(output.read_text())
        assert report["best"] is not None
        assert report["default"]["stage"] == "default"
        assert report["evaluations"] == 2
        assert report["trajectory_digest"]
        assert report["cpu_count"] >= 1
        assert all("figure_digest" in r["metrics"]
                   for r in report["trajectory"])
        assert report["pareto"], "feasible trials must yield a front"
        text = markdown.read_text()
        assert "Best configuration" in text
        assert report["trajectory_digest"] in text

    def test_budget_validation(self, capsys):
        with pytest.raises(SystemExit):
            explore_main(["--budget", "0"])
