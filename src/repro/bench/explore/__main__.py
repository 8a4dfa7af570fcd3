"""Design-space autotuner CLI.

Usage::

    PYTHONPATH=src python -m repro.bench.explore --budget 12 --seed 0
    PYTHONPATH=src python -m repro.bench.explore --budget 8 \\
        --check-improves-default --markdown docs/explore_results.md

Searches a declarative config space with a deterministic strategy for
the best requests/Joule and writes ``BENCH_explore.json`` — best
config, full trajectory + digest, Pareto front, cache stats.
Same ``--seed`` ⇒ same proposals, same best config, same trajectory
digest; the memo cache (``--cache``) makes resumed searches free.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.bench.harness import RUN_SHAPES

from .fleet import FleetRunner
from .report import build_report, write_markdown
from .space import SPACES
from .strategies import STRATEGIES, Evaluator, FitnessSpec, run_search

WORKLOAD_CHOICES = ("A", "B", "C", "WR")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.explore", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--space", choices=tuple(sorted(SPACES)),
                        default="leed",
                        help="config space to search (default leed)")
    parser.add_argument("--strategy", choices=tuple(sorted(STRATEGIES)),
                        default="hill",
                        help="search strategy (default hill: "
                             "successive-halving hill-climb)")
    parser.add_argument("--budget", type=int, default=12,
                        help="evaluation budget, cached or live "
                             "(default 12); the default-config "
                             "reference trial is free")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for both the simulations and the "
                             "search's RNG streams (default 0)")
    parser.add_argument("--scale", choices=tuple(sorted(RUN_SHAPES)),
                        default="small",
                        help="trial run shape, a key of "
                             "repro.bench.harness.RUN_SHAPES "
                             "(default small)")
    parser.add_argument("--workload", choices=WORKLOAD_CHOICES,
                        default="B", help="YCSB workload (default B)")
    parser.add_argument("--value-size", type=int, default=256,
                        help="value size in bytes (default 256)")
    parser.add_argument("--slo-p99-us", type=float, default=2000.0,
                        help="feasibility cap on p99 latency in µs "
                             "(default 2000; 0 disables)")
    parser.add_argument("--fleet", type=int, default=0,
                        help="trial process-pool width (default 0 = "
                             "run trials in-process; pointless above "
                             "the CPU count)")
    parser.add_argument("--cache", default=None, metavar="PATH",
                        help="memo-cache JSON path (default: no "
                             "on-disk cache; in-memory only)")
    parser.add_argument("--output", default="BENCH_explore.json",
                        help="report path (default BENCH_explore.json)")
    parser.add_argument("--markdown", default=None, metavar="PATH",
                        help="also write a markdown summary here")
    parser.add_argument("--check-improves-default", action="store_true",
                        help="exit nonzero unless the best config is "
                             "at least as fit as the default")
    args = parser.parse_args(argv)
    if args.budget < 1:
        parser.error("--budget must be >= 1")

    space = SPACES[args.space]()
    space.validate()
    fitness = FitnessSpec(slo_p99_us=args.slo_p99_us)
    runner = FleetRunner(cache_path=args.cache, fleet=args.fleet)
    evaluator = Evaluator(space, runner, fitness, args.scale,
                          args.workload, args.value_size, args.seed,
                          args.budget)
    print("explore: space=%s strategy=%s budget=%d seed=%d scale=%s "
          "workload=%s slo_p99_us=%g fleet=%d"
          % (args.space, args.strategy, args.budget, args.seed,
             args.scale, args.workload, args.slo_p99_us, args.fleet))
    outcome = run_search(args.strategy, space, evaluator, args.seed)
    report = build_report(space, evaluator, fitness, outcome,
                          strategy=args.strategy, seed=args.seed,
                          budget=args.budget, scale=args.scale,
                          workload=args.workload,
                          value_size=args.value_size, fleet=args.fleet,
                          cpu_count=os.cpu_count())

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.output)
    if args.markdown:
        write_markdown(report, args.markdown)
        print("wrote %s" % args.markdown)

    for record in evaluator.trials:
        metrics = record["metrics"]
        print("  trial %2d %-9s f=%.2f %s rpj=%.1f kqps=%.2f "
              "p99=%.1fus wall=%.0f/s%s"
              % (record["trial"], record["stage"],
                 record["ops_fraction"],
                 "ok " if record["feasible"] else "infeasible",
                 metrics["requests_per_joule"],
                 metrics["sim_ops_per_sec"] / 1000.0,
                 metrics["p99_latency_us"], metrics["wall_ops_per_sec"],
                 " (cached)" if metrics.get("cached") else ""))
    best, default = report["best"], report["default"]
    if best:
        print("best: %s" % json.dumps(best["point"], sort_keys=True))
    if report["improvement"]:
        imp = report["improvement"]
        print("%s: default %.1f -> best %.1f (%.2fx)"
              % (imp["metric"], imp["default"], imp["best"],
                 imp["ratio"] or 0.0))
    print("trajectory digest: %s (%d live trials, %d cache hits)"
          % (report["trajectory_digest"], report["live_trials"],
             report["cache_hits"]))

    if args.check_improves_default and best and default:
        if tuple(best["fitness"]) < tuple(default["fitness"]):
            print("EXPLORE CHECK FAILED: best config %s is less fit "
                  "than the default" % best["point"], file=sys.stderr)
            return 1
        print("explore check passed: best >= default on "
              "(feasible, rpj, kqps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
