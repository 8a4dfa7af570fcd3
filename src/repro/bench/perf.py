"""Wall-clock perf regression harness for the simulator datapath.

Usage::

    PYTHONPATH=src python -m repro.bench.perf            # full run
    PYTHONPATH=src python -m repro.bench.perf --smoke    # CI-sized run
    PYTHONPATH=src python -m repro.bench.perf --check    # fail on regression
    PYTHONPATH=src python -m repro.bench.perf --scale large
    PYTHONPATH=src python -m repro.bench.perf --rebaseline

Runs fixed-seed YCSB-B / YCSB-C / write-heavy (WR) workloads against a
quick-scale LEED cluster twice per trial: once on the digest-stable
reference datapath and once with ``LeedOptions(fast_datapath=True)``
(the fused GET).  Records wall-clock ops/sec, dispatched events/sec,
and sim-time latency summaries into ``BENCH_perf.json``.

Every row carries ``figure_digest`` (a hash of its sim-derived
metrics), so two commits or two machines can be checked for having
simulated the same thing before their wall-clock numbers are compared.
``fast_datapath`` changes only how GETs are served, so ``--check``
fails when a workload without GETs (WR) hashes differently on its
``fast`` and ``baseline`` rows.

Wall-clock throughput on shared CI machines is noisy (we have observed
+/-35% across back-to-back identical runs), so the harness interleaves
knobs-off and knobs-on trials and reports the best of N for each mode:
best-of is far more stable than mean under external interference, and
interleaving means both modes sample the same machine conditions.  The
frozen numbers in ``perf_baseline.json`` (measured pre-batching) are
reported alongside for cross-commit context, but ``--check`` compares
against them with a generous margin for exactly this reason.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from repro.bench.harness import build_cluster, measure_run_phase
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import WORKLOADS as YCSB_MIXES
from repro.workloads.ycsb import YCSBWorkload

SEED = 11
VALUE_SIZE = 256

#: scale -> run shape.  The ``default`` and ``smoke`` shapes must match
#: ``perf_baseline.json``; ``large`` runs long enough for steady
#: wall-clock numbers and is intentionally absent from the frozen
#: baseline.
#: ``xlarge`` is the rack-scale tier (16 JBOFs, 64 clients, 10^6 keys,
#: 10^5 ops) backing the fig6/fig13-style claims; it runs the ``xlarge``
#: store geometry (64 MB key / 256 MB value rings, 4096 segments) so
#: three replicas of the keyspace fit with compaction headroom, and
#: pins YCSB-B only — the other workloads add hours, not coverage.
SCALES = {
    "default": {"records": 600, "ops": 3000, "concurrency": 24,
                "num_jbofs": 3, "num_clients": 2},
    "smoke": {"records": 300, "ops": 600, "concurrency": 24,
              "num_jbofs": 3, "num_clients": 2},
    "large": {"records": 2000, "ops": 20000, "concurrency": 64,
              "num_jbofs": 4, "num_clients": 8},
    "xlarge": {"records": 1_000_000, "ops": 100_000, "concurrency": 256,
               "num_jbofs": 16, "num_clients": 64, "profile": "xlarge",
               "load_parallelism": 64, "workloads": ("B",)},
}

#: scales captured in perf_baseline.json (``--rebaseline`` rewrites
#: exactly these; ``large`` stays out so the frozen file never churns).
FROZEN_SCALES = ("default", "smoke")

WORKLOADS = ("B", "C", "WR")

#: ``--check`` fails if best knobs-on throughput drops below this
#: fraction of the frozen baseline's knobs-off throughput.  The fast
#: datapath measures ~1.7-2x the baseline, so even a 35% slower
#: machine stays comfortably above 0.7x.
CHECK_FLOOR = 0.7

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")


def fast_options() -> LeedOptions:
    """The knobs-on configuration under test."""
    return LeedOptions(fast_datapath=True)


def run_once(workload_name: str, spec: dict, options) -> dict:
    """One measured closed-loop run; returns a BENCH_perf.json row.

    The row is :func:`repro.bench.harness.measure_run_phase`'s (only
    the run phase is timed — cluster build and YCSB load are setup).
    """
    cluster = build_cluster("leed", scale=spec.get("profile", "quick"),
                            value_size=VALUE_SIZE,
                            seed=SEED, options=options,
                            num_nodes=spec["num_jbofs"],
                            num_clients=spec["num_clients"])
    workload = YCSBWorkload(workload_name, num_records=spec["records"],
                            seed=SEED, value_size=VALUE_SIZE)
    return measure_run_phase(cluster, workload, spec["ops"],
                             spec["concurrency"],
                             load_parallelism=spec.get("load_parallelism", 16))


def scale_workloads(scale: str, requested=None) -> tuple:
    """Workloads to run for ``scale``: the CLI filter if given, else
    the scale's own pin (xlarge runs YCSB-B only), else all three.

    A requested workload the scale does not allow is an error, not a
    silent filter — asking xlarge for WR should fail fast, never
    quietly run B instead.
    """
    allowed = tuple(SCALES[scale].get("workloads", WORKLOADS))
    if requested:
        unknown = [name for name in requested if name not in allowed]
        if unknown:
            raise ValueError(
                "workload(s) %s not available at scale %r "
                "(this scale allows: %s)"
                % (",".join(unknown), scale, ",".join(allowed)))
        return tuple(requested)
    return allowed


def trial_stats(samples: list) -> dict:
    """min/median/stdev across a row's trials, for noise-aware
    comparisons downstream (e.g. explore fitness): best-of-N alone
    hides how wide the machine noise was."""
    return {
        "trials": len(samples),
        "min": round(min(samples), 4),
        "median": round(statistics.median(samples), 4),
        "stdev": round(statistics.stdev(samples), 4)
        if len(samples) > 1 else 0.0,
    }


def measure_scale(scale: str, trials: int, workloads=None) -> dict:
    """Interleaved best-of-N knobs-off vs knobs-on rows per workload."""
    spec = SCALES[scale]
    names = scale_workloads(scale, workloads)
    best = {name: {"baseline": None, "fast": None} for name in names}
    samples = {name: {"baseline": [], "fast": []} for name in names}
    for trial in range(trials):
        for name in names:
            for mode, options in (("baseline", None), ("fast", fast_options())):
                row = run_once(name, spec, options)
                row["trials"] = trials
                samples[name][mode].append(row)
                current = best[name][mode]
                if (current is None
                        or row["wall_ops_per_sec"]
                        > current["wall_ops_per_sec"]):
                    best[name][mode] = row
                print("  trial %d %s %s: %.0f ops/s (%.0f events/s)"
                      % (trial, name, mode, row["wall_ops_per_sec"],
                         row["events_per_sec"]))
    # Variance is attached after the fact so it never leaks into
    # figure_digest (computed inside run_once from sim-derived fields).
    for name in names:
        for mode in ("baseline", "fast"):
            rows = samples[name][mode]
            best[name][mode]["trial_stats"] = {
                "wall_s": trial_stats([r["wall_s"] for r in rows]),
                "wall_ops_per_sec": trial_stats(
                    [r["wall_ops_per_sec"] for r in rows]),
            }
    return best


def load_frozen_baseline() -> dict:
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def summarize(scale: str, best: dict, frozen: dict) -> dict:
    """Attach frozen-baseline numbers, speedups, and latency parity."""
    frozen_rows = frozen.get("scales", {}).get(scale, {})
    report = {}
    for name in best:
        baseline = best[name]["baseline"]
        fast = best[name]["fast"]
        entry = {"baseline": baseline, "fast": fast}
        entry["speedup_vs_measured_baseline"] = round(
            fast["wall_ops_per_sec"] / baseline["wall_ops_per_sec"], 2)
        # Sim-time latency parity: the fast datapath is a wall-clock
        # optimisation and must not inflate *simulated* latencies.
        # Ratios near 1.0 mean the knobs change how fast we simulate,
        # not what we simulate.
        entry["latency_parity"] = {
            "mean_ratio": round(fast["mean_latency_us"]
                                / baseline["mean_latency_us"], 4),
            "p99_ratio": round(fast["p99_latency_us"]
                               / baseline["p99_latency_us"], 4),
        }
        frozen_row = frozen_rows.get(name)
        if frozen_row:
            entry["frozen_baseline_ops_per_sec"] = (
                frozen_row["wall_ops_per_sec"])
            entry["speedup_vs_frozen_baseline"] = round(
                fast["wall_ops_per_sec"] / frozen_row["wall_ops_per_sec"], 2)
        report[name] = entry
    return report


def check_regressions(report: dict) -> list:
    """Rows failing the ``--check`` floor, as human-readable strings."""
    failures = []
    for name, entry in report.items():
        # Failed ops are a correctness signal, so they gate every
        # scale — including ones with no frozen throughput row.
        if entry["fast"]["failed"] or entry["baseline"]["failed"]:
            failures.append("%s: run reported failed operations" % name)
        # fast_datapath only changes how GETs are served: a workload
        # that issues none must simulate identically either way.
        mix = YCSB_MIXES[name]
        if (mix.read_fraction == 0 and mix.rmw_fraction == 0
                and entry["fast"]["figure_digest"]
                != entry["baseline"]["figure_digest"]):
            failures.append(
                "%s: no GETs, yet fast figure_digest %s != baseline %s"
                % (name, entry["fast"]["figure_digest"],
                   entry["baseline"]["figure_digest"]))
        frozen_ops = entry.get("frozen_baseline_ops_per_sec")
        if frozen_ops is None:
            continue
        fast_ops = entry["fast"]["wall_ops_per_sec"]
        if fast_ops < CHECK_FLOOR * frozen_ops:
            failures.append(
                "%s: fast datapath %.0f ops/s is below %.0f%% of the "
                "frozen baseline %.0f ops/s"
                % (name, fast_ops, CHECK_FLOOR * 100, frozen_ops))
    return failures


def rebaseline(trials: int) -> None:
    """Re-measure the knobs-off reference and rewrite perf_baseline.json."""
    scales = {}
    for scale in FROZEN_SCALES:
        spec = SCALES[scale]
        rows = {}
        for name in WORKLOADS:
            best = None
            for _ in range(trials):
                row = run_once(name, spec, None)
                row.pop("events", None)
                row.pop("events_per_sec", None)
                row.pop("events_per_op", None)
                if (best is None
                        or row["wall_ops_per_sec"]
                        > best["wall_ops_per_sec"]):
                    best = row
            rows[name] = best
            print("rebaseline %s %s: %.0f ops/s"
                  % (scale, name, best["wall_ops_per_sec"]))
        scales[scale] = rows
    payload = {
        "note": ("Knobs-off wall-clock baseline for repro.bench.perf. "
                 "Regenerate with: python -m repro.bench.perf --rebaseline "
                 "(only on a machine comparable to CI)."),
        "seed": SEED,
        "value_size": VALUE_SIZE,
        "scales": scales,
    }
    with open(BASELINE_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % BASELINE_PATH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--smoke", action="store_true",
                        help="run the CI-sized smoke scale only "
                             "(alias for --scale smoke)")
    parser.add_argument("--scale", choices=tuple(SCALES), action="append",
                        help="run this scale (repeatable); without it "
                             "(or --smoke) the frozen-baseline scales "
                             "run")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workload filter, e.g. "
                             "'B' or 'B,WR' (default: all the scale "
                             "allows)")
    parser.add_argument("--check", action="store_true",
                        help="exit nonzero if throughput regresses more "
                             "than %d%%%% below the frozen baseline"
                             % round((1 - CHECK_FLOOR) * 100))
    parser.add_argument("--trials", type=int, default=3,
                        help="interleaved trials per mode (default 3); "
                             "best-of is reported")
    parser.add_argument("--output", default="BENCH_perf.json",
                        help="report path (default BENCH_perf.json)")
    parser.add_argument("--rebaseline", action="store_true",
                        help="re-measure the knobs-off baseline and "
                             "rewrite perf_baseline.json")
    args = parser.parse_args(argv)

    workloads = None
    if args.workloads:
        workloads = tuple(name.strip() for name in args.workloads.split(",")
                          if name.strip())
        unknown = [name for name in workloads if name not in WORKLOADS]
        if unknown:
            parser.error("unknown workloads: %s (choose from %s)"
                         % (",".join(unknown), ",".join(WORKLOADS)))

    if args.rebaseline:
        rebaseline(args.trials)
        return 0

    frozen = load_frozen_baseline()
    if args.scale:
        scales = tuple(args.scale)
    elif args.smoke:
        scales = ("smoke",)
    else:
        scales = FROZEN_SCALES
    # Fail before any measurement if a requested workload is not
    # available at one of the requested scales.
    if workloads:
        for scale in scales:
            try:
                scale_workloads(scale, workloads)
            except ValueError as exc:
                parser.error(str(exc))
    report = {
        "seed": SEED,
        "value_size": VALUE_SIZE,
        "trials": args.trials,
        "cpu_count": os.cpu_count(),
        "fast_options": {"fast_datapath": True},
        "scales": {},
    }
    for scale in scales:
        spec = SCALES[scale]
        print("scale %s (%d records, %d ops, %d concurrency, %d jbofs, "
              "%d clients, profile=%s, workloads=%s)"
              % (scale, spec["records"], spec["ops"], spec["concurrency"],
                 spec["num_jbofs"], spec["num_clients"],
                 spec.get("profile", "quick"),
                 ",".join(scale_workloads(scale, workloads))))
        best = measure_scale(scale, args.trials, workloads=workloads)
        report["scales"][scale] = summarize(scale, best, frozen)

    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % args.output)

    for scale, rows in report["scales"].items():
        for name, entry in rows.items():
            print("%s/%s: baseline %.0f ops/s, fast %.0f ops/s "
                  "(%.2fx measured%s), latency parity mean %.3f p99 %.3f"
                  % (scale, name,
                     entry["baseline"]["wall_ops_per_sec"],
                     entry["fast"]["wall_ops_per_sec"],
                     entry["speedup_vs_measured_baseline"],
                     ", %.2fx vs frozen"
                     % entry["speedup_vs_frozen_baseline"]
                     if "speedup_vs_frozen_baseline" in entry else "",
                     entry["latency_parity"]["mean_ratio"],
                     entry["latency_parity"]["p99_ratio"]))

    if args.check:
        failures = []
        for rows in report["scales"].values():
            failures.extend(check_regressions(rows))
        if failures:
            for line in failures:
                print("PERF REGRESSION: %s" % line, file=sys.stderr)
            return 1
        print("perf check passed (floor %.0f%% of frozen baseline)"
              % (CHECK_FLOOR * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
