"""Command-line entry points for the scenario library.

::

    python -m repro.scenarios list
    python -m repro.scenarios run failure_burst --scale smoke
    python -m repro.scenarios run all --output BENCH_scenarios.json
    python -m repro.scenarios golden --output tests/golden_scenarios.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from typing import List, Optional

from repro.core.protocol import ReadPolicy
from repro.core.replication import protocol_names
from repro.scenarios.dsl import SCALES, build_scenario, scenario_names
from repro.scenarios.runner import canonical_json, run_scenario


def _resolve_names(name: str) -> List[str]:
    if name == "all":
        return list(scenario_names())
    if name not in scenario_names():
        raise SystemExit("unknown scenario %r; have: %s, all"
                         % (name, ", ".join(scenario_names())))
    return [name]


def _print_summary(record: dict) -> None:
    totals = record["totals"]
    invariants = record["invariants"]
    print("%-16s scale=%-6s seed=%-3d proto=%-5s avail=%.4f p99=%8.1fus "
          "lost_acked=%d energy/op=%.2fuJ" % (
              record["scenario"], record["scale"], record["seed"],
              record["protocol"], totals["availability"], totals["p99_us"],
              invariants["lost_acked_writes"], totals["energy_per_op_uj"]))
    for recovery in record["recovery"]["failover"]:
        print("  failover %-10s recovery=%.1fus"
              % (recovery["address"], recovery["recovery_us"]))
    for blackout in record["recovery"]["power"]:
        wal = blackout["report"].get("wal") or {}
        print("  blackout jbof%d outage=%.0fus scan=%.1fus wal_replayed=%s"
              % (blackout["jbof"], blackout["outage_us"],
                 blackout["report"]["scan_duration_us"],
                 wal.get("replayed", 0)))


def cmd_list(_args) -> int:
    for name in scenario_names():
        scenario = build_scenario(name)
        print("%-16s %s" % (name, scenario.description))
        for phase in scenario.phases:
            marks = ", ".join(i.action for i in phase.injections)
            print("    %-20s x%-4g %s" % (phase.name, phase.duration,
                                          ("[%s]" % marks) if marks else ""))
    return 0


def cmd_run(args) -> int:
    records = []
    names = _resolve_names(args.name)
    for name in names:
        record = run_scenario(
            name, scale=args.scale, seed=args.seed,
            replication_protocol=args.protocol,
            read_policy=ReadPolicy.TAIL if args.no_crrs else None,
            trace_sample_interval=16 if args.trace else 0)
        tracer = record.pop("_tracer", None)
        if args.trace and tracer is not None:
            trace_path = args.trace
            if len(names) > 1:
                trace_path = "%s.%s.json" % (
                    trace_path.removesuffix(".json"), name)
            with open(trace_path, "w") as handle:
                handle.write(tracer.to_json())
            print("wrote %s" % trace_path)
        _print_summary(record)
        records.append(record)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(canonical_json(records))
        print("wrote %s (%d records)" % (args.output, len(records)))
    failed = sum(r["invariants"]["lost_acked_writes"] for r in records)
    if failed:
        print("INVARIANT VIOLATION: %d lost acked writes" % failed,
              file=sys.stderr)
        return 1
    return 0


def cmd_golden(args) -> int:
    """Regenerate the golden digest file the regression suite checks.

    Digests are keyed by python minor version (hash randomization is
    irrelevant — digests derive from sorted-key JSON — but float repr
    and dict iteration guarantees differ across majors, so goldens
    are per-version; the suite skips versions with no entry).
    """
    version = "%d.%d" % sys.version_info[:2]
    try:
        with open(args.output) as handle:
            golden = json.load(handle)
    except (IOError, OSError, ValueError):
        golden = {}
    entry = golden.setdefault(version, {})
    entry["_meta"] = {"scale": args.scale, "seed": args.seed,
                      "implementation": platform.python_implementation()}
    for name in scenario_names():
        record = run_scenario(name, scale=args.scale, seed=args.seed)
        entry[name] = record["digests"]
        _print_summary(record)
    with open(args.output, "w") as handle:
        json.dump(golden, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote %s [python %s]" % (args.output, version))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="LEED production-scenario library")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="catalog of scenarios").set_defaults(
        func=cmd_list)

    run_parser = sub.add_parser("run", help="run scenario(s)")
    run_parser.add_argument("name", help="scenario name, or 'all'")
    run_parser.add_argument("--scale", default="smoke",
                            choices=sorted(SCALES))
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--protocol", default=None,
                            choices=protocol_names(),
                            help="replication protocol override")
    run_parser.add_argument("--no-crrs", action="store_true",
                            help="read at the chain tail only "
                                 "(ReadPolicy.TAIL) instead of CRRS")
    run_parser.add_argument("--output", default=None, metavar="PATH",
                            help="write BENCH_scenarios.json here")
    run_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a Chrome trace here")
    run_parser.set_defaults(func=cmd_run)

    golden_parser = sub.add_parser(
        "golden", help="regenerate tests/golden_scenarios.json")
    golden_parser.add_argument("--scale", default="smoke",
                               choices=sorted(SCALES))
    golden_parser.add_argument("--seed", type=int, default=0)
    golden_parser.add_argument("--output",
                               default="tests/golden_scenarios.json")
    golden_parser.set_defaults(func=cmd_golden)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)
