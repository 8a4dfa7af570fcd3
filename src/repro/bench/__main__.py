"""Command-line runner for the paper experiments.

Usage::

    python -m repro.bench list
    python -m repro.bench run fig7
    python -m repro.bench run table3 --scale full
    python -m repro.bench run all --scale quick

Each experiment prints its :class:`ExperimentResult` table — the rows
the corresponding paper table/figure reports — and one line per claim
of :mod:`repro.bench.paper` it must meet: the measured value, the
bound and the margin to it.  The exit status is non-zero, and the last
line names the claims, when any claim fails.  The bounds were set at
the quick scale; at ``--scale full`` five claims fail (EXPERIMENTS.md
lists them).
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from typing import List

from repro.bench.paper import EXPERIMENTS, evaluate


def run_experiment(name: str, scale: str) -> List[str]:
    """Run, print and check one experiment; return its failed claims."""
    module = importlib.import_module("repro.bench.experiments." + name)
    started = time.time()
    result = module.run(scale)
    elapsed = time.time() - started
    print(result)
    failed = []
    for verdict in evaluate(name, result):
        print(verdict)
        if not verdict.passed:
            failed.append("%s %s" % (name, verdict.claim.name))
    print("(%s scale, %.1f s wall time)" % (scale, elapsed))
    print()
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the LEED paper's tables and figures and "
                    "check the paper's claims on them.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiment(s)")
    run_parser.add_argument("experiment",
                            choices=sorted(EXPERIMENTS) + ["all"])
    run_parser.add_argument("--scale", choices=("quick", "full"),
                            default="quick",
                            help="the claim bounds were set at quick (the "
                                 "default); five claims fail at full")
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in EXPERIMENTS)
        for name in sorted(EXPERIMENTS):
            print("%-*s  %s" % (width, name, EXPERIMENTS[name].description))
        return 0

    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    failed = []
    for name in names:
        failed += run_experiment(name, args.scale)
    if failed:
        print("%d claim(s) failed: %s" % (len(failed), ", ".join(failed)))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
