"""Command-line front end for simlint.

Usage::

    python -m repro.lint [paths...] [--format text|sarif]
    repro-lint src                      # console script
    python -m repro.lint --list-rules
    python -m repro.lint src --select SIM007,SIM008,SIM009

Exit codes: 0 clean, 1 findings, 2 parse/read errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.lint.config import LintConfig
from repro.lint.engine import run, to_text


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.lint.rules import catalog_range, default_rules

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Simulation-safety static analysis (rules %s; see "
                    "docs/static-analysis.md)." % catalog_range())
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=("text", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule ids to run "
                             "(e.g. SIM007,SIM008)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    config = LintConfig()
    if args.list_rules:
        for rule in default_rules(config):
            print("%s  %s" % (rule.rule_id, rule.title))
        return 0

    select = None
    if args.select:
        select = [rule_id for rule_id in args.select.split(",") if rule_id]
    try:
        report = run(args.paths or ["src"], config, select=select)
    except ValueError as exc:
        parser.error(str(exc))

    if args.format == "sarif":
        from repro.lint.sarif import to_sarif
        active = default_rules(config)
        if select:
            wanted = {rule_id.strip().upper() for rule_id in select}
            active = [rule for rule in active if rule.rule_id in wanted]
        rendered = to_sarif(report, active)
    else:
        rendered = to_text(report)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    else:
        print(rendered)
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
