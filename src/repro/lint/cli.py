"""Command-line front end for simlint.

Usage::

    python -m repro.lint [paths...]     # default: src
    python -m repro.lint --list-rules

Exit codes: 0 clean, 1 findings, 2 parse/read errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.lint.engine import run, to_text


def main(argv: Optional[Sequence[str]] = None) -> int:
    from repro.lint.rules import catalog_range, default_rules

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Simulation-safety static analysis (rules %s; see "
                    "docs/static-analysis.md)." % catalog_range())
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint (default: src)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in default_rules():
            print("%s  %s" % (rule.rule_id, rule.title))
        return 0
    report = run(args.paths or ["src"])
    print(to_text(report))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
