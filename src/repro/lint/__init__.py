"""simlint: simulation-safety static analysis for the reproduction.

A discrete-event reproduction is only credible if a fixed seed yields
a bit-for-bit identical run.  The rules catch RNG, clock, ordering,
layering, shared-state and network-bypass leaks one AST pattern at a
time.  This package provides the rule engine (``repro.lint.engine``),
the generated rule catalog (``repro.lint.rules`` — run
``python -m repro.lint --list-rules`` for the authoritative list), a
text-report CLI, and the dynamic order-dependence sanitizer
(``repro.lint.sanitize``) that permutes same-timestamp scheduling
ties and checks the run's functional outcome stays put.

See ``docs/static-analysis.md`` for the rule catalog, the planted bug
each rule and the sanitizer catch, suppression syntax, and the
sanitizer's invariance contract.
"""

from repro.lint.engine import (
    Finding,
    LintReport,
    ModuleIndex,
    Rule,
    run,
    to_text,
)

__all__ = [
    "Finding",
    "LintReport",
    "ModuleIndex",
    "Rule",
    "run",
    "to_text",
]
