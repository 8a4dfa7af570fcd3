"""simlint: simulation-safety static analysis for the reproduction.

A discrete-event reproduction is only credible if a fixed seed yields
a bit-for-bit identical run.  The per-line rules catch RNG, clock,
ordering, layering, and shared-state leaks; the dataflow rules
(``repro.lint.races``, built on the CFG framework in
``repro.lint.flow``) catch yield-point atomicity races, peer-node
references escaping RPC, and hash-order data reaching digests.
This package provides the AST rule engine (``repro.lint.engine``),
the generated rule catalog (``repro.lint.rules`` — run
``python -m repro.lint --list-rules`` for the authoritative list), a
CLI with text and SARIF output, a runtime
determinism verifier (``repro.lint.determinism``), and the dynamic
order-dependence sanitizer (``repro.lint.sanitize``) that permutes
same-timestamp scheduling ties and checks figure digests stay put.

See ``docs/static-analysis.md`` for the rule catalog, suppression
syntax, and the sanitizer's invariance contract.
"""

from repro.lint.config import LintConfig
from repro.lint.engine import (
    Finding,
    LintReport,
    ModuleIndex,
    Rule,
    run,
    to_text,
)
from repro.lint.sarif import to_sarif

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "ModuleIndex",
    "Rule",
    "run",
    "to_sarif",
    "to_text",
]
