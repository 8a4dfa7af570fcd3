"""The simlint rule engine.

A :class:`Rule` inspects one parsed module and yields
:class:`Finding` records.  The engine walks the requested paths,
parses each Python file exactly once into a :class:`ModuleSource`
carrying a shared :class:`ModuleIndex` (a one-pass node index every
rule draws from instead of re-walking the tree), runs every rule over
it, filters per-line suppressions (``# simlint: ignore[SIM001]``),
and renders the surviving findings as text.

Exit codes: 0 clean, 1 findings, 2 files that failed to parse.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterator, List, Optional, Sequence

#: ``# simlint: ignore`` suppresses every rule on the line;
#: ``# simlint: ignore[SIM001, SIM003]`` only the listed rules.
SUPPRESS_RE = re.compile(
    r"#\s*simlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.rule, self.message)


class ModuleIndex:
    """A single-pass node index over one parsed module.

    Built once per file and shared by every rule: ``nodes(T, ...)``
    replaces per-rule ``ast.walk`` sweeps and ``functions()`` lists
    all defs.
    """

    def __init__(self, tree: ast.AST):
        self._by_type: Dict[type, List[ast.AST]] = {}
        for node in ast.walk(tree):
            self._by_type.setdefault(type(node), []).append(node)

    def nodes(self, *types: type) -> List[ast.AST]:
        """All nodes of the exact AST classes given, in walk order."""
        if len(types) == 1:
            return self._by_type.get(types[0], [])
        result: List[ast.AST] = []
        for node_type in types:
            result.extend(self._by_type.get(node_type, []))
        return result

    def functions(self) -> List[ast.AST]:
        """Every def in the module, including nested ones."""
        return self.nodes(ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class ModuleSource:
    """A parsed module plus the metadata rules key off."""

    path: str                 #: path as given on the command line
    relpath: str              #: posix-style path for allowlist matching
    module: Optional[str]     #: dotted name under ``repro``, or None
    text: str
    lines: List[str]
    tree: ast.AST
    index: ModuleIndex = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.index is None:
            self.index = ModuleIndex(self.tree)


class Rule:
    """Base class for simlint rules."""

    rule_id = "SIM000"
    title = ""

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, source: ModuleSource, node: ast.AST,
                message: str) -> Finding:
        return Finding(self.rule_id, source.path,
                       getattr(node, "lineno", 1),
                       getattr(node, "col_offset", 0) + 1, message)


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for a file under a ``repro`` package root."""
    parts = list(path.parts)
    if "repro" not in parts:
        return None
    parts = parts[parts.index("repro"):]
    parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") else parts[-1]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def load_module(path: Path, display: Optional[str] = None) -> ModuleSource:
    """Parse one file into a :class:`ModuleSource`."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text, filename=str(path))
    return ModuleSource(
        path=display or str(path),
        relpath=str(PurePosixPath(*path.parts)),
        module=module_name_for(path),
        text=text,
        lines=text.splitlines(),
        tree=tree,
    )


def suppressed(source: ModuleSource, finding: Finding) -> bool:
    """True when the finding's line carries a matching suppression."""
    if not 1 <= finding.line <= len(source.lines):
        return False
    match = SUPPRESS_RE.search(source.lines[finding.line - 1])
    if match is None:
        return False
    listed = match.group("rules")
    if listed is None:
        return True
    return finding.rule in {r.strip().upper() for r in listed.split(",")}


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: List[Finding]
    files_checked: int
    errors: List[str]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.findings else 0


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    """Expand files and directories into a sorted stream of .py files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                yield candidate
        else:
            yield path


def run(paths: Sequence[str]) -> LintReport:
    """Lint ``paths`` with every rule and return the report."""
    from repro.lint.rules import default_rules

    active = default_rules()
    findings: List[Finding] = []
    errors: List[str] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        try:
            source = load_module(path)
        except (SyntaxError, OSError, UnicodeDecodeError) as exc:
            errors.append("%s: %s" % (path, exc))
            continue
        for rule in active:
            for finding in rule.check(source):
                if not suppressed(source, finding):
                    findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return LintReport(findings, files_checked, errors)


def to_text(report: LintReport) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [finding.format() for finding in report.findings]
    for error in report.errors:
        lines.append("error: %s" % error)
    summary = "%d file%s checked, %d finding%s" % (
        report.files_checked, "" if report.files_checked == 1 else "s",
        len(report.findings), "" if len(report.findings) == 1 else "s")
    lines.append(summary)
    return "\n".join(lines)
