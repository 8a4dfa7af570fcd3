"""Dataflow race rules (SIM007-SIM009).

These rules reason about paths rather than single statements, using
the CFG/dataflow machinery in :mod:`repro.lint.flow`:

* SIM007 — atomicity across yields: an attribute of ``self`` (or of a
  shared object passed in as a parameter) read before a scheduling
  point and written after it from the stale value, without an
  intervening re-read.  This is the static signature of the
  CircularLog concurrent-flush lost update fixed in PR 1.
* SIM008 — network fidelity, dataflow edition: SIM006 flags method calls
  on names *directly* bound from a peer-node registry; SIM008 chases
  the reference through local rebinding, container stores, argument
  passing, and returns, and also flags attribute *mutations* and
  deep-chain calls (``node.vnodes.items()``) that reach live peer
  state without going over RPC.
* SIM009 — digest stability: values derived from ``set``-order
  iteration or ``id()`` must not reach schedule/figure digests,
  histograms, or BENCH records; hash and identity order vary across
  processes and would make "identical digest" checks vacuous.

All three are deliberately *may*-analyses: a finding means "there is a
path on which this goes wrong under a legal reordering", and known
imprecision is resolved by triage (``# simlint: ignore[SIMxxx]`` with
a justification), not by weakening the rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.engine import Finding, ModuleSource, Rule
from repro.lint.flow import (
    SCOPE_NODES,
    YIELD_NODES,
    Block,
    DataflowAnalysis,
    dotted,
    has_yield,
    nested_functions,
    scope_nodes,
)

# ---------------------------------------------------------------------------
# SIM007: atomicity across scheduling points
# ---------------------------------------------------------------------------

#: Per-(local, chain) taint: (read_in_current_era, line_of_read).
_Taint = Dict[str, Dict[str, Tuple[bool, int]]]


@dataclass(frozen=True)
class _ExprInfo:
    """What evaluating one expression does, in evaluation order."""

    reads: Tuple[Tuple[str, int], ...]   #: direct (chain, line) attr reads
    locals_used: Tuple[str, ...]         #: Name loads
    yields: int                          #: scheduling points inside


def _collect_expr(node: ast.AST, roots: FrozenSet[str]) -> _ExprInfo:
    """Direct attribute reads, local uses, and yields in ``node``.

    Nested function bodies do not execute here and are skipped;
    comprehensions do execute and are walked.
    """
    reads: List[Tuple[str, int]] = []
    locals_used: List[str] = []
    yields = 0

    def visit(current: ast.AST) -> None:
        nonlocal yields
        if isinstance(current, SCOPE_NODES):
            return
        if isinstance(current, YIELD_NODES):
            yields += 1
        if isinstance(current, ast.Attribute) and \
                isinstance(current.ctx, ast.Load):
            chain = dotted(current)
            if chain is not None and chain.split(".", 1)[0] in roots:
                line = getattr(current, "lineno", 0)
                parts = chain.split(".")
                # ``self.a.b`` also reads ``self.a``: record every
                # prefix so a later write to any of them counts as
                # derived from this read.
                for end in range(2, len(parts) + 1):
                    reads.append((".".join(parts[:end]), line))
                return  # children of the chain are covered
        if isinstance(current, ast.Name) and isinstance(current.ctx, ast.Load):
            locals_used.append(current.id)
        for child in ast.iter_child_nodes(current):
            visit(child)

    visit(node)
    return _ExprInfo(tuple(reads), tuple(locals_used), yields)


class _AtomicityState:
    """Dataflow state: local taints plus chains re-read this era."""

    __slots__ = ("taint", "revalidated")

    def __init__(self, taint: Optional[_Taint] = None,
                 revalidated: Optional[FrozenSet[str]] = None):
        self.taint: _Taint = taint if taint is not None else {}
        self.revalidated: FrozenSet[str] = revalidated or frozenset()

    def copy(self) -> "_AtomicityState":
        return _AtomicityState(
            {name: dict(chains) for name, chains in self.taint.items()},
            self.revalidated)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _AtomicityState)
                and self.taint == other.taint
                and self.revalidated == other.revalidated)

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)


def _merge_atomicity(a: _AtomicityState, b: _AtomicityState) -> _AtomicityState:
    taint: _Taint = {}
    for name in set(a.taint) | set(b.taint):
        chains: Dict[str, Tuple[bool, int]] = {}
        for chain in set(a.taint.get(name, ())) | set(b.taint.get(name, ())):
            ta = a.taint.get(name, {}).get(chain)
            tb = b.taint.get(name, {}).get(chain)
            if ta is None:
                chains[chain] = tb  # type: ignore[assignment]
            elif tb is None:
                chains[chain] = ta
            else:
                # Stale on any path wins; keep the stale side's line.
                if not ta[0]:
                    chains[chain] = ta
                elif not tb[0]:
                    chains[chain] = tb
                else:
                    chains[chain] = (True, min(ta[1], tb[1]))
        taint[name] = chains
    return _AtomicityState(taint, a.revalidated & b.revalidated)


class AtomicityAcrossYield(Rule):
    """SIM007: read-modify-write interleaved across a yield.

    Between two scheduling points a handler owns all shared state; a
    value cached *before* a yield and written back *after* it races
    with every handler that ran in between — the CircularLog
    concurrent-flush lost update (PR 1).  Safe shapes never fire:
    completing the RMW before yielding, ``+=`` (re-reads the target),
    and re-reading or re-checking the attribute after resuming.
    """

    rule_id = "SIM007"
    title = "stale read-modify-write across a scheduling point"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        index = source.index
        for func in index.functions():
            if has_yield(func):
                yield from self._check_function(source, func)

    def _check_function(self, source: ModuleSource,
                        func: ast.AST) -> Iterator[Finding]:
        roots = frozenset(self._param_names(func))
        if not roots:
            return
        cfg = source.index.cfg(func)
        reported: Set[Tuple[int, int, str]] = set()
        findings: List[Finding] = []

        def transfer(block: Block, state: _AtomicityState) -> _AtomicityState:
            out = state.copy()
            for element in block.elements:
                self._process(source, element, out, roots, reported, findings)
            return out

        analysis = DataflowAnalysis(
            cfg, _AtomicityState, transfer, _merge_atomicity)
        analysis.run()
        seen: Set[Tuple[int, int, str]] = set()
        for finding in sorted(findings, key=lambda f: (f.line, f.col)):
            key = (finding.line, finding.col, finding.message)
            if key not in seen:
                seen.add(key)
                yield finding

    @staticmethod
    def _param_names(func: ast.AST) -> List[str]:
        args = func.args
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        names += [a.arg for a in args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def _process(self, source: ModuleSource, element: ast.AST,
                 state: _AtomicityState, roots: FrozenSet[str],
                 reported: Set[Tuple[int, int, str]],
                 findings: List[Finding]) -> None:
        if isinstance(element, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef, ast.Import, ast.ImportFrom,
                                ast.Global, ast.Nonlocal, ast.Pass)):
            return
        if isinstance(element, ast.Assign):
            info = _collect_expr(element.value, roots)
            self._apply_expr(info, state)
            for target in element.targets:
                self._assign_target(source, element, target, element.value,
                                    info, state, roots, reported, findings)
            return
        if isinstance(element, ast.AnnAssign) and element.value is not None:
            info = _collect_expr(element.value, roots)
            self._apply_expr(info, state)
            self._assign_target(source, element, element.target,
                                element.value, info, state, roots,
                                reported, findings)
            return
        if isinstance(element, ast.AugAssign):
            # ``self.x += v`` re-reads the target in place: the write
            # is derived from the current value by construction.
            info = _collect_expr(element.value, roots)
            self._apply_expr(info, state)
            chain = dotted(element.target)
            if chain is not None and chain.split(".", 1)[0] in roots:
                state.revalidated = state.revalidated | {chain}
            return
        # Everything else (Expr, Return, Raise, Assert, branch tests,
        # loop iterables, with-items) just evaluates expressions.
        info = _collect_expr(element, roots)
        self._apply_expr(info, state)

    @staticmethod
    def _apply_expr(info: _ExprInfo, state: _AtomicityState) -> None:
        """Account for the reads and yields of one evaluated expression."""
        if info.yields:
            # The reads happened before the suspension: they do not
            # revalidate anything for code after it, and every taint
            # held in a local goes stale.
            for chains in state.taint.values():
                for chain, (_, line) in list(chains.items()):
                    chains[chain] = (False, line)
            state.revalidated = frozenset()
        else:
            state.revalidated = state.revalidated | \
                {chain for chain, _ in info.reads}

    def _expr_taint(self, info: _ExprInfo,
                    state: _AtomicityState) -> Dict[str, Tuple[bool, int]]:
        """Chains feeding an expression, with freshness at the time the
        expression *finishes* evaluating."""
        result: Dict[str, Tuple[bool, int]] = {}
        fresh = info.yields == 0
        for chain, line in info.reads:
            prior = result.get(chain)
            if prior is None or (prior[0] and not fresh):
                result[chain] = (fresh, line)
        for name in info.locals_used:
            for chain, (was_fresh, line) in state.taint.get(name, {}).items():
                carried = (was_fresh and fresh, line)
                prior = result.get(chain)
                if prior is None or (prior[0] and not carried[0]):
                    result[chain] = carried
        return result

    def _assign_target(self, source: ModuleSource, stmt: ast.AST,
                       target: ast.AST, value: ast.AST, info: _ExprInfo,
                       state: _AtomicityState, roots: FrozenSet[str],
                       reported: Set[Tuple[int, int, str]],
                       findings: List[Finding]) -> None:
        if isinstance(target, ast.Tuple):
            elts = getattr(value, "elts", None)
            if isinstance(value, (ast.Tuple, ast.List)) and elts is not None \
                    and len(elts) == len(target.elts):
                for sub_target, sub_value in zip(target.elts, elts):
                    sub_info = _collect_expr(sub_value, roots)
                    self._assign_target(source, stmt, sub_target, sub_value,
                                        sub_info, state, roots, reported,
                                        findings)
            else:
                for sub_target in target.elts:
                    self._assign_target(source, stmt, sub_target, value,
                                        info, state, roots, reported,
                                        findings)
            return
        taint = self._expr_taint(info, state)
        if isinstance(target, ast.Name):
            state.taint[target.id] = taint
            return
        if isinstance(target, ast.Attribute):
            chain = dotted(target)
            if chain is None or chain.split(".", 1)[0] not in roots:
                return
            stale = taint.get(chain)
            if stale is not None and not stale[0] and \
                    chain not in state.revalidated:
                key = (getattr(stmt, "lineno", 0),
                       getattr(stmt, "col_offset", 0), chain)
                if key not in reported:
                    reported.add(key)
                    findings.append(self.finding(
                        source, stmt,
                        "writes %s from a value read before a yield on "
                        "line %d; other handlers ran in between, so this "
                        "read-modify-write can lose their update — "
                        "complete the RMW before yielding or re-read "
                        "after resuming" % (chain, stale[1])))
            # Our own write establishes the current-era value.
            state.revalidated = state.revalidated | {chain}


# ---------------------------------------------------------------------------
# SIM008: network fidelity through dataflow
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NodeOrigin:
    """How an expression came to hold a peer-node reference."""

    line: int
    via: str
    direct: bool  #: True when SIM006's syntactic rule already covers it


@dataclass
class _FunctionSummary:
    """Cross-function taint summary for one def."""

    node: ast.AST
    returns_node: bool = False
    tainted_params: Optional[Set[str]] = None
    tainted_container_params: Optional[Set[str]] = None

    def __post_init__(self):
        if self.tainted_params is None:
            self.tainted_params = set()
        if self.tainted_container_params is None:
            self.tainted_container_params = set()


class ShardSafetyFlow(Rule):
    """SIM008: trace node references to non-RPC touches.

    SIM006 is syntactic: it sees ``for node in self.jbofs`` and flags
    ``node.stop()``.  This rule follows the reference wherever the
    dataflow carries it — alias rebinding, list/dict stores, argument
    passing, function returns — and flags method calls *and attribute
    mutations* on anything that may hold a peer node, plus deep-chain
    calls (``node.vnodes.items()``) that read live peer state.
    Locations SIM006 already reports are skipped, so each violation
    surfaces exactly once.
    """

    rule_id = "SIM008"
    title = "peer node reference escapes to a non-RPC touch"

    #: Container methods that store their argument.
    _STORES = ("append", "add", "insert", "appendleft", "setdefault")
    #: Container accessors whose result is an element.
    _ELEMENT_CALLS = ("pop", "popleft", "get", "setdefault")

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if not self.config.in_scope(self.config.cross_shard_scopes,
                                    source.relpath):
            return
        from repro.lint.rules import CrossShardNodeCall
        base = CrossShardNodeCall(self.config)
        covered = {(f.line, f.col) for f in base.check(source)}
        summaries = self._summaries(source)
        for _ in range(8):
            if not self._propagate(source, base, summaries):
                break
        findings: List[Finding] = []
        self._scan(source, source.tree, base, summaries, findings)
        seen: Set[Tuple[int, int]] = set()
        for finding in sorted(findings, key=lambda f: (f.line, f.col)):
            if (finding.line, finding.col) in covered:
                continue
            if (finding.line, finding.col) in seen:
                continue
            seen.add((finding.line, finding.col))
            yield finding

    # -- function summaries ----------------------------------------------------------

    def _summaries(self, source: ModuleSource) -> Dict[str, _FunctionSummary]:
        summaries: Dict[str, _FunctionSummary] = {}
        for func in source.index.functions():
            # Last definition wins on name collisions across classes;
            # summaries are merged conservatively by _propagate anyway.
            summaries.setdefault(func.name, _FunctionSummary(func))
        return summaries

    def _propagate(self, source: ModuleSource, base,
                   summaries: Dict[str, _FunctionSummary]) -> bool:
        """One round of summary propagation; True when anything changed."""
        changed = False
        for summary in summaries.values():
            names, containers = self._function_taint(
                source, summary.node, base, summaries)
            for node in scope_nodes(summary.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    if self._node_origin(node.value, base, names,
                                         containers, summaries) is not None:
                        if not summary.returns_node:
                            summary.returns_node = True
                            changed = True
                elif isinstance(node, ast.Call):
                    callee = self._callee_name(node.func)
                    target = summaries.get(callee) if callee else None
                    if target is None:
                        continue
                    params = self._param_list(target.node)
                    for position, arg in enumerate(node.args):
                        if position >= len(params):
                            break
                        origin = self._node_origin(arg, base, names,
                                                   containers, summaries)
                        if origin is not None and \
                                params[position] not in target.tainted_params:
                            target.tainted_params.add(params[position])
                            changed = True
                        elif isinstance(arg, ast.Name) \
                                and arg.id in containers and \
                                params[position] not in \
                                target.tainted_container_params:
                            target.tainted_container_params.add(
                                params[position])
                            changed = True
        return changed

    @staticmethod
    def _callee_name(func: ast.AST) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute) and \
                isinstance(func.value, ast.Name) and \
                func.value.id in ("self", "cls"):
            return func.attr
        return None

    @staticmethod
    def _param_list(func: ast.AST) -> List[str]:
        args = func.args
        names = [a.arg for a in getattr(args, "posonlyargs", [])]
        names += [a.arg for a in args.args]
        if names and names[0] in ("self", "cls"):
            names = names[1:]
        return names

    # -- per-function taint ----------------------------------------------------------

    def _function_taint(self, source: ModuleSource, scope: ast.AST, base,
                        summaries: Dict[str, _FunctionSummary]
                        ) -> Tuple[Dict[str, _NodeOrigin],
                                   Dict[str, _NodeOrigin]]:
        """Names/containers that may hold node references in ``scope``."""
        names: Dict[str, _NodeOrigin] = {}
        containers: Dict[str, _NodeOrigin] = {}
        summary = summaries.get(getattr(scope, "name", ""))
        if summary is not None and summary.node is scope:
            line = getattr(scope, "lineno", 0)
            for param in summary.tainted_params:
                names[param] = _NodeOrigin(
                    line, "argument %r" % param, direct=False)
            for param in summary.tainted_container_params:
                containers[param] = _NodeOrigin(
                    line, "argument %r" % param, direct=False)
        # SIM006's syntactic bindings seed the direct set.
        for direct in base._node_names(list(scope_nodes(scope))):
            names.setdefault(
                direct,
                _NodeOrigin(getattr(scope, "lineno", 0),
                            "registry binding %r" % direct, direct=True))
        for _ in range(4):
            if not self._taint_pass(scope, base, names, containers,
                                    summaries):
                break
        return names, containers

    def _taint_pass(self, scope: ast.AST, base,
                    names: Dict[str, _NodeOrigin],
                    containers: Dict[str, _NodeOrigin],
                    summaries: Dict[str, _FunctionSummary]) -> bool:
        changed = False

        def taint_name(name: str, origin: _NodeOrigin) -> None:
            nonlocal changed
            if name not in names:
                names[name] = origin
                changed = True

        def taint_container(name: str, origin: _NodeOrigin) -> None:
            nonlocal changed
            if name not in containers:
                containers[name] = origin
                changed = True

        for node in scope_nodes(scope):
            if isinstance(node, ast.Assign):
                origin = self._node_origin(node.value, base, names,
                                           containers, summaries)
                container_origin = self._container_origin(
                    node.value, base, names, containers)
                for target in node.targets:
                    bound = target
                    if isinstance(bound, ast.Tuple) and bound.elts:
                        bound = bound.elts[-1]
                    if not isinstance(bound, ast.Name):
                        continue
                    if origin is not None:
                        taint_name(bound.id, self._derived(origin, bound.id))
                    if container_origin is not None:
                        taint_container(bound.id, container_origin)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                origin = self._iteration_origin(node.iter, base, containers)
                if origin is not None:
                    bound = node.target
                    if isinstance(bound, ast.Tuple) and bound.elts:
                        bound = bound.elts[-1]
                    if isinstance(bound, ast.Name):
                        taint_name(bound.id, origin)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    origin = self._iteration_origin(gen.iter, base, containers)
                    if origin is not None:
                        bound = gen.target
                        if isinstance(bound, ast.Tuple) and bound.elts:
                            bound = bound.elts[-1]
                        if isinstance(bound, ast.Name):
                            taint_name(bound.id, origin)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in self._STORES and node.args:
                receiver = node.func.value
                stored = self._node_origin(node.args[-1], base, names,
                                           containers, summaries)
                if stored is not None and isinstance(receiver, ast.Name):
                    taint_container(receiver.id, self._derived(
                        stored, receiver.id))
        return changed

    @staticmethod
    def _derived(origin: _NodeOrigin, via: str) -> _NodeOrigin:
        return _NodeOrigin(origin.line, "%s -> %r" % (origin.via, via),
                           direct=False)

    def _node_origin(self, expr: ast.AST, base,
                     names: Dict[str, _NodeOrigin],
                     containers: Dict[str, _NodeOrigin],
                     summaries: Dict[str, _FunctionSummary]
                     ) -> Optional[_NodeOrigin]:
        """Origin when ``expr`` may evaluate to a peer-node object."""
        line = getattr(expr, "lineno", 0)
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if base._is_node_expr(expr, set()):
            return _NodeOrigin(line, "registry access", direct=True)
        if isinstance(expr, ast.Subscript):
            if isinstance(expr.value, ast.Name) and \
                    expr.value.id in containers:
                return self._derived(containers[expr.value.id],
                                     "%s[...]" % expr.value.id)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in self._ELEMENT_CALLS and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in containers:
                return self._derived(containers[func.value.id],
                                     "%s.%s()" % (func.value.id, func.attr))
            callee = self._callee_name(func)
            summary = summaries.get(callee) if callee else None
            if summary is not None and summary.returns_node:
                return _NodeOrigin(line, "%s() returns a node" % callee,
                                   direct=False)
        return None

    def _container_origin(self, expr: ast.AST, base,
                          names: Dict[str, _NodeOrigin],
                          containers: Dict[str, _NodeOrigin]
                          ) -> Optional[_NodeOrigin]:
        """Origin when ``expr`` builds a container of node references."""
        line = getattr(expr, "lineno", 0)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            for item in expr.elts:
                if isinstance(item, ast.Name) and item.id in names:
                    return self._derived(names[item.id], "container literal")
                if base._is_node_expr(item, set()):
                    return _NodeOrigin(line, "container literal",
                                       direct=False)
            return None
        if isinstance(expr, ast.Dict):
            for item in expr.values:
                if item is not None and isinstance(item, ast.Name) and \
                        item.id in names:
                    return self._derived(names[item.id], "dict literal")
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp)):
            element = expr.elt
            if isinstance(element, ast.Name):
                for gen in expr.generators:
                    if self._iteration_origin(gen.iter, base, containers) \
                            is not None and \
                            isinstance(gen.target, ast.Name) and \
                            gen.target.id == element.id:
                        return _NodeOrigin(line, "comprehension over nodes",
                                           direct=False)
            return None
        if isinstance(expr, ast.Call):
            name = dotted(expr.func)
            if name in ("list", "sorted", "tuple") and expr.args:
                if self._iteration_origin(expr.args[0], base, containers) \
                        is not None:
                    return _NodeOrigin(line, "%s(nodes)" % name,
                                       direct=False)
            return None
        if isinstance(expr, ast.Name) and expr.id in containers:
            return containers[expr.id]
        return None

    def _iteration_origin(self, expr: ast.AST, base,
                          containers: Dict[str, _NodeOrigin]
                          ) -> Optional[_NodeOrigin]:
        """Origin when iterating ``expr`` yields node references."""
        line = getattr(expr, "lineno", 0)
        if base._yields_nodes(expr):
            return _NodeOrigin(line, "registry iteration", direct=True)
        if isinstance(expr, ast.Name) and expr.id in containers:
            return self._derived(containers[expr.id],
                                 "iterating %r" % expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in ("values", "items") and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id in containers:
                return self._derived(containers[func.value.id],
                                     "%s.%s()" % (func.value.id, func.attr))
            if dotted(func) in ("sorted", "list", "tuple", "reversed",
                                "enumerate") and expr.args:
                return self._iteration_origin(expr.args[0], base, containers)
        return None

    # -- violation scan --------------------------------------------------------------

    def _scan(self, source: ModuleSource, scope: ast.AST, base,
              summaries: Dict[str, _FunctionSummary],
              findings: List[Finding]) -> None:
        names, containers = self._function_taint(source, scope, base,
                                                 summaries)
        for node in scope_nodes(scope):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr in self.config.cross_shard_allow_methods:
                    continue
                receiver = node.func.value
                origin = self._node_origin(receiver, base, names,
                                           containers, summaries)
                if origin is not None and not origin.direct:
                    findings.append(self.finding(
                        source, node,
                        "calls .%s() on a JBOF node reference (%s, line "
                        "%d); that skips the modelled network — use "
                        "rpc.call/rpc.notify" % (node.func.attr,
                                                 origin.via,
                                                 origin.line)))
                    continue
                deep = self._deep_chain_root(receiver)
                if deep is not None and deep in names:
                    findings.append(self.finding(
                        source, node,
                        "calls .%s() through %s on a JBOF node object; "
                        "this reads another machine's live state in "
                        "zero simulated time — fetch it over RPC"
                        % (node.func.attr,
                           dotted(receiver) or ("%s..." % deep))))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    root = self._attribute_root(target)
                    if root is not None and root in names:
                        findings.append(self.finding(
                            source, node,
                            "mutates attribute %s on a JBOF node object "
                            "(%s, line %d); the write reaches another "
                            "machine without crossing the modelled "
                            "network — mutate over RPC"
                            % (dotted(target) or root,
                               names[root].via, names[root].line)))
        for nested in nested_functions(scope):
            self._scan(source, nested, base, summaries, findings)

    @staticmethod
    def _deep_chain_root(expr: ast.AST) -> Optional[str]:
        """Root name of an Attribute chain with depth >= 2, else None."""
        depth = 0
        while isinstance(expr, ast.Attribute):
            depth += 1
            expr = expr.value
        if depth >= 1 and isinstance(expr, ast.Name):
            return expr.id
        return None

    @staticmethod
    def _attribute_root(target: ast.AST) -> Optional[str]:
        """Root name when ``target`` stores into ``name.attr...``."""
        if isinstance(target, ast.Subscript):
            target = target.value
        if not isinstance(target, ast.Attribute):
            return None
        while isinstance(target, ast.Attribute):
            target = target.value
        if isinstance(target, ast.Name):
            return target.id
        return None


# ---------------------------------------------------------------------------
# SIM009: digest stability
# ---------------------------------------------------------------------------

class DigestOrderTaint(Rule):
    """SIM009: hash/identity order must not reach digests.

    Schedule digests, figure digests, latency histograms, and BENCH
    records are the reproducibility contract: byte-identical across
    runs and machines.  A value derived from iterating
    a ``set`` (hash order, randomized per process) or from ``id()``
    (allocation order) that flows into one of those sinks silently
    breaks the contract.  Sort the iterable or key by stable fields.
    """

    rule_id = "SIM009"
    title = "hash-order or identity value reaches a digest"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        from repro.lint.rules import UnsortedSetIteration
        helper = UnsortedSetIteration(self.config)
        attr_sets = helper._collect_names(
            source.index.nodes(ast.Assign, ast.AnnAssign), attributes=True)
        yield from self._check_scope(source, source.tree, helper, attr_sets)

    def _check_scope(self, source: ModuleSource, scope: ast.AST, helper,
                     attr_sets: Set[str]) -> Iterator[Finding]:
        nodes = list(scope_nodes(scope))
        set_names = helper._collect_names(nodes, attributes=False) | attr_sets
        tainted = self._tainted_names(nodes, helper, set_names)
        for node in nodes:
            if not isinstance(node, ast.Call):
                continue
            sink = self._sink_name(node.func)
            if sink is None:
                continue
            arguments = list(node.args) + \
                [kw.value for kw in node.keywords if kw.value is not None]
            for arg in arguments:
                described = self._order_taint(arg, helper, set_names, tainted)
                if described is not None:
                    yield self.finding(
                        source, node,
                        "passes a value derived from %s into %s(); hash/"
                        "identity order varies across processes and would "
                        "corrupt digest comparisons — sort the iterable "
                        "or key by stable fields" % (described, sink))
                    break
        for nested in nested_functions(scope):
            yield from self._check_scope(source, nested, helper, attr_sets)

    def _sink_name(self, func: ast.AST) -> Optional[str]:
        name = dotted(func)
        if name is None:
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                return None
        parts = name.split(".")
        if parts[-1] in self.config.digest_sink_calls:
            return name
        if any("digest" in part.lower() for part in parts):
            return name
        return None

    def _tainted_names(self, nodes: List[ast.AST], helper,
                       set_names: Set[str]) -> Dict[str, str]:
        """Names carrying hash-order/identity-derived values in scope."""
        tainted: Dict[str, str] = {}

        def bind(target: ast.AST, description: str) -> None:
            if isinstance(target, ast.Tuple) and target.elts:
                for element in target.elts:
                    bind(element, description)
                return
            if isinstance(target, ast.Name) and target.id not in tainted:
                tainted[target.id] = description

        for _ in range(4):
            before = len(tainted)
            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    described = self._iter_taint(node.iter, helper,
                                                 set_names, tainted)
                    if described is not None:
                        bind(node.target, described)
                elif isinstance(node, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    for gen in node.generators:
                        described = self._iter_taint(gen.iter, helper,
                                                     set_names, tainted)
                        if described is not None:
                            bind(gen.target, described)
                elif isinstance(node, ast.Assign):
                    described = self._order_taint(node.value, helper,
                                                  set_names, tainted)
                    if described is not None:
                        for target in node.targets:
                            bind(target, described)
            if len(tainted) == before:
                break
        return tainted

    def _iter_taint(self, iterable: ast.AST, helper, set_names: Set[str],
                    tainted: Dict[str, str]) -> Optional[str]:
        """Taint carried by a loop/comprehension iterable.

        Covers both the set-shaped case (hash iteration order) and
        order-sensitive expressions such as ``sorted(xs, key=id)``.
        """
        described = helper._describe_set(iterable, set_names)
        if described is not None:
            return "iteration over %s" % described
        return self._order_taint(iterable, helper, set_names, tainted)

    def _order_taint(self, expr: ast.AST, helper, set_names: Set[str],
                     tainted: Dict[str, str]) -> Optional[str]:
        """Description when ``expr`` carries order-sensitive data."""
        for node in ast.walk(expr):
            if isinstance(node, SCOPE_NODES):
                continue
            if isinstance(node, ast.Call):
                name = dotted(node.func)
                if name == "id" and node.args:
                    return "id(...)"
                if name == "sorted":
                    # sorted(...) launders iteration order; do not
                    # descend into its arguments.
                    return self._scan_sorted_key(node, tainted)
                if name in ("list", "tuple") and node.args:
                    described = helper._describe_set(node.args[0], set_names)
                    if described is not None:
                        return "%s(%s)" % (name, described)
            if isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Load) and node.id in tainted:
                return tainted[node.id]
        return None

    @staticmethod
    def _scan_sorted_key(node: ast.Call,
                         tainted: Dict[str, str]) -> Optional[str]:
        """``sorted(xs, key=lambda x: id(x))`` is still unstable."""
        for keyword in node.keywords:
            if keyword.arg == "key" and keyword.value is not None:
                for sub in ast.walk(keyword.value):
                    if isinstance(sub, ast.Call) and \
                            dotted(sub.func) == "id":
                        return "an id(...)-keyed sort"
        return None


def flow_rules(config: LintConfig) -> List[Rule]:
    """The dataflow rule family, in rule-id order."""
    return [
        AtomicityAcrossYield(config),
        ShardSafetyFlow(config),
        DigestOrderTaint(config),
    ]
