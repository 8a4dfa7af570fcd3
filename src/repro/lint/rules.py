"""The simlint rule catalog.

Each rule targets one class of reproducibility leak a discrete-event
simulation cannot tolerate.  ``docs/static-analysis.md`` documents
the catalog and the rationale in prose.  The registered rules are
appended to this docstring at import time (see :func:`catalog_lines`)
so the header can never drift from the code again.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, List, Optional, Set

from repro.lint.engine import Finding, ModuleSource, Rule

#: Function-ish scopes that open a new lexical namespace.
SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """All descendants of ``scope`` in the same lexical scope."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, SCOPE_NODES):
            continue
        yield child
        yield from scope_nodes(child)


def nested_functions(scope: ast.AST) -> Iterator[ast.AST]:
    """Function definitions nested directly under ``scope``."""
    for child in ast.iter_child_nodes(scope):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        elif not isinstance(child, ast.Lambda):
            yield from nested_functions(child)


def in_scope(scopes, relpath: str) -> bool:
    """True when ``relpath`` lies under one of ``scopes``.

    Paths are the checked file's posix path, matched by substring
    (allowlists by suffix, ``relpath.endswith``), so a rule works
    wherever the tree is checked out.
    """
    return any(scope in relpath for scope in scopes)


#: Module-level names matching this are treated as intentional
#: constants (registry tables such as ``WORKLOADS``) by SIM005.
CONSTANT_NAME_RE = re.compile(r"^_{0,2}[A-Z][A-Z0-9_]*$")

#: Wall-clock entry points (SIM002).
WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
}
WALL_CLOCK_SUFFIXES = (
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)
WALL_CLOCK_FROM_TIME = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
}

#: The named-stream registry, the one file allowed to touch the
#: ``random`` module: it has to construct the streams (SIM001).
RNG_ALLOW = ("repro/sim/rng.py",)

#: Files allowed to read the wall clock (SIM002): the benchmark CLIs
#: report wall time around whole experiments/trials, outside the
#: simulated world.
WALL_CLOCK_ALLOW = ("repro/bench/__main__.py",
                    "repro/bench/explore/fleet.py")

#: Directories whose set iteration feeds scheduling/ordering decisions
#: and must be wrapped in ``sorted(...)`` (SIM003).
ORDERED_ITERATION_SCOPES = ("repro/core/", "repro/net/")

#: Constructors of mutable containers (SIM005).
MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter",
    "OrderedDict",
}


class DirectRandomUse(Rule):
    """SIM001: the ``random`` module is off limits outside the registry.

    ``random.Random(seed)`` instances scattered through the tree make
    every component's stream depend on every other's draw order.  All
    randomness must come from ``RngRegistry.stream(name)`` or
    ``derive_stream(seed, name)`` in :mod:`repro.sim.rng`.
    """

    rule_id = "SIM001"
    title = "direct random-module use"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if source.relpath.endswith(RNG_ALLOW):
            return
        for node in source.index.nodes(ast.Import, ast.ImportFrom,
                                       ast.Attribute):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield self.finding(
                            source, node,
                            "imports the random module directly; use "
                            "RngRegistry.stream(name) or derive_stream "
                            "from repro.sim.rng")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        source, node,
                        "imports from the random module directly; use "
                        "named streams from repro.sim.rng")
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and \
                        node.value.id == "random":
                    yield self.finding(
                        source, node,
                        "uses random.%s directly; draw from a named "
                        "RngRegistry stream instead" % node.attr)


class WallClockUse(Rule):
    """SIM002: no wall-clock reads in simulation-visible code.

    Simulated time is ``sim.now``; a ``time.time()`` anywhere in the
    model couples results to the host machine.  The benchmark CLI's
    wall-time reporting is allowlisted (``WALL_CLOCK_ALLOW``).
    """

    rule_id = "SIM002"
    title = "wall-clock read"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if source.relpath.endswith(WALL_CLOCK_ALLOW):
            return
        for node in source.index.nodes(ast.Call, ast.ImportFrom):
            if isinstance(node, ast.Call):
                name = dotted(node.func)
                if name and (name in WALL_CLOCK_CALLS
                             or name.endswith(WALL_CLOCK_SUFFIXES)):
                    yield self.finding(
                        source, node,
                        "calls %s(); simulation code must use sim.now, "
                        "not the wall clock" % name)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    for alias in node.names:
                        if alias.name in WALL_CLOCK_FROM_TIME:
                            yield self.finding(
                                source, node,
                                "imports %s from the time module; "
                                "simulation code must use sim.now"
                                % alias.name)


class UnsortedSetIteration(Rule):
    """SIM003: set iteration feeding order decisions must be sorted.

    In the scoped directories (``core/``, ``net/``) the order in which
    replicas, vnodes, or peers are visited reaches the event schedule;
    iterating a ``set`` there is hash-order — randomized per process.
    Wrap the iterable in ``sorted(...)``.
    """

    rule_id = "SIM003"
    title = "unsorted set iteration"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if not in_scope(ORDERED_ITERATION_SCOPES, source.relpath):
            return
        # Attributes (``self._failed``) are assigned in one method and
        # iterated in another, so they are tracked module-wide; bare
        # names are tracked per function scope.  A name also assigned
        # a non-set value anywhere in its scope (``gainers =
        # sorted(set(gainers))``) is ambiguous and never flagged.
        attr_names = self._collect_names(
            source.index.nodes(ast.Assign, ast.AnnAssign), attributes=True)
        yield from self._check_scope(source, source.tree, attr_names)

    def _check_scope(self, source: ModuleSource, scope: ast.AST,
                     attr_names: Set[str]) -> Iterator[Finding]:
        nodes = list(scope_nodes(scope))
        known = self._collect_names(nodes, attributes=False) | attr_names
        for node in nodes:
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                iters.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call):
                name = dotted(node.func)
                if name in ("list", "tuple", "enumerate") and node.args:
                    iters.append(node.args[0])
            for candidate in iters:
                described = self._describe_set(candidate, known)
                if described is not None:
                    yield self.finding(
                        source, candidate,
                        "iterates over %s in hash order; wrap it in "
                        "sorted(...) so scheduling decisions are "
                        "reproducible" % described)
        for nested in nested_functions(scope):
            yield from self._check_scope(source, nested, attr_names)

    @staticmethod
    def _value_is_set(value: Optional[ast.AST]) -> bool:
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            return dotted(value.func) in ("set", "frozenset")
        return False

    @staticmethod
    def _annotation_is_set(annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        base = annotation
        if isinstance(base, ast.Subscript):
            base = base.value
        return dotted(base) in ("set", "frozenset", "Set", "FrozenSet",
                                "MutableSet", "typing.Set",
                                "typing.FrozenSet", "typing.MutableSet")

    @classmethod
    def _collect_names(cls, nodes, attributes: bool) -> Set[str]:
        """Names bound to sets, minus names with conflicting bindings.

        ``attributes`` selects whether Attribute targets (``self.x``)
        or bare Name targets are collected.
        """
        set_names: Set[str] = set()
        other_names: Set[str] = set()

        def record(target: ast.AST, value: Optional[ast.AST],
                   annotation: Optional[ast.AST] = None) -> None:
            if attributes != isinstance(target, ast.Attribute):
                return
            name = dotted(target)
            if name is None:
                return
            if cls._value_is_set(value) or cls._annotation_is_set(annotation):
                set_names.add(name)
            elif value is not None:
                other_names.add(name)

        for node in nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    record(target, node.value)
            elif isinstance(node, ast.AnnAssign):
                record(node.target, node.value, node.annotation)
        return set_names - other_names

    def _describe_set(self, node: ast.AST,
                      set_names: Set[str]) -> Optional[str]:
        """A description of ``node`` when it is set-valued, else None."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            if name in ("set", "frozenset"):
                return "%s(...)" % name
            return None
        name = dotted(node)
        if name is not None and name in set_names:
            return "the set %r" % name
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.BitOr, ast.BitAnd,
                                     ast.Sub, ast.BitXor)):
            left = self._describe_set(node.left, set_names)
            right = self._describe_set(node.right, set_names)
            if left is not None or right is not None:
                return "a set expression"
        return None


def _layers() -> Dict[str, FrozenSet[str]]:
    """The import-layering DAG, bottom-up (SIM004).

    Keys and values are two-component layer names (``repro.sim``).
    A module in layer L may import from exactly ``layers[L]``.  The
    substrate (``sim``) sits at the bottom; hardware, network, and
    power models build on it without knowing about the store logic in
    ``core``; workloads know the substrate only; ``bench``,
    ``baselines``, and tooling sit on top.  Between the two top-level
    harnesses, ``bench`` sits *above* ``scenarios``: the design-space
    explorer scores configurations on whole scenario episodes, while
    scenarios never reach into the benchmark harness.
    """
    sim = frozenset({"repro.sim"})
    hw = sim | {"repro.hw"}
    net = sim | {"repro.net"}
    obs = sim | {"repro.obs"}
    power = hw | {"repro.power"}
    core = hw | net | power | obs | {"repro.core", "repro.telemetry"}
    workloads = sim | {"repro.workloads"}
    top = core | workloads | {"repro.baselines"}
    return {
        "repro.sim": sim,
        "repro.hw": hw,
        "repro.net": net,
        "repro.obs": obs,
        "repro.power": power,
        "repro.telemetry": core,
        "repro.core": core,
        "repro.workloads": workloads,
        "repro.baselines": top,
        "repro.bench": top | {"repro.bench", "repro.scenarios"},
        "repro.scenarios": top | {"repro.scenarios"},
        "repro.lint": top | {"repro.bench", "repro.lint"},
    }


#: Layer -> allowed imported layers (SIM004).
LAYERS = _layers()

#: Files exempt from the layering DAG (SIM004).  CLI entry points that
#: compose the full stack — like ``repro.bench.__main__`` does from
#: the top layer — but live in a low layer for import reasons:
#: ``repro.obs.trace`` must sit in ``repro.obs`` (so the package is
#: importable below ``core``) yet builds a whole traced cluster.
LAYER_ALLOW = ("repro/obs/trace.py",)


class ImportLayering(Rule):
    """SIM004: the layering DAG is law.

    The substrate (``sim``) must stay ignorant of everything above it,
    and the device/network models (``hw``, ``net``) must never reach
    into store logic (``core``).  The allowed-import map is
    ``LAYERS``.
    """

    rule_id = "SIM004"
    title = "import layering violation"

    @staticmethod
    def _layer(module: str) -> str:
        return ".".join(module.split(".")[:2])

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if source.module is None:
            return
        if source.relpath.endswith(LAYER_ALLOW):
            return
        layer = self._layer(source.module)
        allowed = LAYERS.get(layer)
        if allowed is None:
            return
        for node in source.index.nodes(ast.Import, ast.ImportFrom):
            imported: List[str] = []
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module:
                if node.module == "repro":
                    # ``from repro import telemetry`` pulls in the
                    # submodule, so resolve the layer per alias.
                    imported = ["repro." + alias.name
                                for alias in node.names]
                else:
                    imported = [node.module]
            for target in imported:
                if target != "repro" and not target.startswith("repro."):
                    continue
                target_layer = self._layer(target)
                if target_layer not in allowed:
                    yield self.finding(
                        source, node,
                        "%s (layer %s) must not import %s; allowed "
                        "layers: %s" % (source.module, layer, target,
                                        ", ".join(sorted(allowed))))


class MutableSharedState(Rule):
    """SIM005: no mutable defaults, no module-level mutable state.

    A mutable default argument or a writable module-level container is
    shared across every simulation instance in the process — state
    leaks from one run into the next and the second run diverges.
    Uppercase module-level names are treated as intentional constants.
    """

    rule_id = "SIM005"
    title = "shared mutable state"

    @staticmethod
    def _mutable_value(node: Optional[ast.AST]) -> Optional[str]:
        if isinstance(node, ast.List):
            return "a list literal"
        if isinstance(node, ast.Dict):
            return "a dict literal"
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return "a comprehension"
        if isinstance(node, ast.Call):
            name = dotted(node.func)
            if name in MUTABLE_FACTORIES:
                return "%s(...)" % name
        return None

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        for node in source.index.functions():
            defaults = list(node.args.defaults) + \
                [d for d in node.args.kw_defaults if d is not None]
            for default in defaults:
                described = self._mutable_value(default)
                if described is not None:
                    yield self.finding(
                        source, default,
                        "mutable default argument (%s) in %s(); "
                        "default to None and construct inside the "
                        "function" % (described, node.name))
        for stmt in getattr(source.tree, "body", []):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            described = self._mutable_value(value)
            if described is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if CONSTANT_NAME_RE.match(target.id):
                    continue
                if target.id.startswith("__") and target.id.endswith("__"):
                    continue  # __all__ and friends are interpreter protocol
                yield self.finding(
                    source, stmt,
                    "module-level mutable state %r (%s) is shared "
                    "across simulation runs; move it into an instance "
                    "or rename it as a constant" % (target.id, described))


#: Directories where a peer-node object reference stands for another
#: machine of the modelled rack (SIM006).  Scenario injectors reach
#: node objects through the cluster's registry, so they are held to
#: the same rule (the suppressed sites in ``LeedCluster`` are physical
#: events — a pulled power cord — that no modelled message carries).
CROSS_SHARD_SCOPES = ("repro/core/", "repro/scenarios/")

#: Attribute names holding registries of peer JBOF node objects
#: (SIM006): objects fetched from these are other machines and must be
#: reached over the simulated network.
CROSS_SHARD_REGISTRIES = ("jbofs", "_jbofs")

#: Node methods exempt from SIM006: bootstrap-time delivery that runs
#: before simulated time starts (the control plane hands every node
#: its initial ring synchronously during ``start()``).
CROSS_SHARD_ALLOW_METHODS = ("apply_membership",)


class CrossShardNodeCall(Rule):
    """SIM006: peer JBOF nodes are reached over the network only.

    Every JBOF is a separate machine in the modelled rack.  A method
    call on a node object pulled out of a peer registry
    (``self.jbofs`` / ``self._jbofs``) acts on that machine in zero
    simulated time, with no NIC serialization, switch hop, partition
    check or RPC CPU charge — the latency and energy figures then
    describe a system that cannot be built.  Node-to-node interaction
    must ride ``rpc.call``/``rpc.notify``.

    Reading construction-time attributes (``node.address``,
    ``node.built_at``) is fine — the rule flags only *method calls* on
    node objects.  Bootstrap-time delivery methods that run before
    simulated time starts are allowlisted
    (``CROSS_SHARD_ALLOW_METHODS``).
    """

    rule_id = "SIM006"
    title = "direct call on a peer node bypasses the network"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if not in_scope(CROSS_SHARD_SCOPES, source.relpath):
            return
        yield from self._check_scope(source, source.tree)

    def _check_scope(self, source: ModuleSource,
                     scope: ast.AST) -> Iterator[Finding]:
        nodes = list(scope_nodes(scope))
        names = self._node_names(nodes)
        for node in nodes:
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr in CROSS_SHARD_ALLOW_METHODS:
                continue
            if self._is_node_expr(node.func.value, names):
                yield self.finding(
                    source, node,
                    "calls .%s() on a JBOF node object; that skips the "
                    "modelled network (no latency, partition check or "
                    "RPC cost) — reach it with rpc.call/rpc.notify"
                    % node.func.attr)
        for nested in nested_functions(scope):
            yield from self._check_scope(source, nested)

    def _is_registry(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in CROSS_SHARD_REGISTRIES
        if isinstance(node, ast.Name):
            return node.id in CROSS_SHARD_REGISTRIES
        return False

    def _yields_nodes(self, node: ast.AST) -> bool:
        """True when iterating ``node`` produces registry node objects."""
        if self._is_registry(node):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "values":
                return self._is_registry(func.value)
            if dotted(func) in ("sorted", "list", "tuple", "reversed",
                                 "enumerate") and node.args:
                return self._yields_nodes(node.args[0])
        return False

    def _is_node_expr(self, node: ast.AST, names: Set[str]) -> bool:
        """True when ``node`` evaluates to a registry node object."""
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Subscript):
            return self._is_registry(node.value)
        if isinstance(node, ast.Call):
            func = node.func
            return (isinstance(func, ast.Attribute)
                    and func.attr in ("get", "pop")
                    and self._is_registry(func.value))
        return False

    def _node_names(self, nodes: List[ast.AST]) -> Set[str]:
        """Names bound to node objects within one lexical scope."""
        names: Set[str] = set()

        def bind(target: ast.AST) -> None:
            # ``for index, node in enumerate(...)`` binds the last
            # tuple element to the node.
            if isinstance(target, ast.Tuple) and target.elts:
                target = target.elts[-1]
            if isinstance(target, ast.Name):
                names.add(target.id)

        for node in nodes:
            if isinstance(node, ast.For) and self._yields_nodes(node.iter):
                bind(node.target)
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for gen in node.generators:
                    if self._yields_nodes(gen.iter):
                        bind(gen.target)
            elif isinstance(node, ast.Assign) and \
                    self._is_node_expr(node.value, set()):
                for target in node.targets:
                    bind(target)
        return names


#: The one package that owns the simulation clock (SIM010).
CLOCK_OWNER_SCOPE = "repro/sim/"


class ClockAssignment(Rule):
    """SIM010: only the event loop moves the clock.

    ``Simulator.now`` is a plain attribute (the run loop assigns it
    once per timestep; a property cost every model step a call), so
    nothing at runtime stops model code from writing ``sim.now = t``
    or ``sim.now += dt`` — which would desynchronise the clock from
    the event heap.  Any store to an attribute named ``now`` outside
    ``repro/sim/`` is flagged: plain, augmented and annotated
    assignment, unpacking, ``for`` / ``with`` targets.
    """

    rule_id = "SIM010"
    title = "simulation clock assigned outside repro.sim"

    def check(self, source: ModuleSource) -> Iterator[Finding]:
        if CLOCK_OWNER_SCOPE in source.relpath:
            return
        for node in source.index.nodes(ast.Attribute):
            if node.attr == "now" and isinstance(node.ctx, ast.Store):
                yield self.finding(
                    source, node,
                    "assigns %s; the clock belongs to the event loop — "
                    "schedule an event (sim.timeout / sim.timeout_at) "
                    "instead of moving time" % (dotted(node) or ".now"))


def default_rules() -> List[Rule]:
    """The shipped rule catalog, in rule-id order."""
    return [
        DirectRandomUse(),
        WallClockUse(),
        UnsortedSetIteration(),
        ImportLayering(),
        MutableSharedState(),
        CrossShardNodeCall(),
        ClockAssignment(),
    ]


def catalog_lines() -> List[str]:
    """``SIMxxx  title`` for every registered rule, in id order."""
    return ["%s  %s" % (rule.rule_id, rule.title)
            for rule in default_rules()]


def catalog_range() -> str:
    """The rule ids as runs of consecutive numbers, e.g.
    ``SIM001-SIM006, SIM010``."""
    runs: List[List[int]] = []
    for rule in default_rules():
        number = int(rule.rule_id[3:])
        if runs and number == runs[-1][1] + 1:
            runs[-1][1] = number
        else:
            runs.append([number, number])
    return ", ".join("SIM%03d" % first if first == last
                     else "SIM%03d-SIM%03d" % (first, last)
                     for first, last in runs)


# The catalog header is generated, not hand-maintained: appending it
# here keeps the module docstring in lockstep with the registered
# rule list (the old hand-written header drifted the moment SIM006
# landed without a docstring update).
__doc__ = (__doc__ or "") + "\nRegistered rules:\n\n" + \
    "\n".join("* " + line for line in catalog_lines()) + "\n"
