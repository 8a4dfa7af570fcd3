"""Configuration for the simlint rules.

Everything path-like is matched against the *posix relative path* of
the checked file (``repro/bench/__main__.py``), by suffix, so the
config works no matter where the tree is checked out or which prefix
the CLI was invoked with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple


def _default_layers() -> Dict[str, FrozenSet[str]]:
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


@dataclass(frozen=True)
class LintConfig:
    """Tunable scope and allowlists for the rule catalog."""

    #: Files allowed to touch the ``random`` module directly (SIM001).
    #: The named-stream registry itself has to construct the streams.
    rng_allow: Tuple[str, ...] = ("repro/sim/rng.py",)

    #: Files allowed to read the wall clock (SIM002).  The benchmark
    #: CLIs report wall time around whole experiments/trials — outside
    #: the simulated world.
    wall_clock_allow: Tuple[str, ...] = ("repro/bench/__main__.py",
                                         "repro/bench/explore/fleet.py")

    #: Directories whose set iteration feeds scheduling/ordering
    #: decisions and must be wrapped in ``sorted(...)`` (SIM003).
    ordered_iteration_scopes: Tuple[str, ...] = ("repro/core/", "repro/net/")

    #: Files exempt from the layering DAG (SIM004).  CLI entry points
    #: that compose the full stack — like ``repro.bench.__main__`` does
    #: from the top layer — but live in a low layer for import reasons:
    #: ``repro.obs.trace`` must sit in ``repro.obs`` (so the package is
    #: importable below ``core``) yet builds a whole traced cluster.
    layer_allow: Tuple[str, ...] = ("repro/obs/trace.py",)

    #: Layer -> allowed imported layers (SIM004).
    layers: Dict[str, FrozenSet[str]] = field(default_factory=_default_layers)

    #: Directories where a peer-node object reference stands for
    #: another machine of the modelled rack (SIM006/SIM008).
    #: Scenario injectors reach node objects through the cluster's
    #: registry, so they are held to the same rule (the suppressed
    #: sites in ``LeedCluster`` are physical events — a pulled power
    #: cord — that no modelled message carries).
    cross_shard_scopes: Tuple[str, ...] = ("repro/core/",
                                           "repro/scenarios/")

    #: Attribute names holding registries of peer JBOF node objects
    #: (SIM006): objects fetched from these are other machines and
    #: must be reached over the simulated network.
    cross_shard_registries: Tuple[str, ...] = ("jbofs", "_jbofs")

    #: Node methods exempt from SIM006: bootstrap-time delivery that
    #: runs before simulated time starts (the control plane hands
    #: every node its initial ring synchronously during ``start()``).
    cross_shard_allow_methods: Tuple[str, ...] = ("apply_membership",)

    #: Call names treated as digest/record sinks by SIM009: values
    #: derived from set-iteration or ``id()`` must not reach them.
    #: Matched against the last component of the dotted call name; any
    #: component containing "digest" is a sink regardless of this list
    #: (covers ``self._digest.update(...)``-style folds).
    digest_sink_calls: Tuple[str, ...] = (
        "observe", "record", "figure_digest", "schedule_digest", "fold",
    )

    def allows(self, allow: Tuple[str, ...], relpath: str) -> bool:
        """True when ``relpath`` matches an allowlist entry (by suffix)."""
        return any(relpath.endswith(entry) for entry in allow)

    def in_scope(self, scopes: Tuple[str, ...], relpath: str) -> bool:
        """True when ``relpath`` lies under one of ``scopes``."""
        return any(scope in relpath for scope in scopes)
