"""Declarative design space over LEED cluster configurations.

A :class:`ConfigSpace` is an ordered list of typed
:class:`Dimension`\\ s, each naming one knob of the deployment —
a :class:`~repro.core.cluster.ClusterConfig` field, a
:class:`~repro.core.jbof.LeedOptions` field, or a run-shape knob of
the trial driver — together with its candidate values.

The space is validated up front against the real configuration types:
:meth:`ConfigSpace.validate` resolves the default point through
``ClusterConfig.from_overrides`` and ``LeedOptions`` so a typo'd
dimension fails at definition time, never mid-search.

Points are plain ``{dimension: value}`` dicts with JSON-scalar values,
so they digest canonically (:func:`config_digest`) and cross process
boundaries untouched.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.core.cluster import ClusterConfig
from repro.core.jbof import LeedOptions
from repro.hw.platforms import platform_by_name

#: Dimension targets: where a knob lands when a trial is built.
TARGETS = ("cluster", "options", "run")

#: Run-shape knobs the trial driver understands (everything else in a
#: ``run`` dimension is rejected by :meth:`ConfigSpace.validate`).
RUN_FIELDS = ("concurrency", "value_size")

#: ``cluster`` dimension names resolved specially by the fleet runner
#: (platform is a string alias, not a ``PlatformSpec`` instance).
SPECIAL_CLUSTER_FIELDS = ("platform",)

Point = Dict[str, object]


def canonical_json(payload) -> str:
    """Stable serialization shared by digests and the memo cache."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def config_digest(payload) -> str:
    """16-hex digest of any JSON-serializable payload."""
    return hashlib.sha256(canonical_json(payload).encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class Dimension:
    """One knob of the design space.

    ``values`` must be JSON scalars (bool/int/float/str), unique, and
    listed in search order — :meth:`ConfigSpace.neighbors` steps to
    adjacent values, so numeric dimensions should be sorted.
    ``default`` names the stock value (the first value when omitted);
    the space's default point must reproduce the out-of-the-box
    configuration so "beats the default" is a meaningful claim.
    """

    name: str
    values: Tuple[object, ...]
    target: str = "options"
    description: str = ""
    default: object = field(default=None)

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError("dimension %r: target %r not in %s"
                             % (self.name, self.target, TARGETS))
        if not self.values:
            raise ValueError("dimension %r has no values" % self.name)
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError("dimension %r has duplicate values: %r"
                             % (self.name, self.values))
        for value in self.values:
            if not isinstance(value, (bool, int, float, str)):
                raise ValueError(
                    "dimension %r: value %r is not a JSON scalar"
                    % (self.name, value))
        if self.default is None:
            object.__setattr__(self, "default", self.values[0])
        elif self.default not in self.values:
            raise ValueError("dimension %r: default %r not in values %r"
                             % (self.name, self.default, self.values))

    def describe(self) -> dict:
        return {
            "name": self.name,
            "values": list(self.values),
            "target": self.target,
            "default": self.default,
            "description": self.description,
        }


class ConfigSpace:
    """An ordered, validated set of dimensions."""

    def __init__(self, dimensions: Sequence[Dimension], name: str = "space"):
        self.name = name
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self._by_name = {}
        for dim in self.dimensions:
            if dim.name in self._by_name:
                raise ValueError("duplicate dimension %r" % dim.name)
            self._by_name[dim.name] = dim
        if not self.dimensions:
            raise ValueError("a config space needs at least one dimension")

    # -- introspection -----------------------------------------------------

    def __len__(self):
        return len(self.dimensions)

    def __contains__(self, name: str):
        return name in self._by_name

    def dimension(self, name: str) -> Dimension:
        return self._by_name[name]

    def size(self) -> int:
        """Number of distinct points (the full grid)."""
        size = 1
        for dim in self.dimensions:
            size *= len(dim.values)
        return size

    def describe(self) -> List[dict]:
        return [dim.describe() for dim in self.dimensions]

    # -- points ------------------------------------------------------------

    def default_point(self) -> Point:
        return {dim.name: dim.default for dim in self.dimensions}

    def check_point(self, point: Point) -> Point:
        """Validate and canonicalize one point (dimension order)."""
        unknown = sorted(set(point) - set(self._by_name))
        if unknown:
            raise ValueError("unknown dimension(s) %s; space %r has: %s"
                             % (", ".join(map(repr, unknown)), self.name,
                                ", ".join(self._by_name)))
        missing = [dim.name for dim in self.dimensions if dim.name not in point]
        if missing:
            raise ValueError("point is missing dimension(s): %s"
                             % ", ".join(missing))
        for dim in self.dimensions:
            if point[dim.name] not in dim.values:
                raise ValueError(
                    "dimension %r: value %r not in allowed values %r"
                    % (dim.name, point[dim.name], dim.values))
        return {dim.name: point[dim.name] for dim in self.dimensions}

    def grid(self) -> Iterator[Point]:
        """Every point, in deterministic declaration order."""
        names = [dim.name for dim in self.dimensions]
        for combo in itertools.product(*(d.values for d in self.dimensions)):
            yield dict(zip(names, combo))

    def sample(self, rng) -> Point:
        """One uniform random point from a named RNG stream."""
        return {dim.name: dim.values[rng.randrange(len(dim.values))]
                for dim in self.dimensions}

    def neighbors(self, point: Point) -> List[Point]:
        """One-dimension steps to adjacent values, declaration order.

        For each dimension the value index moves -1 then +1; the hill
        climber evaluates these in order, so the neighborhood sweep is
        deterministic.
        """
        point = self.check_point(point)
        moves = []
        for dim in self.dimensions:
            index = dim.values.index(point[dim.name])
            for step in (-1, +1):
                other = index + step
                if 0 <= other < len(dim.values):
                    neighbor = dict(point)
                    neighbor[dim.name] = dim.values[other]
                    moves.append(neighbor)
        return moves

    # -- trial plumbing ----------------------------------------------------

    def overrides(self, point: Point) -> Tuple[dict, dict, dict]:
        """Split a point into (cluster, options, run) override dicts."""
        point = self.check_point(point)
        cluster, options, run = {}, {}, {}
        buckets = {"cluster": cluster, "options": options, "run": run}
        for dim in self.dimensions:
            buckets[dim.target][dim.name] = point[dim.name]
        return cluster, options, run

    def validate(self) -> None:
        """Resolve the default point against the real config types.

        ``cluster`` dimensions must be ``ClusterConfig`` fields (or the
        ``platform`` string alias), ``options`` dimensions must be
        ``LeedOptions`` fields, and ``run`` dimensions must be knobs
        the trial driver understands.  Raises ``TypeError`` /
        ``ValueError`` with the offending name otherwise.
        """
        cluster, options, run = self.overrides(self.default_point())
        platform = cluster.pop("platform", None)
        if platform is not None:
            platform_by_name(platform)
        try:
            resolved = LeedOptions(**options)
        except TypeError as exc:
            raise TypeError("options dimension does not match LeedOptions: %s"
                            % exc) from exc
        ClusterConfig.from_overrides(options=resolved, **cluster)
        unknown_run = sorted(set(run) - set(RUN_FIELDS))
        if unknown_run:
            raise ValueError("unknown run dimension(s) %s; driver knows: %s"
                             % (", ".join(map(repr, unknown_run)),
                                ", ".join(RUN_FIELDS)))


# -- the stock spaces -------------------------------------------------------

def leed_space() -> ConfigSpace:
    """The LEED deployment design space (sim-outcome dimensions).

    Covers the knobs the paper sampled by hand plus the ones this
    reproduction grew since: flow-control tokens, partitions per
    JBOF, platform mix, and the replication protocol (a first-class
    dimension — protocol choice alone shifts the throughput/latency
    frontier on wimpy NIC cores).  ``fast_datapath`` is not one: the
    objective is sim-derived, so searching over it would optimise the
    fused GET's model error (docs/performance.md), not the design.
    Defaults reproduce the stock ``ClusterConfig`` /
    ``LeedOptions``, so "the best point beats the default" compares
    against what a user gets out of the box.
    """
    return ConfigSpace([
        Dimension("token_capacity", (48, 96, 192), "options", default=96,
                  description="flow-control token pool per partition "
                              "engine"),
        Dimension("replication_protocol", ("chain", "craq", "abd"),
                  "cluster",
                  description="write/read protocol "
                              "(repro.core.replication)"),
        Dimension("ssds_per_jbof", (2, 4), "cluster", default=4,
                  description="partitions per JBOF (1 vnode per SSD)"),
        Dimension("platform", ("stingray", "server", "pi"), "cluster",
                  description="node platform mix: SmartNIC JBOF vs "
                              "Xeon server vs Raspberry Pi"),
        Dimension("concurrency", (16, 24, 48), "run", default=24,
                  description="closed-loop requests in flight"),
    ], name="leed")


#: CLI space registry.
SPACES = {"leed": leed_space}
