"""YCSB workload mixes (§4.1).

The paper evaluates six workloads — YCSB A/B/C/D/F plus a write-heavy
"WR" — on 256 B and 1 KB objects, with uniform and Zipf key
distributions at several skewness factors.  This module reproduces
the generator side: each workload yields an endless stream of
``Operation`` records a driver executes against any client API.

Mixes (standard YCSB definitions; WR per the paper's Fig. 10 use of a
write-only Zipf workload):

========  =====================================  =================
Workload  Mix                                    Distribution
========  =====================================  =================
A         50% read / 50% update                  zipfian
B         95% read / 5% update                   zipfian
C         100% read                              zipfian
D         95% read / 5% insert                   latest
F         50% read / 50% read-modify-write       zipfian
WR        100% update                            zipfian
========  =====================================  =================
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

from repro.sim.rng import RandomStream, RngRegistry
from repro.workloads.zipf import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
)

#: The YCSB default zipfian constant.
DEFAULT_SKEW = 0.99

READ = "get"
UPDATE = "put"
INSERT = "put"
RMW = "rmw"


@dataclass(frozen=True)
class Operation:
    """One generated workload operation."""

    op: str           # "get" | "put" | "rmw"
    key: bytes
    value: Optional[bytes] = None
    is_insert: bool = False


@dataclass(frozen=True)
class WorkloadSpec:
    """Mix definition for one YCSB workload."""

    name: str
    read_fraction: float
    update_fraction: float
    insert_fraction: float
    rmw_fraction: float
    distribution: str  # "zipfian" | "latest" | "uniform"


WORKLOADS = {
    "A": WorkloadSpec("YCSB-A", 0.50, 0.50, 0.0, 0.0, "zipfian"),
    "B": WorkloadSpec("YCSB-B", 0.95, 0.05, 0.0, 0.0, "zipfian"),
    "C": WorkloadSpec("YCSB-C", 1.00, 0.00, 0.0, 0.0, "zipfian"),
    "D": WorkloadSpec("YCSB-D", 0.95, 0.00, 0.05, 0.0, "latest"),
    "F": WorkloadSpec("YCSB-F", 0.50, 0.00, 0.0, 0.50, "zipfian"),
    "WR": WorkloadSpec("YCSB-WR", 0.00, 1.00, 0.0, 0.0, "zipfian"),
}


def make_key(record_id: int, prefix: str = "user") -> bytes:
    """YCSB-style key for a record id."""
    return ("%s%012d" % (prefix, record_id)).encode("ascii")


def make_value(rng: RandomStream, size: int) -> bytes:
    """A value of exactly ``size`` pseudo-random (compressible) bytes:
    ``min(size, 16)`` draws of ``getrandbits(8)``, then ``x`` padding."""
    draws = 16 if size > 16 else size
    return (bytes(map(rng.getrandbits, repeat(8, draws)))
            + b"x" * (size - 16))


class YCSBWorkload:
    """An endless operation stream for one workload mix.

    Parameters
    ----------
    workload:
        One of "A", "B", "C", "D", "F", "WR".
    num_records:
        Records loaded before the run (the key space).
    value_size:
        Object size in bytes (the paper uses 256 and 1024).
    skew:
        Zipfian constant; ignored for uniform/latest distributions.
    key_prefix:
        Namespace prefix (lets concurrent drivers share a cluster
        without aliasing).
    """

    def __init__(self, workload: str, num_records: int,
                 value_size: int = 1024, skew: float = DEFAULT_SKEW,
                 distribution: Optional[str] = None, seed: int = 0,
                 key_prefix: str = "user"):
        workload = workload.upper()
        if workload not in WORKLOADS:
            raise KeyError("unknown workload %r (have %s)"
                           % (workload, sorted(WORKLOADS)))
        self.spec = WORKLOADS[workload]
        self.num_records = num_records
        self.value_size = value_size
        self.skew = skew
        self.key_prefix = key_prefix
        registry = RngRegistry(seed)
        self.rng = registry.stream("ycsb.ops")
        chooser_rng = registry.stream("ycsb.keys")
        dist = distribution or self.spec.distribution
        if dist == "zipfian":
            self._chooser = ScrambledZipfianGenerator(
                num_records, skew, chooser_rng)
        elif dist == "uniform":
            self._chooser = UniformGenerator(num_records, chooser_rng)
        elif dist == "latest":
            self._latest = LatestGenerator(num_records, skew, chooser_rng)
            self._chooser = self._latest
        else:
            raise ValueError("unknown distribution %r" % dist)
        self.distribution = dist
        self._insert_cursor = num_records
        #: record id -> key of the records loaded before the run.
        self._keys: Dict[int, bytes] = {}

    # -- load phase ------------------------------------------------------------------

    def load_pairs(self) -> Iterator[Tuple[bytes, bytes]]:
        """The (key, value) pairs of the initial load phase."""
        for record_id in range(self.num_records):
            yield (make_key(record_id, self.key_prefix),
                   make_value(self.rng, self.value_size))

    # -- run phase ---------------------------------------------------------------------

    def next_operation(self) -> Operation:
        roll = self.rng.random()
        spec = self.spec
        if roll < spec.read_fraction:
            return Operation(READ, self._existing_key())
        roll -= spec.read_fraction
        if roll < spec.update_fraction:
            return Operation(UPDATE, self._existing_key(),
                             make_value(self.rng, self.value_size))
        roll -= spec.update_fraction
        if roll < spec.insert_fraction:
            record_id = self._insert_cursor
            self._insert_cursor += 1
            if self.distribution == "latest":
                self._latest.advance()
            return Operation(INSERT, make_key(record_id, self.key_prefix),
                             make_value(self.rng, self.value_size),
                             is_insert=True)
        # read-modify-write
        return Operation(RMW, self._existing_key(),
                         make_value(self.rng, self.value_size))

    def _existing_key(self) -> bytes:
        record_id = self._chooser.next()
        key = self._keys.get(record_id)
        if key is None:
            key = make_key(record_id, self.key_prefix)
            if record_id < self.num_records:
                self._keys[record_id] = key
        return key

    def operations(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            yield self.next_operation()

    def __iter__(self):
        while True:
            yield self.next_operation()

    def __repr__(self):
        return "<YCSBWorkload %s records=%d vsize=%d skew=%.2f>" % (
            self.spec.name, self.num_records, self.value_size, self.skew)
