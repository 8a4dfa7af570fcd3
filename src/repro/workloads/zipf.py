"""Zipfian key-choice generators, YCSB-style.

Implements the Gray et al. quick-zipf algorithm used by the original
YCSB ``ZipfianGenerator`` (zeta-based inversion) plus the scrambled
variant that spreads hot keys across the key space, and the "latest"
distribution used by YCSB-D (skew toward recently-inserted records).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.sim.rng import RandomStream, derive_stream

FNV_OFFSET_BASIS_64 = 0xCBF29CE484222325
FNV_PRIME_64 = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """FNV-1a hash of an integer, as YCSB uses for key scrambling."""
    data = value.to_bytes(8, "little", signed=False)
    hashed = FNV_OFFSET_BASIS_64
    for byte in data:
        hashed ^= byte
        hashed = (hashed * FNV_PRIME_64) & 0xFFFFFFFFFFFFFFFF
    return hashed


def zeta(n: int, theta: float) -> float:
    """Generalized harmonic number sum_{i=1..n} 1/i^theta."""
    return sum(1.0 / (i ** theta) for i in range(1, n + 1))


class ZipfianGenerator:
    """Draws integers in [0, n) with Zipf(theta) popularity.

    ``theta`` is the YCSB "zipfian constant": 0 = uniform-ish, the
    YCSB default is 0.99, and the paper sweeps 0.1 … 0.99 (Figs 7, 8,
    10).  Uses the Gray et al. inversion, O(1) per sample after an
    O(n) zeta precomputation (cached per (n, theta)).
    """

    _zeta_cache: dict = {}

    def __init__(self, n: int, theta: float = 0.99,
                 rng: Optional[RandomStream] = None):
        if n < 1:
            raise ValueError("need at least one item")
        if not 0.0 <= theta < 1.0:
            raise ValueError("theta must be in [0, 1), got %r" % theta)
        self.n = n
        self.theta = theta
        self.rng = rng or derive_stream(0, "zipf.zipfian")
        cache_key = (n, round(theta, 6))
        if cache_key not in self._zeta_cache:
            self._zeta_cache[cache_key] = zeta(n, theta)
        self.zetan = self._zeta_cache[cache_key]
        self.zeta2 = zeta(2, theta)
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                    / (1.0 - self.zeta2 / self.zetan))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)

    def __iter__(self):
        while True:
            yield self.next()


class ScrambledZipfianGenerator:
    """Zipfian ranks scattered over the item space via FNV hashing.

    Matches YCSB's ``ScrambledZipfianGenerator``: popularity is
    Zipfian but *which* items are popular is pseudo-random, so hot
    keys do not cluster in one ring arc — important for the load
    imbalance experiments, where the imbalance should come from skew,
    not from adjacency.
    """

    def __init__(self, n: int, theta: float = 0.99,
                 rng: Optional[RandomStream] = None):
        self.n = n
        self._zipf = ZipfianGenerator(n, theta, rng)
        #: rank -> item, at most ``n`` entries: ``fnv1a_64`` is an
        #: 8-round Python loop, and a skewed stream repeats its ranks.
        self._items: Dict[int, int] = {}

    def next(self) -> int:
        rank = self._zipf.next()
        item = self._items.get(rank)
        if item is None:
            item = self._items[rank] = fnv1a_64(rank) % self.n
        return item

    def __iter__(self):
        while True:
            yield self.next()


class LatestGenerator:
    """YCSB's "latest" distribution: skew toward recent inserts.

    Draws a Zipf-distributed *age* and subtracts it from the current
    maximum record id; used by YCSB-D.
    """

    def __init__(self, initial_n: int, theta: float = 0.99,
                 rng: Optional[RandomStream] = None):
        self.max_id = max(initial_n - 1, 0)
        self._zipf = ZipfianGenerator(max(initial_n, 1), theta, rng)

    def advance(self) -> int:
        """Record an insert; returns the new record id."""
        self.max_id += 1
        return self.max_id

    def next(self) -> int:
        age = self._zipf.next()
        return max(self.max_id - age, 0)


class UniformGenerator:
    """Uniform key choice over [0, n)."""

    def __init__(self, n: int, rng: Optional[RandomStream] = None):
        if n < 1:
            raise ValueError("need at least one item")
        self.n = n
        self.rng = rng or derive_stream(0, "zipf.uniform")

    def next(self) -> int:
        return self.rng.randrange(self.n)

    def __iter__(self):
        while True:
            yield self.next()
