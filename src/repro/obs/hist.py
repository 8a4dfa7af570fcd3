"""Fixed-bucket log-scale latency histogram.

The histogram covers 1 µs to ~16.7 s with four buckets per doubling
(growth factor 2**0.25, ~19% relative width), which is plenty of
resolution for p999 at a fixed, small memory footprint — the bounded
replacement for the unbounded raw latency lists the client used to
keep.

Percentile convention matches the raw-list quantile the repo has
always used (``index = min(int(q * n), n - 1)`` on the sorted list):
the reported value is the geometric midpoint of the bucket holding
that rank, clamped to the observed min/max, so histogram and raw
quantiles agree within one bucket width.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

#: Bucket growth factor: four buckets per doubling of latency.
GROWTH = 2.0 ** 0.25

#: Lower edge of the first finite bucket, in microseconds.
MIN_US = 1.0

#: Number of buckets: 96 buckets of x1.19 span 1 µs .. ~16.7 s.
NUM_BUCKETS = 96


def _bucket_edges() -> List[float]:
    edges = [MIN_US]
    for _ in range(NUM_BUCKETS):
        edges.append(edges[-1] * GROWTH)
    return edges


#: Precomputed upper edges; EDGES[i] is the inclusive upper bound of
#: bucket i (bucket 0 also absorbs anything below MIN_US).
EDGES = tuple(_bucket_edges()[1:])


class LatencyHistogram:
    """Log-scale histogram of latencies in microseconds."""

    __slots__ = ("counts", "_count", "_sum_us", "_min_us", "_max_us")

    def __init__(self):
        self.counts = [0] * NUM_BUCKETS
        self._count = 0
        self._sum_us = 0.0
        self._min_us: Optional[float] = None
        self._max_us: Optional[float] = None

    # -- recording ----------------------------------------------------------

    def record(self, value_us: float) -> None:
        # First bucket whose (inclusive) upper edge holds the value:
        # underflow lands in bucket 0, overflow clamps to the last.
        index = bisect_left(EDGES, value_us)
        self.counts[index if index < NUM_BUCKETS else NUM_BUCKETS - 1] += 1
        self._count += 1
        self._sum_us += value_us
        if self._min_us is None or value_us < self._min_us:
            self._min_us = value_us
        if self._max_us is None or value_us > self._max_us:
            self._max_us = value_us

    # -- inspection ---------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum_us(self) -> float:
        return self._sum_us

    @property
    def min_us(self) -> float:
        return self._min_us if self._min_us is not None else 0.0

    @property
    def max_us(self) -> float:
        return self._max_us if self._max_us is not None else 0.0

    def mean_us(self) -> float:
        """Exact mean — tracked from the raw sum, not the buckets."""
        if self._count == 0:
            return 0.0
        return self._sum_us / self._count

    def percentile(self, q: float) -> float:
        """Latency at quantile ``q`` (0..1).

        Rank convention matches the repo's historical raw-list
        quantile: ``rank = min(int(q * count), count - 1)``.  The
        returned value is the geometric midpoint of the bucket
        containing that rank, clamped to the observed range.
        """
        if self._count == 0:
            return 0.0
        rank = min(int(q * self._count), self._count - 1)
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen > rank:
                lower = MIN_US if i == 0 else EDGES[i - 1]
                upper = EDGES[i]
                mid = (lower * upper) ** 0.5
                return max(self.min_us, min(self.max_us, mid))
        return self.max_us  # pragma: no cover - counts always sum to _count

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def p999(self) -> float:
        return self.percentile(0.999)

    def to_dict(self) -> Dict[str, object]:
        """Summary + sparse buckets, ready for JSON dumps."""
        return {
            "count": self._count,
            "sum_us": self._sum_us,
            "min_us": self.min_us,
            "max_us": self.max_us,
            "mean_us": self.mean_us(),
            "p50_us": self.p50,
            "p95_us": self.p95,
            "p99_us": self.p99,
            "p999_us": self.p999,
            "buckets": {
                str(i): c for i, c in enumerate(self.counts) if c
            },
        }

    def __repr__(self):
        return "<LatencyHistogram n=%d mean=%.1fus p99=%.1fus>" % (
            self._count, self.mean_us(), self.p99)
