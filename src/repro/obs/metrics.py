"""Metrics snapshots over simulated time.

A :class:`MetricsRegistry` holds gauges (zero-arg callables read at
sample time), :class:`LatencyHistogram` instances and one counter
source (a zero-arg callable returning a name → number dict; a cluster
passes ``repro.telemetry.counters`` over itself), and snapshots them
all into a timeseries record on demand (:meth:`sample_now`; the
scenario runner calls it at every phase end).  The records are plain
dicts with sorted, stable keys — ready to dump as ``BENCH_*.json``
artifacts.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.obs.hist import LatencyHistogram


class MetricsRegistry:
    """Named metrics and the timeseries records sampled from them."""

    def __init__(self, sim, counters: Callable[[], Dict[str, float]]):
        self.sim = sim
        self.records: List[Dict[str, object]] = []
        #: Read at every sample into the record's ``counters``; the
        #: registry keeps no counters of its own.
        self._counters = counters
        self._gauges: Dict[str, Callable[[], float]] = {}
        self._histograms: Dict[str, LatencyHistogram] = {}
        #: Scenario-phase tag stamped onto records (None = untagged;
        #: untagged records keep their pre-scenario shape).
        self._phase: Optional[str] = None

    # -- registration -------------------------------------------------------

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge read at every sample.  Re-registering a
        name replaces the callable."""
        self._gauges[name] = fn

    def register_histogram(self, name: str,
                           hist: Optional[LatencyHistogram] = None
                           ) -> LatencyHistogram:
        """Register (or create) a histogram under ``name``."""
        if hist is None:
            hist = LatencyHistogram()
        self._histograms[name] = hist
        return hist

    def set_phase(self, name: Optional[str]) -> None:
        """Tag subsequent samples with a scenario phase name.

        Pass ``None`` to clear.  Records taken while no phase is set
        omit the key entirely, so pre-scenario callers see identical
        bytes.
        """
        self._phase = name

    # -- sampling -----------------------------------------------------------

    def sample_now(self) -> Dict[str, object]:
        """Append and return one timeseries record at ``sim.now``."""
        record: Dict[str, object] = {
            "t_us": self.sim.now,
            "counters": dict(sorted(self._counters().items())),
            "gauges": {k: float(self._gauges[k]())
                       for k in sorted(self._gauges)},
            "histograms": {k: self._histograms[k].to_dict()
                           for k in sorted(self._histograms)},
        }
        if self._phase is not None:
            record["phase"] = self._phase
        self.records.append(record)
        return record

    # -- export -------------------------------------------------------------

    def bench_records(self, label: str) -> List[Dict[str, object]]:
        """Flatten records into one-row-per-sample dicts keyed for the
        bench harness's ``BENCH_*.json`` files: histogram summaries
        are inlined as ``<name>.p99_us`` style columns."""
        rows: List[Dict[str, object]] = []
        for record in self.records:
            row: Dict[str, object] = {"label": label, "t_us": record["t_us"]}
            if "phase" in record:
                row["phase"] = record["phase"]
            for k, v in record["counters"].items():
                row[k] = v
            for k, v in record["gauges"].items():
                row[k] = v
            for name, summary in record["histograms"].items():
                for stat in ("count", "mean_us", "p50_us", "p95_us",
                             "p99_us", "p999_us"):
                    row["%s.%s" % (name, stat)] = summary[stat]
            rows.append(row)
        return rows

    def __repr__(self):
        return "<MetricsRegistry gauges=%d histograms=%d records=%d>" % (
            len(self._gauges), len(self._histograms), len(self.records))
