"""Simulation-time observability: tracing spans and metrics.

The evaluation of LEED (§4) is built on *per-phase* latency
breakdowns — where a GET spends its microseconds across the NIC,
flow-control queueing, engine tokens, and flash.  This package is the
measurement substrate that produces those breakdowns for every
experiment:

* :mod:`repro.obs.spans` — a :class:`Tracer` records begin/end
  sim-timestamps per phase as a request crosses the client, RPC
  layer, JBOF dispatch, I/O engine, and device; traces export as
  Chrome-trace-viewer JSON (`chrome://tracing`, Perfetto).
* :mod:`repro.obs.hist` — a fixed-bucket log-scale
  :class:`LatencyHistogram` with p50/p95/p99/p999, the bounded
  replacement for raw latency lists.
* :mod:`repro.obs.metrics` — a :class:`MetricsRegistry` that
  snapshots cumulative counters/gauges/histograms into timeseries
  records (the scenario runner samples at every phase end).

``python -m repro.scenarios run <name> --trace PATH`` exports a run's
spans as a Chrome trace.

Everything here reads **simulated** time only (``sim.now``); two runs
with the same seed produce byte-identical trace and metrics output.
"""

from repro.obs.hist import LatencyHistogram
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, TraceContext, Tracer, span_coverage

__all__ = [
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "TraceContext",
    "Tracer",
    "span_coverage",
]
