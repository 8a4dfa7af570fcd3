"""Tracing spans over simulated time.

A :class:`Tracer` records *spans* — named intervals of simulated time
with a parent/child structure — as a request crosses the client, the
RPC layer, JBOF dispatch, the I/O engine token gate, and finally the
device.  The output renders directly in Chrome's trace viewer
(``chrome://tracing``) or Perfetto via :meth:`Tracer.chrome_trace`.

Design constraints, in order:

* **Determinism.** Span ids are assigned from a per-tracer counter,
  timestamps come from ``sim.now``, and JSON export sorts keys and
  uses canonical separators — two runs with the same seed produce
  byte-identical output.
* **Layering.** ``repro.hw`` and ``repro.net`` sit below this package
  in the import DAG and must never import it.  They receive a
  :class:`TraceContext` (or ``None``) and call ``ctx.child(...)`` /
  ``ctx.finish()`` on it; the context carries its tracer with it, so
  the lower layers stay import-free.
* **Cost.** Tracing is off unless a client's sampling interval says
  otherwise; untraced requests carry ``None`` and every instrumented
  call site is a cheap ``if ctx is not None`` guard.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class Span:
    """One named interval of simulated time.

    ``track`` groups spans into rows in the trace viewer (one row per
    simulated actor: a client, a JBOF, an SSD).  ``cat`` is the
    coarse phase bucket used by coverage accounting — ``client``,
    ``net``, ``engine``, ``device`` or ``store``.
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    track: str
    cat: str
    begin_us: float
    end_us: Optional[float] = None
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.begin_us

    @property
    def finished(self) -> bool:
        return self.end_us is not None


class TraceContext:
    """Handle threaded through the request path for one open span.

    The context bundles the tracer with the span so that code below
    the :mod:`repro.obs` layer can open children and close spans
    without importing anything — it only ever touches an object it
    was handed.
    """

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def child(self, name: str, track: Optional[str] = None, cat: str = "",
              args: Optional[Dict[str, object]] = None) -> "TraceContext":
        """Open a child span; inherits this span's track by default."""
        return self.tracer.begin(
            name,
            track=track if track is not None else self.span.track,
            cat=cat or self.span.cat,
            parent=self,
            args=args,
        )

    def finish(self, args: Optional[Dict[str, object]] = None) -> None:
        """Close the span at ``sim.now``.  Idempotent: a span that was
        already closed (e.g. by the RPC success path) keeps its first
        end timestamp; late ``args`` are still merged."""
        if args:
            self.span.args.update(args)
        if self.span.end_us is None:
            self.span.end_us = self.tracer.sim.now


class Tracer:
    """Records spans against a simulator clock and exports them.

    One tracer serves a whole cluster; per-client sampling decides
    which requests get a root span at all.  All ids are small
    deterministic integers.
    """

    def __init__(self, sim):
        self.sim = sim
        self.spans: List[Span] = []
        self._next_trace_id = 0
        self._next_span_id = 0

    # -- recording ----------------------------------------------------------

    def trace(self, name: str, track: str, cat: str = "client",
              args: Optional[Dict[str, object]] = None) -> TraceContext:
        """Begin a new trace (a root span with a fresh trace id)."""
        self._next_trace_id += 1
        return self._begin(self._next_trace_id, None, name, track, cat, args)

    def begin(self, name: str, track: str, cat: str = "",
              parent: Optional[TraceContext] = None,
              args: Optional[Dict[str, object]] = None) -> TraceContext:
        """Begin a span, optionally as a child of ``parent``."""
        if parent is not None:
            return self._begin(parent.span.trace_id, parent.span.span_id,
                               name, track, cat or parent.span.cat, args)
        self._next_trace_id += 1
        return self._begin(self._next_trace_id, None, name, track, cat, args)

    def _begin(self, trace_id: int, parent_id: Optional[int], name: str,
               track: str, cat: str,
               args: Optional[Dict[str, object]]) -> TraceContext:
        self._next_span_id += 1
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id,
            parent_id=parent_id,
            name=name,
            track=track,
            cat=cat,
            begin_us=self.sim.now,
            args=dict(args) if args else {},
        )
        self.spans.append(span)
        return TraceContext(self, span)

    # -- queries ------------------------------------------------------------

    def roots(self) -> List[Span]:
        """All root spans, in begin order."""
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    # -- export -------------------------------------------------------------

    def chrome_trace(self) -> Dict[str, object]:
        """Render spans as a Chrome trace-viewer document.

        Each finished span becomes a ``ph: "X"`` complete event; each
        track becomes a named thread (``ph: "M"`` metadata), with tids
        assigned in first-appearance order so the mapping is
        deterministic.
        """
        tids: Dict[str, int] = {}
        events: List[Dict[str, object]] = []
        for span in self.spans:
            if span.track not in tids:
                tid = len(tids) + 1
                tids[span.track] = tid
                events.append({
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": span.track},
                })
            if not span.finished:
                continue
            args: Dict[str, object] = {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
            }
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            for key in sorted(span.args):
                args[key] = span.args[key]
            events.append({
                "ph": "X",
                "pid": 1,
                "tid": tids[span.track],
                "name": span.name,
                "cat": span.cat or "span",
                "ts": span.begin_us,
                "dur": span.duration_us,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def to_json(self) -> str:
        """Canonical JSON — byte-identical across same-seed runs."""
        return json.dumps(self.chrome_trace(), sort_keys=True,
                          separators=(",", ":"))


def span_coverage(tracer: Tracer, root: Span) -> float:
    """Fraction of ``root``'s duration covered by its direct children.

    Computes the union of the child intervals clipped to the root's
    window, divided by the root duration.  This is the acceptance
    metric for end-to-end tracing: the client/net/engine/device spans
    under a request root must account for (almost) all of the
    client-measured latency.
    """
    if not root.finished or root.duration_us <= 0.0:
        return 0.0
    intervals = []
    for child in tracer.children_of(root):
        if not child.finished:
            continue
        lo = max(child.begin_us, root.begin_us)
        hi = min(child.end_us, root.end_us)
        if hi > lo:
            intervals.append((lo, hi))
    if not intervals:
        return 0.0
    intervals.sort()
    covered = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    covered += cur_hi - cur_lo
    return covered / root.duration_us
