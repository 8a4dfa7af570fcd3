"""Layer attribution: where host time and simulated time go.

Two folds, one per traced run:

* :func:`fold_profile` takes the ``pstats`` table of the timed phase
  under ``cProfile`` and folds every function's self time and call
  count into the fixed layer table below, by source path.  Built-ins,
  the standard library and generated code (dataclass ``__init__``)
  belong to no layer; their cost is charged to whichever layer called
  them, following pstats caller edges, so the shares sum to 100 %.
  Cross-layer caller→callee edges are kept as boundary spans.
* :func:`fold_spans` takes the tracer's spans of the timed phase and
  computes self time per span name: a span's duration minus the
  **union** of its children's intervals.  Chain replication fans out in
  parallel, so children overlap and a plain sum would go negative.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer -> path prefixes under ``repro/`` (longest match wins).  The
#: layers are the repository's modules; ``bench`` is this benchmark's
#: own driver and ``other`` catches any ``repro`` file not listed, so a
#: new module shows up as a growing ``other`` instead of vanishing.
LAYER_PREFIXES: Dict[str, Tuple[str, ...]] = {
    "sim": ("sim/",),
    "net": ("net/",),
    "hw": ("hw/",),
    "core.client": ("core/client.py", "core/flow_control.py"),
    "core.jbof": ("core/jbof.py", "core/cluster.py", "core/membership.py",
                  "core/protocol.py", "core/hashring.py"),
    "core.io_engine": ("core/io_engine.py",),
    "core.datastore": ("core/datastore.py", "core/circular_log.py",
                       "core/segment.py", "core/segtbl.py",
                       "core/compaction.py", "core/recovery.py"),
    "core.replication": ("core/replication/", "core/wal.py"),
    "obs": ("obs/", "telemetry.py"),
    "power": ("power/",),
    "workloads": ("workloads/",),
}
BENCH_LAYER = "bench"
OTHER_LAYER = "other"
LAYERS: Tuple[str, ...] = tuple(LAYER_PREFIXES) + (BENCH_LAYER, OTHER_LAYER)

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_PREFIX_TABLE = sorted(
    ((prefix, layer) for layer, prefixes in LAYER_PREFIXES.items()
     for prefix in prefixes),
    key=lambda item: -len(item[0]))


def layer_of(filename: str) -> Optional[str]:
    """Layer owning source file ``filename``; None for built-ins/stdlib."""
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0:
        relative = path[marker + len("/repro/"):]
        for prefix, layer in _PREFIX_TABLE:
            if relative.startswith(prefix):
                return layer
        return OTHER_LAYER
    if os.path.abspath(filename).startswith(_BENCH_DIR):
        return BENCH_LAYER
    return None


def fold_profile(stats: Dict[tuple, tuple]) -> dict:
    """Fold a ``pstats.Stats(...).stats`` table into the layer table.

    Returns ``{"self_s": {layer: s}, "calls": {layer: n}, "share_pct":
    {layer: %}, "total_s", "total_calls", "edges": {"a->b": {"calls",
    "inclusive_s"}}}``.  ``calls`` counts every profiler call event
    (one per generator resume), which is what makes it exact.
    """
    owner: Dict[tuple, Optional[str]] = {
        func: layer_of(func[0]) for func in stats}
    memo: Dict[tuple, Dict[str, float]] = {}

    def charge_of(func: tuple, field: int, trail: frozenset
                  ) -> Dict[str, float]:
        """Layer fractions (summing to 1) that pay for ``func``.

        ``field`` picks the caller-edge weight: 0 = calls made, 2 =
        the callee's self time under that caller.
        """
        layer = owner.get(func)
        if layer is not None:
            return {layer: 1.0}
        if (func, field) in memo:
            return memo[(func, field)]
        weights: Dict[str, float] = {}
        total = 0.0
        for caller, edge in sorted(stats[func][4].items()):
            if caller in trail or caller == func or caller not in stats:
                continue
            weight = float(edge[field])
            if weight <= 0.0:
                continue
            shares = charge_of(caller, field, trail | {func})
            for name, fraction in shares.items():
                weights[name] = weights.get(name, 0.0) + weight * fraction
            total += weight
        if total > 0.0:
            result = {name: weight / total for name, weight in weights.items()}
        elif field != 0:
            # Self time too small to register on any edge: go by calls.
            result = charge_of(func, 0, trail)
        else:
            # A root frame (the profiler's own entry) has no caller.
            result = {BENCH_LAYER: 1.0}
        if not trail:
            memo[(func, field)] = result
        return result

    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0.0 for layer in LAYERS}
    edges: Dict[str, Dict[str, float]] = {}
    # Sorted: float sums must not depend on the profiler's table order.
    for func, (_cc, ncalls, tottime, _cum, callers) in sorted(stats.items()):
        for layer, fraction in charge_of(func, 2, frozenset()).items():
            self_s[layer] += tottime * fraction
        for layer, fraction in charge_of(func, 0, frozenset()).items():
            calls[layer] += ncalls * fraction
        callee_layer = owner[func]
        if callee_layer is None:
            continue
        for caller, edge in callers.items():
            caller_layer = owner.get(caller)
            if caller_layer is None or caller_layer == callee_layer:
                continue
            record = edges.setdefault(
                "%s->%s" % (caller_layer, callee_layer),
                {"calls": 0, "inclusive_s": 0.0})
            record["calls"] += edge[0]
            record["inclusive_s"] += edge[3]
    total_s = sum(self_s.values())
    return {
        "self_s": self_s,
        "calls": calls,
        "share_pct": {layer: (100.0 * value / total_s if total_s else 0.0)
                      for layer, value in self_s.items()},
        "total_s": total_s,
        "total_calls": sum(calls.values()),
        "edges": edges,
    }


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    cursor = None
    for low, high in sorted(intervals):
        if cursor is None or low > cursor:
            covered += high - low
            cursor = high
        elif high > cursor:
            covered += high - cursor
            cursor = high
    return covered


def fold_spans(spans: List, since_us: float) -> dict:
    """Self time per span name over traces rooted at or after ``since_us``.

    ``spans`` are ``repro.obs.spans.Span`` objects.  Unfinished spans
    are ignored.  Returns ``{"roots": n, "self_us": {name: us},
    "count": {name: n}}``; self time is never negative.
    """
    finished = [span for span in spans if span.end_us is not None]
    timed_traces = {span.trace_id for span in finished
                    if span.parent_id is None and span.begin_us >= since_us}
    children: Dict[int, List] = {}
    for span in finished:
        if span.trace_id in timed_traces and span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    self_us: Dict[str, float] = {}
    count: Dict[str, int] = {}
    for span in finished:
        if span.trace_id not in timed_traces:
            continue
        clipped = [(max(child.begin_us, span.begin_us),
                    min(child.end_us, span.end_us))
                   for child in children.get(span.span_id, ())]
        covered = union_length((low, high) for low, high in clipped
                               if high > low)
        own = max(span.end_us - span.begin_us - covered, 0.0)
        self_us[span.name] = self_us.get(span.name, 0.0) + own
        count[span.name] = count.get(span.name, 0) + 1
    return {"roots": len(timed_traces), "self_us": self_us, "count": count}
