"""Cluster telemetry: every component counter, named once.

The nodes, engines, stores, compactors, WALs, devices and clients keep
their own cumulative ``*Stats`` dataclasses.  This module is the one
place that knows where they live:

* :func:`components` enumerates them, each stats object once;
* :func:`counters` flattens them into ``<kind>.<field>`` sums over the
  components of a kind (``compaction.segments_dead``,
  ``client.failed_by_status.store_full``), sorted by name;
* :func:`render` formats a fixed-width text report over the same
  enumeration.

Energy is counted like any other work: ``jbof.energy_j.{idle,cpu,ssd}``
are the node's Joules by part, the closed-form integral of the power
model over the busy-time counters (:attr:`JBOFNode.energy_j`), and
``cluster.energy_joules()`` is their sum.  Reading is pure: no event
is scheduled and nothing is sampled, so a mid-run read leaves the run
exactly as it was.

Usage::

    from repro.telemetry import counters, render
    print(counters(cluster)["vnode.reads_shipped"])
    print(render(cluster))
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Iterator, Tuple, Union

Number = Union[int, float]

#: Every component kind, the first part of each counter name.
KINDS = ("jbof", "ssd", "vnode", "store", "engine", "compaction", "wal",
         "client", "flow")

#: A JBOF node keeps these counters as plain attributes, not in a
#: stats object (``energy_j``: a dict of Joules by part).
JBOF_COUNTERS = ("requests_completed", "swap_redirects", "energy_j")

#: Fields with this prefix are maxima, not running totals: they combine
#: with ``max`` over components and a run reports their level, not a
#: difference (``engine.peak_waiting``).
PEAK_PREFIX = "peak_"


def _runtime_parts(runtime) -> Iterator[Tuple[str, object]]:
    yield "vnode", runtime
    yield "store", runtime.store
    yield "engine", runtime.engine
    if runtime.compactor is not None:
        yield "compaction", runtime.compactor
    yield "wal", runtime.wal


def components(cluster) -> Iterator[Tuple[str, object]]:
    """Yield ``(kind, component)`` over every component of ``cluster``.

    Per node: the node (``jbof``), its SSDs (``ssd``), then per vnode in
    id order its runtime (``vnode``), ``store``, ``engine``,
    ``compaction`` and ``wal``, then the same for the runtimes the node
    retired or replaced (a graceful leave, a power restore, an
    upgrade), so the counters stay cumulative; then per client the
    client (``client``) and its flow controller (``flow``).  Every
    component but the node keeps its counters in ``.stats``, and each
    stats object is visited once: FAWN's store cleans its own log and
    doubles as the compactor (KVell has none), and a rebuilt runtime
    keeps its predecessor's vnode stats and WAL.
    """
    seen = set()
    for node in cluster.jbofs:
        yield "jbof", node
        for ssd in node.ssds:
            yield "ssd", ssd
        hosted = [runtime for _, runtime in sorted(node.vnodes.items())]
        for runtime in hosted + node.retired_vnodes:
            for kind, component in _runtime_parts(runtime):
                if id(component.stats) not in seen:
                    seen.add(id(component.stats))
                    yield kind, component
    for client in cluster.clients:
        yield "client", client
        yield "flow", client.flow


def _fields(kind: str, component) -> Iterator[Tuple[str, Number]]:
    """``(field, value)`` for every counter of one component: numeric
    fields as they are, a dict of numbers as ``<field>.<key>``; other
    fields (histograms) are skipped."""
    if kind == "jbof":
        owner, names = component, JBOF_COUNTERS
    else:
        owner = component.stats
        names = [spec.name for spec in fields(owner)]
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, (int, float)):
            yield name, value
        elif isinstance(value, dict):
            for key in sorted(value):
                yield "%s.%s" % (name, key), value[key]


def counters(cluster) -> Dict[str, Number]:
    """Every component counter of ``cluster`` as ``<kind>.<field>``,
    summed over the components of a kind (``peak_*`` fields: the
    maximum), sorted by name."""
    totals: Dict[str, Number] = {}
    for kind, component in components(cluster):
        for name, value in _fields(kind, component):
            key = "%s.%s" % (kind, name)
            if name.startswith(PEAK_PREFIX):
                totals[key] = max(totals.get(key, value), value)
            else:
                totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))


def delta(before: Dict[str, Number],
          after: Dict[str, Number]) -> Dict[str, Number]:
    """What a run added to the counters: ``after - before`` per name,
    except a ``peak_*`` field, which is its level at ``after``."""
    return {name: (value if name.split(".")[-1].startswith(PEAK_PREFIX)
                   else value - before.get(name, 0))
            for name, value in after.items()}


def _log_fill(store, name: str) -> float:
    log = getattr(store, name, None)
    return log.fill_fraction() if log is not None else 0.0


def _jbof_lines(node):
    energy = sum(node.energy_j.values())
    watts = energy / max((node.sim.now - node.built_at) * 1e-6, 1e-12)
    return ["", "%s  %s  cores %.0f%%  swaps %d  served %d  %.3f J %.1f W"
            % (node.address, "up" if node.alive else "DOWN",
               100 * node.cpu.mean_utilization(), node.swap_redirects,
               node.requests_completed, energy, watts)]


def _ssd_lines(ssd):
    stats = ssd.stats
    busy = min(stats.busy_time_us / max(ssd.profile.channels, 1)
               / max(ssd.sim.now, 1e-9), 1.0)
    return ["  %-16s rd %6d (%7.2f MB, %5.1f us)  "
            "wr %6d (%7.2f MB, %5.1f us)  busy %4.1f%%"
            % (ssd.name, stats.reads_completed, stats.read_bytes / 1e6,
               stats.mean_read_latency_us, stats.writes_completed,
               stats.write_bytes / 1e6, stats.mean_write_latency_us,
               100 * busy)]


def _vnode_lines(runtime):
    store, engine, stats = runtime.store, runtime.engine, runtime.stats
    # FAWN's single log reports as the key log.
    key_fill = _log_fill(store, "log") or _log_fill(store, "key_log")
    lines = ["  %-16s %-8s live %5d  klog %3.0f%% vlog %3.0f%%  "
             "tok %3d wait %2d  done %6d rej %3d"
             % (runtime.vnode_id.split("/")[-1], runtime.state,
                getattr(store, "live_objects", 0), 100 * key_fill,
                100 * _log_fill(store, "value_log"), engine.tokens,
                engine.waiting_occupancy, engine.stats.completed,
                engine.stats.rejected)]
    if (stats.reads_shipped or stats.nacks or runtime.dirty
            or stats.writes_committed):
        lines.append("  %-16s reads %d (shipped %d)  writes fwd %d "
                     "commit %d  nacks %d  dirty %d"
                     % ("", stats.reads_served, stats.reads_shipped,
                        stats.writes_forwarded, stats.writes_committed,
                        stats.nacks, len(runtime.dirty)))
    return lines


def _client_lines(client):
    stats = client.stats
    return ["%-10s ops %6d (ok %d / nf %d / fail %d)  "
            "retry %d nack %d timeout %d  lat %.0f us p50 %.0f p99 %.0f"
            % (client.address, stats.operations, stats.ok, stats.not_found,
               stats.failures, stats.retries, stats.nacks, stats.timeouts,
               stats.mean_latency_us(), stats.histogram.p50,
               stats.histogram.p99)]


#: The report's lines per component kind; kinds not listed are counted
#: by :func:`counters` but have no line of their own.
_LINES = {"jbof": _jbof_lines, "ssd": _ssd_lines, "vnode": _vnode_lines,
          "client": _client_lines}


def render(cluster) -> str:
    """A fixed-width text report: one line per node, device and hosted
    vnode (two when the vnode has replication activity), one per client;
    each node line and the header carry the Joules drawn so far (the
    ``jbof.energy_j`` counters) and their mean wall power."""
    energy = cluster.energy_joules()
    lines = ["cluster @ t=%.1f ms  ring v%d  %.3f J %.1f W"
             % (cluster.sim.now / 1e3, cluster.control_plane.ring_version,
                energy, energy / max(cluster.sim.now * 1e-6, 1e-12))]
    node = None
    for kind, component in components(cluster):
        if kind == "jbof":
            node = component
        elif kind == "vnode" and node.vnodes.get(
                component.vnode_id) is not component:
            continue  # retired: counted, not reported
        elif kind == "client" and component is cluster.clients[0]:
            lines.append("")
        format_lines = _LINES.get(kind)
        if format_lines is not None:
            lines.extend(format_lines(component))
    return "\n".join(lines)
