"""The one adapter between the benchmark and the model's counters.

Every model counter the per-layer metrics use is read here and nowhere
else: ``ssd.stats``, ``engine.stats``, ``runtime.stats``,
``runtime.wal.stats``, ``compactor.stats``, ``store.stats``,
``client.stats`` / ``client.flow.stats``, RPC endpoint and NIC
counters, core busy time and the power meters.  A counter that no
longer exists raises :class:`MissingCounter` naming it, so a stats
refactor breaks this file loudly instead of turning a metric into a
silent 0.

:func:`read` returns a flat ``name -> number`` snapshot; counters are
cumulative, so the benchmark subtracts the snapshot taken at the start
of the timed phase (:func:`delta`).  Names ending in ``.gauge`` are
levels or sizes read at the end of the phase and are not subtracted.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List


class MissingCounter(AttributeError):
    """A model counter the benchmark reads has been removed or renamed."""


class _Reader:
    """Accumulates ``name -> value`` and the names that failed to read."""

    def __init__(self):
        self.values: Dict[str, float] = {}
        self.missing: List[str] = []

    def add(self, name: str, objects: Iterable, get: Callable,
            combine: Callable = sum) -> None:
        """``values[name] = combine(get(obj) for obj in objects)``."""
        try:
            self.values[name] = combine([get(obj) for obj in objects])
        except AttributeError as error:
            self.missing.append("%s (%s)" % (name, error))


def read(cluster) -> Dict[str, float]:
    """Snapshot every counter the per-layer metrics are built from."""
    reader = _Reader()
    nodes = cluster.jbofs
    clients = cluster.clients
    runtimes = [runtime for node in nodes for runtime in node.vnodes.values()]
    ssds = [ssd for node in nodes for ssd in node.ssds]
    cores = [core for node in nodes for core in node.cpu.cores]
    endpoints = ([client.rpc for client in clients]
                 + [node.rpc for node in nodes]
                 + [cluster.control_plane.rpc])
    nics = [cluster.network.nic(endpoint.address) for endpoint in endpoints]

    reader.add("net.calls_sent", endpoints, lambda e: e.calls_sent)
    reader.add("net.notifications_sent", endpoints,
               lambda e: e.notifications_sent)
    reader.add("net.tx_bytes", nics, lambda n: n.tx_bytes)

    reader.add("hw.ssd_reads", ssds, lambda s: s.stats.reads_completed)
    reader.add("hw.ssd_writes", ssds, lambda s: s.stats.writes_completed)
    reader.add("hw.ssd_write_bytes", ssds, lambda s: s.stats.write_bytes)
    reader.add("hw.ssd_busy_us", ssds, lambda s: s.stats.busy_time_us)
    reader.add("hw.ssd_channels.gauge", ssds, lambda s: s.profile.channels)
    reader.add("hw.ssd_queue_wait_us", ssds, lambda s: s.stats.queue_wait_us)
    reader.add("hw.cpu_busy_us", cores, lambda c: c.busy_time_us)
    reader.add("hw.cpu_cores.gauge", cores, lambda c: 1)

    reader.add("io_engine.completed", runtimes,
               lambda r: r.engine.stats.completed)
    reader.add("io_engine.rejected", runtimes,
               lambda r: r.engine.stats.rejected)
    reader.add("io_engine.wait_us", runtimes,
               lambda r: r.engine.stats.total_wait_us)
    reader.add("io_engine.peak_waiting.gauge", runtimes,
               lambda r: r.engine.stats.peak_waiting, max)

    reader.add("client.retries", clients, lambda c: c.stats.retries)
    reader.add("client.timeouts", clients, lambda c: c.stats.timeouts)
    reader.add("client.flow_deferred", clients,
               lambda c: c.flow.stats.deferred)
    reader.add("client.flow_wait_us", clients,
               lambda c: c.flow.stats.queue_wait.sum_us)
    reader.add("client.flow_waits", clients,
               lambda c: c.flow.stats.queue_wait.count)

    reader.add("datastore.get_retries", runtimes,
               lambda r: r.store.stats.get_retries)
    reader.add("datastore.key_log_fill.gauge", runtimes,
               lambda r: r.store.key_log.fill_fraction(), max)
    reader.add("datastore.value_log_fill.gauge", runtimes,
               lambda r: r.store.value_log.fill_fraction(), max)
    reader.add("datastore.compaction_rounds", runtimes,
               lambda r: r.compactor.stats.key_rounds
               + r.compactor.stats.value_rounds)
    reader.add("datastore.compaction_busy_us", runtimes,
               lambda r: r.compactor.stats.busy_time_us)
    reader.add("datastore.partitions.gauge", runtimes, lambda r: 1)
    reader.add("datastore.segments_relocated", runtimes,
               lambda r: r.compactor.stats.segments_relocated)
    reader.add("datastore.bytes_reclaimed", runtimes,
               lambda r: r.compactor.stats.key_bytes_reclaimed
               + r.compactor.stats.value_bytes_reclaimed)

    reader.add("replication.writes_forwarded", runtimes,
               lambda r: r.stats.writes_forwarded)
    reader.add("replication.reads_served", runtimes,
               lambda r: r.stats.reads_served)
    reader.add("replication.reads_shipped", runtimes,
               lambda r: r.stats.reads_shipped)
    reader.add("replication.nacks", runtimes, lambda r: r.stats.nacks)
    reader.add("replication.wal_appends", runtimes,
               lambda r: r.wal.stats.appended)

    reader.add("jbof.swap_redirects", nodes, lambda n: n.swap_redirects)
    reader.add("power.joules", [cluster], lambda c: c.energy_joules())

    if reader.missing:
        raise MissingCounter(
            "model counters missing (update leedbench/probes.py): "
            + "; ".join(reader.missing))
    return reader.values


def delta(before: Dict[str, float], after: Dict[str, float]
          ) -> Dict[str, float]:
    """Counters accrued between two snapshots; ``.gauge`` gauges pass through."""
    return {name: (value if name.endswith(".gauge")
                   else value - before[name])
            for name, value in after.items()}
