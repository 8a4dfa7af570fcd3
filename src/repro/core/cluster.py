"""Cluster assembly: wire JBOFs, clients, and the control plane.

This is the top-level convenience API most examples and benchmarks
use::

    with LeedCluster(num_jbofs=3, num_clients=4) as cluster:
        ... drive cluster.clients[i].get/put/delete inside processes ...
        cluster.sim.run(until=...)

Entering the ``with`` block publishes the initial ring
(:meth:`LeedCluster.start`, idempotent); leaving it (or calling
:meth:`LeedCluster.shutdown`) stops the background heartbeat,
failure-monitor and metrics-sampler processes so ``sim.run()`` with
no deadline drains the event heap.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import List, Optional

from repro import telemetry
from repro.core.datastore import StoreConfig
from repro.core.client import FrontEndClient
from repro.core.jbof import JBOFNode, LeedOptions
from repro.core.membership import ControlPlane
from repro.core.protocol import ReadPolicy
from repro.core.replication import protocol_names
from repro.hw.platforms import STINGRAY, PlatformSpec
from repro.net.topology import NIC_100G, Network, NicProfile
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer
from repro.power.meter import EnergyReport
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class ClusterConfig:
    """Shape of a LEED cluster."""

    num_jbofs: int = 3
    ssds_per_jbof: int = 4
    vnodes_per_ssd: int = 1
    num_clients: int = 2
    replication: int = 3
    platform: PlatformSpec = field(default_factory=lambda: STINGRAY)
    options: LeedOptions = field(default_factory=LeedOptions)
    #: Client-side token flow control (Fig. 8 ablates it).
    flow_control: bool = True
    #: GET replica choice, the only selector: ``CRRS`` (LEED),
    #: ``TAIL`` (plain chain replication; Fig. 7's "CRRS off"), ``ANY``.
    read_policy: ReadPolicy = ReadPolicy.CRRS
    #: Replication protocol every node runs ("chain" | "craq" | "abd",
    #: or any name registered via
    #: :func:`repro.core.replication.register_protocol`).  Validated
    #: at construction: unknown names fail here, not mid-run.
    replication_protocol: str = "chain"
    seed: int = 0
    heartbeat_timeout_us: float = 200_000.0
    #: Node NIC profile (100 GbE RDMA for JBOFs, 1 GbE USB for Pis).
    nic_profile: Optional[NicProfile] = None
    #: Node implementation: JBOFNode (LEED) or a baseline subclass.
    node_class: type = JBOFNode
    #: Store config forwarded verbatim to the node class (its type
    #: depends on the node class: StoreConfig / FawnConfig / ...).
    store: object = field(default_factory=StoreConfig)
    #: Trace every Nth client request (0 disables tracing).
    trace_sample_interval: int = 0
    #: Metrics sampling period for :class:`MetricsRegistry`
    #: (0 disables the background sampler).
    metrics_interval_us: float = 0.0
    #: Only 0 is valid.  The field survives because the frozen
    #: ``leedbench/`` passes ``workers=0`` on every build; it leaves
    #: with the next benchmark-owning PR.
    workers: int = 0
    #: Order-dependence sanitizer (``repro.lint.sanitize``): with a
    #: seed, same-timestamp scheduling ties are broken by the
    #: ``sim.sanitize`` stream of that seed instead of FIFO order;
    #: distinct seeds yield distinct legal schedules of the same model.
    sanitize_seed: Optional[int] = None

    def __post_init__(self):
        names = protocol_names()
        if self.replication_protocol not in names:
            raise ValueError(
                "unknown replication protocol %r; registered protocols: %s"
                % (self.replication_protocol, ", ".join(names)))
        if self.workers != 0:
            raise ValueError(
                "workers=%r: the partition-sharded engine was deleted in "
                "PR 18 (0.2-0.9x of serial at identical figures, see "
                "docs/performance.md); only workers=0 exists"
                % (self.workers,))

    @classmethod
    def from_overrides(cls, **overrides) -> "ClusterConfig":
        """Build a config from keyword overrides, strictly validated.

        Unknown keys raise :class:`TypeError` naming the valid fields
        — a typo'd override must not silently fall back to a default.
        """
        valid = [spec.name for spec in fields(cls)]
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise TypeError(
                "unknown ClusterConfig field(s) %s; valid fields: %s"
                % (", ".join(repr(k) for k in unknown), ", ".join(valid)))
        return cls(**overrides)


class LeedCluster:
    """A complete simulated LEED deployment."""

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = ClusterConfig.from_overrides(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        self.sim = Simulator(sanitize_seed=config.sanitize_seed)
        self.rng = RngRegistry(config.seed)
        self.network = Network(self.sim)
        #: Observability layer: spans + metrics for this deployment.
        self.tracer = Tracer(self.sim)
        self.metrics = MetricsRegistry(
            self.sim, counters=lambda: telemetry.counters(self))
        self.control_plane = ControlPlane(
            self.sim, self.network, replication=config.replication,
            heartbeat_timeout_us=config.heartbeat_timeout_us,
            replication_protocol=config.replication_protocol)
        self.jbofs: List[JBOFNode] = []
        for index in range(config.num_jbofs):
            node = config.node_class(
                self.sim, self.network, "jbof%d" % index,
                spec=config.platform, num_ssds=config.ssds_per_jbof,
                vnodes_per_ssd=config.vnodes_per_ssd,
                store_config=config.store, options=config.options,
                rng=self.rng.fork("jbof%d" % index),
                nic_profile=config.nic_profile,
                control_plane_address=self.control_plane.address,
                replication_protocol=config.replication_protocol)
            self.jbofs.append(node)
            self.control_plane.register_jbof(node)
        self.clients: List[FrontEndClient] = []
        for index in range(config.num_clients):
            client = FrontEndClient(
                self.sim, self.network, "client%d" % index,
                control_plane_address=self.control_plane.address,
                flow_control=config.flow_control,
                read_policy=config.read_policy,
                tracer=self.tracer,
                trace_sample_interval=config.trace_sample_interval)
            self.clients.append(client)
            self.control_plane.subscribe(client.address)
            self.metrics.register_histogram(
                "%s.latency" % client.address, client.stats.histogram)
        self._started = False
        self._shut_down = False

    # -- lifecycle -----------------------------------------------------------------

    def start(self) -> None:
        """Publish the initial ring to every node and client."""
        if self._started:
            return
        self.control_plane.bootstrap()
        # Give clients their initial view synchronously: a deployment
        # fetches the ring before serving traffic.
        payload = self.control_plane.membership_snapshot()
        for client in self.clients:
            client.apply_membership(payload)
        if self.config.metrics_interval_us > 0:
            self.metrics.sample_every(self.config.metrics_interval_us)
        self._started = True

    def shutdown(self) -> None:
        """Stop background processes so the event heap can drain.

        Stops every JBOF (its heartbeat loop exits, and its writes no
        longer start compaction), the control plane's failure monitor,
        and the metrics sampler.  Idempotent; also invoked when the
        cluster is used as a context manager.
        """
        if self._shut_down:
            return
        # Nodes are told to stop over the network, like any other
        # control-plane command.  The notify lands on the next
        # ``sim.run()`` (the usual "shutdown then drain" pattern);
        # crashed nodes are partitioned and simply never hear it.
        for node in self.jbofs:
            self.control_plane.rpc.notify(node.address, "node_stop", None, 16)
        self.control_plane.stop()
        self.metrics.stop()
        self._shut_down = True

    # Kept for the frozen ``leedbench/``, which calls all three on every
    # repeat; they leave with the next benchmark-owning PR.

    def stop_workers(self) -> None:
        """No-op: there are no worker processes."""

    def exchange_stats(self) -> None:
        """``None``: there is no window exchange to count."""
        return None

    def total_events_dispatched(self) -> int:
        """Events dispatched so far (``sim.events_dispatched``)."""
        return self.sim.events_dispatched

    def __enter__(self) -> "LeedCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- scenario hooks: fault injection & elasticity ---------------------------------
    #
    # These drive the production-scenario library (repro.scenarios).
    # Fault injection models *physical environment* actions — a power
    # cord pulled, a rack losing a node — which no modelled message
    # carries, so it touches node objects directly; the simlint
    # suppressions below each carry that justification.

    def crash_jbof(self, index: int) -> str:
        """Fail-stop JBOF ``index`` (heartbeats cease, traffic drops).

        Returns the crashed node's address.  The control plane's
        failure monitor will detect the silence and re-replicate.
        """
        node = self.jbofs[index]
        node.crash()  # simlint: ignore[SIM006] -- physical fail-stop injection, not a message
        return node.address

    def recover_jbof(self, index: int) -> str:
        """Heal a fail-stopped JBOF (network rejoin + WAL replay)."""
        node = self.jbofs[index]
        node.recover()  # simlint: ignore[SIM006] -- physical heal injection, not a message
        return node.address

    def power_fail_jbof(self, index: int) -> str:
        """Pull the power on JBOF ``index``: DRAM state is lost."""
        node = self.jbofs[index]
        node.power_fail()  # simlint: ignore[SIM006] -- physical power-loss injection, not a message
        return node.address

    def power_restore_jbof(self, index: int):
        """Generator: restore power; flash scan rebuild + WAL replay.

        Returns the node's recovery report (see
        :meth:`JBOFNode.power_restore`).
        """
        node = self.jbofs[index]
        report = yield from node.power_restore()  # simlint: ignore[SIM006] -- physical power-restore injection, not a message
        # Power-on is control-plane-visible: stamp a fresh heartbeat so
        # the monitor doesn't count the outage gap against the node
        # before its first post-restore beat lands.
        self.control_plane.mark_alive(node.address)
        return report

    def drain_jbof(self, index: int):
        """Generator: gracefully leave every vnode on JBOF ``index``.

        The control plane migrates each range away (voluntary-leave
        COPY, §3.8.1); afterwards the node hosts no serving vnodes but
        keeps its runtimes, so :meth:`rejoin_jbof` can bring them back.
        """
        node = self.jbofs[index]
        for vnode_id in sorted(node.vnodes):
            if vnode_id in self.control_plane.vnodes:
                yield from self.control_plane.leave_vnode(vnode_id)

    def rejoin_jbof(self, index: int):
        """Generator: join every vnode on JBOF ``index`` back in."""
        node = self.jbofs[index]
        self.control_plane.mark_alive(node.address)
        for vnode_id in sorted(node.vnodes):
            yield from self.control_plane.join_vnode(vnode_id, node.address)

    def rolling_upgrade(self, version: str, pause_us: float = 0.0):
        """Generator: drain → replace → rejoin each JBOF in turn.

        The canonical zero-downtime upgrade: every node is emptied by
        voluntary leaves, its software replaced (fresh stores, new
        ``software_version``), then re-joined so COPY repopulates it —
        while the rest of the cluster keeps serving.  ``pause_us``
        inserts a settle gap between nodes (staged rollout).
        """
        for index in range(len(self.jbofs)):
            node = self.jbofs[index]
            yield from self.drain_jbof(index)
            node.upgrade(version)  # simlint: ignore[SIM006] -- in-place binary replace on a drained node, not a message
            yield from self.rejoin_jbof(index)
            if pause_us > 0:
                yield self.sim.timeout(pause_us)

    def add_jbof(self):
        """Generator: provision a whole new JBOF and join its vnodes.

        Scale-out hook for the scenario autoscaler: builds a node with
        the cluster's stock geometry, registers it JOINING, then joins
        each vnode (COPY migrates the gained ranges in).  Returns the
        new node.
        """
        config = self.config
        index = len(self.jbofs)
        node = config.node_class(
            self.sim, self.network, "jbof%d" % index,
            spec=config.platform, num_ssds=config.ssds_per_jbof,
            vnodes_per_ssd=config.vnodes_per_ssd,
            store_config=config.store, options=config.options,
            rng=self.rng.fork("jbof%d" % index),
            nic_profile=config.nic_profile,
            control_plane_address=self.control_plane.address,
            replication_protocol=config.replication_protocol)
        self.jbofs.append(node)
        self.control_plane.register_joining_jbof(node)
        for vnode_id in sorted(node.vnodes):
            yield from self.control_plane.join_vnode(vnode_id, node.address)
        return node

    def remove_jbof(self, index: int):
        """Generator: drain JBOF ``index`` and power it down.

        The scale-in counterpart of :meth:`add_jbof`: every vnode
        leaves gracefully (data migrates away), the runtimes are
        retired, and the node stops its background loops.  The node
        object stays attached (idle) — rejoining later means fresh
        joins.  The drain and stop travel over control-plane RPC; the
        only direct node access is reading its vnode set.
        """
        node = self.jbofs[index]
        for vnode_id in sorted(node.vnodes):
            if vnode_id in self.control_plane.vnodes:
                yield from self.control_plane.remove_vnode(vnode_id)
        self.control_plane.forget_jbof(node.address)
        self.control_plane.rpc.notify(node.address, "node_stop", None, 16)

    # -- convenience -----------------------------------------------------------------

    def load(self, pairs, client_index: int = 0, parallelism: int = 16):
        """Generator: bulk-load (key, value) pairs through one client."""
        client = self.clients[client_index]
        pending = []
        for key, value in pairs:
            pending.append(self.sim.process(client.put(key, value)))
            if len(pending) >= parallelism:
                yield self.sim.all_of(pending)
                pending = []
        if pending:
            yield self.sim.all_of(pending)

    def total_completed_requests(self) -> int:
        """Client-visible successful operations so far."""
        return sum(c.stats.ok + c.stats.not_found for c in self.clients)

    def energy_joules(self) -> float:
        """Total back-end energy so far (clients excluded, as in §4.3):
        the sum of the ``jbof.energy_j.*`` counters of
        :mod:`repro.telemetry`.  A pure read."""
        by_node = [node.energy_j for node in self.jbofs]
        # Each part over the nodes, then the parts: the counters' order
        # of addition, so their sum equals this to the bit.
        return sum(sum(parts[part] for parts in by_node)
                   for part in sorted(by_node[0]))

    def energy_report(self, label: str = "") -> EnergyReport:
        """Requests-per-Joule summary for the run so far."""
        return EnergyReport(
            requests_completed=self.total_completed_requests(),
            elapsed_us=self.sim.now,
            energy_joules=self.energy_joules(),
            label=label)

    def __repr__(self):
        return "<LeedCluster jbofs=%d clients=%d R=%d>" % (
            len(self.jbofs), len(self.clients), self.config.replication)
