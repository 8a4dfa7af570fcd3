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
from typing import Dict, List, Optional

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
from repro.power.meter import EnergyReport, cluster_energy
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
    #: Client-side feature switches (ablations).
    flow_control: bool = True
    crrs: bool = True
    #: GET replica choice (:class:`ReadPolicy`, or its string value).
    read_policy: Optional[ReadPolicy] = None
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
    #: Partition-parallel execution (:mod:`repro.sim.parallel`).
    #: 0 = the classic single-simulator engine; 1 = sharded engine
    #: stepped in-process (one shard per JBOF plus the coordinator
    #: shard holding clients and the control plane); N >= 2 = shards
    #: spread over N OS processes (forked lazily at the first run).
    #: ``workers=1`` and ``workers=N`` produce byte-identical
    #: per-shard schedule digests and figure metrics; with
    #: ``workers >= 2`` node-object state in this process goes stale
    #: after the first run — use :meth:`LeedCluster.shard_reports`
    #: (and the probe-backed :meth:`LeedCluster.energy_joules`) for
    #: cross-shard reporting.
    workers: int = 0
    #: Order-dependence sanitizer (``repro.lint.sanitize``): break
    #: same-timestamp scheduling ties with a named RNG stream instead
    #: of FIFO order.  Serial engine only (``workers == 0``).
    sanitize: bool = False
    #: Seed for the ``sim.sanitize`` permutation stream; distinct
    #: seeds yield distinct legal schedules of the same model.
    sanitize_seed: int = 0

    def __post_init__(self):
        names = protocol_names()
        if self.replication_protocol not in names:
            raise ValueError(
                "unknown replication protocol %r; registered protocols: %s"
                % (self.replication_protocol, ", ".join(names)))

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
        self.engine = None
        if config.sanitize and config.workers > 0:
            raise ValueError(
                "sanitize mode needs workers == 0: the parallel engine's "
                "windowed dispatcher depends on FIFO tie order")
        if config.workers > 0:
            if config.workers >= 2 and config.trace_sample_interval:
                raise ValueError(
                    "request tracing needs workers <= 1: trace contexts "
                    "cannot cross worker-process boundaries")
            if config.workers >= 2 and config.metrics_interval_us > 0:
                raise ValueError(
                    "the background metrics sampler needs workers <= 1: "
                    "it reads node state across shards")
            from repro.sim.parallel import CoordinatorSimulator
            self.sim = CoordinatorSimulator()
            self._shard_sims = {0: self.sim}
            for index in range(config.num_jbofs):
                self._shard_sims[index + 1] = Simulator()
        else:
            self.sim = Simulator(sanitize=config.sanitize,
                                 sanitize_seed=config.sanitize_seed)
            self._shard_sims = {0: self.sim}
        self.rng = RngRegistry(config.seed)
        self.network = Network(self.sim)
        #: Observability layer: spans + metrics for this deployment.
        self.tracer = Tracer(self.sim)
        self.metrics = MetricsRegistry(self.sim)
        self.control_plane = ControlPlane(
            self.sim, self.network, replication=config.replication,
            heartbeat_timeout_us=config.heartbeat_timeout_us,
            replication_protocol=config.replication_protocol)
        self.jbofs: List[JBOFNode] = []
        for index in range(config.num_jbofs):
            node = config.node_class(
                self._shard_sims.get(index + 1, self.sim),
                self.network, "jbof%d" % index,
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
                flow_control=config.flow_control, crrs=config.crrs,
                read_policy=config.read_policy,
                tracer=self.tracer,
                trace_sample_interval=config.trace_sample_interval)
            if getattr(config.options, "fast_datapath", False):
                client.turbo = True
                client.flow.inline_rounds = True
                client.rpc.coalesce = True
                client.rpc.coalesce_limit = getattr(
                    config.options, "rpc_coalesce_limit", 8)
            self.clients.append(client)
            self.control_plane.subscribe(client.address)
            self.metrics.register_histogram(
                "%s.latency" % client.address, client.stats.histogram)
        if config.workers > 0:
            from repro.sim.parallel import ParallelEngine, ShardPlan
            plan = ShardPlan.for_cluster(
                self.control_plane.address,
                [client.address for client in self.clients],
                [node.address for node in self.jbofs])
            self.network.configure_shards(plan.shard_of, self._shard_sims)
            probes = {index + 1: self._node_probe(node)
                      for index, node in enumerate(self.jbofs)}
            self.engine = ParallelEngine(
                self.network, self._shard_sims, config.workers,
                probes=probes)
            self.sim.bind_engine(self.engine)
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

        Stops every JBOF's heartbeat/maintenance loop, the control
        plane's failure monitor, and the metrics sampler.  Idempotent;
        also invoked when the cluster is used as a context manager.
        """
        if self._shut_down:
            return
        # Nodes are told to stop over the network, not through object
        # references: under partition-parallel execution the live node
        # state may be in another worker process, and using the same
        # RPC in every mode keeps serial and ``workers=1`` schedules
        # identical.  The notify lands on the next ``sim.run()`` (the
        # usual "shutdown then drain" pattern); crashed nodes are
        # partitioned and simply never hear it.
        for node in self.jbofs:
            self.control_plane.rpc.notify(node.address, "node_stop", None, 16)
        self.control_plane.stop()
        self.metrics.stop()
        self._shut_down = True

    def stop_workers(self) -> None:
        """Tear down parallel worker processes (no-op otherwise).

        Call after the final ``sim.run()``: the engine snapshots every
        shard's report first, so :meth:`shard_reports` and
        :meth:`energy_joules` keep answering from the snapshot.
        """
        if self.engine is not None:
            self.engine.stop_workers()

    def settle_shards(self) -> None:
        """Complete the global cut at shard 0's clock (no-op serially).

        After ``sim.run(until=event)`` under the parallel engine, other
        shards may still hold undispatched events earlier than shard
        0's clock.  Mid-run samplers (scenario gauges, energy meters)
        call this first so they observe the same cut a serial run
        would: everything strictly before ``sim.now`` executed, and
        every shard clock advanced to ``sim.now``.
        """
        if self.engine is not None:
            self.engine.settle(self.sim.now)

    def exchange_stats(self) -> Optional[Dict[str, int]]:
        """Barrier/exchange counters from the parallel engine.

        ``None`` on the serial engine.  See
        :class:`repro.sim.parallel.ExchangeStats` for the fields.
        """
        if self.engine is None:
            return None
        return self.engine.stats.as_dict()

    def __enter__(self) -> "LeedCluster":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- scenario hooks: fault injection & elasticity ---------------------------------
    #
    # These drive the production-scenario library (repro.scenarios).
    # Fault injection models *physical environment* actions — a power
    # cord pulled, a rack losing a node — so it necessarily touches
    # node objects directly; that is only sound on the serial engine,
    # where this process owns every node's live state.  The guard
    # enforces it, and the simlint suppressions below each carry that
    # justification.

    def _injection_target(self, index: int) -> JBOFNode:
        if self.config.workers > 0:
            raise ValueError(
                "scenario fault injection needs workers == 0: node state "
                "lives in worker processes under the parallel engine")
        return self.jbofs[index]

    def _elastic_guard(self) -> None:
        """Elasticity (add/remove JBOF) is sound up to ``workers == 1``.

        Unlike physical fault injection — which mutates a remote node's
        state at shard 0's clock and would diverge from the serial
        schedule — elasticity is driven through shard-0 construction
        and control-plane RPC.  ``workers >= 2`` stays forbidden: the
        forked processes' object graphs cannot grow a new shard.
        """
        if self.config.workers > 1 or (
                self.engine is not None and self.engine.forked):
            raise ValueError(
                "scenario elasticity needs workers <= 1: forked workers' "
                "shard plans are fixed at construction")

    def crash_jbof(self, index: int) -> str:
        """Fail-stop JBOF ``index`` (heartbeats cease, traffic drops).

        Returns the crashed node's address.  The control plane's
        failure monitor will detect the silence and re-replicate.
        """
        node = self._injection_target(index)
        node.crash()  # simlint: ignore[SIM006, SIM008] -- physical fail-stop injection; serial engine enforced above
        return node.address

    def recover_jbof(self, index: int) -> str:
        """Heal a fail-stopped JBOF (network rejoin + WAL replay)."""
        node = self._injection_target(index)
        node.recover()  # simlint: ignore[SIM006, SIM008] -- physical heal injection; serial engine enforced above
        return node.address

    def power_fail_jbof(self, index: int) -> str:
        """Pull the power on JBOF ``index``: DRAM state is lost."""
        node = self._injection_target(index)
        node.power_fail()  # simlint: ignore[SIM006, SIM008] -- physical power-loss injection; serial engine enforced above
        return node.address

    def power_restore_jbof(self, index: int):
        """Generator: restore power; flash scan rebuild + WAL replay.

        Returns the node's recovery report (see
        :meth:`JBOFNode.power_restore`).
        """
        node = self._injection_target(index)
        report = yield from node.power_restore()  # simlint: ignore[SIM006, SIM008] -- physical power-restore injection; serial engine enforced above
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
        node = self._injection_target(index)
        for vnode_id in sorted(node.vnodes):
            if vnode_id in self.control_plane.vnodes:
                yield from self.control_plane.leave_vnode(vnode_id)

    def rejoin_jbof(self, index: int):
        """Generator: join every vnode on JBOF ``index`` back in."""
        node = self._injection_target(index)
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
            node = self._injection_target(index)
            yield from self.drain_jbof(index)
            node.upgrade(version)  # simlint: ignore[SIM006, SIM008] -- in-place binary replace on a drained node; serial engine enforced
            yield from self.rejoin_jbof(index)
            if pause_us > 0:
                yield self.sim.timeout(pause_us)

    def add_jbof(self):
        """Generator: provision a whole new JBOF and join its vnodes.

        Scale-out hook for the scenario autoscaler: builds a node with
        the cluster's stock geometry, registers it JOINING, then joins
        each vnode (COPY migrates the gained ranges in).  Returns the
        new node.

        Allowed up to ``workers == 1``: the sharded-but-in-process
        engine owns every object, and the new node lands on shard 0
        (the shard map defaults unlisted addresses there).  Attaching
        its NIC bumps the network's topology version, which makes the
        engine refresh its lookahead matrix — a joining NIC pair with
        a smaller cross-shard delay must tighten the windows.
        """
        self._elastic_guard()
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
        joins.  Like :meth:`add_jbof`, allowed up to ``workers == 1``;
        the drain and stop travel over control-plane RPC, and the only
        direct node access is reading its vnode set.
        """
        self._elastic_guard()
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

    @staticmethod
    def _node_probe(node):
        """Shard report payload for one JBOF, run by the owning worker."""
        return lambda: {
            "address": node.address,
            "energy_joules": cluster_energy([node.meter]),
            "requests_completed": node.requests_completed,
        }

    def enable_schedule_digests(self) -> None:
        """Turn on schedule digests for every shard simulator.

        Must be called before the first run when ``workers >= 2``
        (worker processes inherit the digest state at fork).
        """
        if self.engine is not None:
            self.engine.enable_schedule_digests()
        else:
            self.sim.enable_schedule_digest()

    def shard_reports(self) -> Dict[int, dict]:
        """Per-shard ``{now, events_dispatched, schedule_digest, ...}``.

        In parallel mode the reports come from whichever process owns
        each shard; the serial engine reports its single shard 0.
        """
        if self.engine is not None:
            return self.engine.collect()
        return {0: {
            "shard": 0,
            "now": self.sim.now,
            "events_dispatched": self.sim.events_dispatched,
            "schedule_digest": self.sim.schedule_digest,
            "digest_events": self.sim.schedule_digest_events,
        }}

    def shard_digests(self) -> Dict[int, Optional[str]]:
        """Schedule digest per shard (None when digests are disabled)."""
        return {sid: report["schedule_digest"]
                for sid, report in self.shard_reports().items()}

    def total_events_dispatched(self) -> int:
        """Events dispatched across every shard simulator."""
        if self.engine is not None:
            return sum(report["events_dispatched"]
                       for report in self.engine.collect().values())
        return self.sim.events_dispatched

    def energy_joules(self) -> float:
        """Total back-end energy so far (clients excluded, as in §4.3).

        Once parallel workers own the JBOF shards, the local node
        objects stop advancing — the figure comes from shard probes.
        """
        if self.engine is not None and self.engine.forked:
            return sum(report["probe"]["energy_joules"]
                       for report in self.engine.collect().values()
                       if "probe" in report)
        return cluster_energy([node.meter for node in self.jbofs])

    def energy_report(self, label: str = "") -> EnergyReport:
        """Requests-per-Joule summary for the run so far."""
        return EnergyReport(
            requests_completed=self.total_completed_requests(),
            elapsed_us=self.sim.now,
            energy_joules=self.energy_joules(),
            label=label)

    def all_vnode_stats(self) -> Dict[str, object]:
        """Per-vnode protocol statistics, keyed by vnode id.

        Serial-mode reporting only: with parallel workers the local
        node objects are stale fork-time copies (see
        :meth:`energy_joules` for the probe-based alternative).
        """
        stats = {}
        for node in self.jbofs:
            # Serial-mode diagnostics: workers own no vnode state here.
            for vnode_id, runtime in node.vnodes.items():  # simlint: ignore[SIM008]
                stats[vnode_id] = runtime.stats
        return stats

    def __repr__(self):
        return "<LeedCluster jbofs=%d clients=%d R=%d>" % (
            len(self.jbofs), len(self.clients), self.config.replication)
