"""Baseline cluster nodes: FAWN and KVell behind the LEED protocol.

Both baselines reuse the full node machinery (RPC, chain replication,
membership with COPY migration, heartbeats) with their own stores
plugged in through the :meth:`JBOFNode._make_vnode` hook; the stores
keep LEED's store contract, so COPY scans them as it scans LEED's.
Differences from LEED:

* no token admission control — the engine gets an effectively
  unbounded token pool, so execution is plain FCFS (what §4.5's
  ablation calls "w/o LS" behaviour, and what FAWN/KVell actually do);
* no CRRS and no swapping — their clients read at the tail, as in
  classic chain replication (FAWN), or round robin over replicas (a
  replicated KVell deployment).

:func:`make_cluster` builds any of the paper's three deployments:

=================  =============================  =====================
Label (§4.3)       Platform                       Store
=================  =============================  =====================
SmartNIC-LEED      Stingray PS1100R JBOFs         LEED data store
Server-KVell       Xeon server JBOFs              KVell
Embedded-FAWN      Raspberry Pi 3B+ nodes         FAWN-KV
FAWN-JBOF (§4.2)   Stingray JBOF                  FAWN-KV
KVell-JBOF (§4.2)  Stingray JBOF                  KVell
=================  =============================  =====================
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.baselines.fawn.datastore import FawnConfig, FawnDataStore
from repro.baselines.kvell.datastore import KVellConfig, KVellDataStore
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.io_engine import PartitionIOEngine
from repro.core.jbof import JBOFNode, LeedOptions, VNodeRuntime
from repro.core.protocol import ReadPolicy
from repro.hw.platforms import RASPBERRY_PI, SERVER_JBOF, STINGRAY, PlatformSpec
from repro.hw.ssd import NVMeSSD
from repro.net.topology import NIC_1G_USB, NIC_100G

#: "Unlimited" token pool: disables admission control for baselines.
UNBOUNDED_TOKENS = 1 << 20


class FawnJBOFNode(JBOFNode):
    """A node whose vnodes run the FAWN-KV store."""

    def _make_vnode(self, vnode_id: str, ssd: NVMeSSD, ssd_index: int,
                    slot: int, store_id: int) -> VNodeRuntime:
        config: FawnConfig = self.store_config
        if config.log_bytes * (slot + 1) > ssd.capacity_bytes:
            raise ValueError("FAWN log exceeds SSD capacity")
        store = FawnDataStore(
            self.sim, ssd, config,
            region_offset=slot * config.log_bytes,
            dram=self.dram,
            core=self.storage_core_for(store_id),
            name=vnode_id, store_id=store_id)
        engine = PartitionIOEngine(
            self.sim, store,
            token_capacity=UNBOUNDED_TOKENS,
            waiting_capacity=self.options.waiting_capacity,
            name=vnode_id + ".engine")
        # The FAWN store cleans its own log; it doubles as "compactor".
        return VNodeRuntime(vnode_id, store, engine, store)


class KVellJBOFNode(JBOFNode):
    """A node whose vnodes run the KVell store."""

    def _make_vnode(self, vnode_id: str, ssd: NVMeSSD, ssd_index: int,
                    slot: int, store_id: int) -> VNodeRuntime:
        config: KVellConfig = self.store_config
        if config.slab_bytes * (slot + 1) > ssd.capacity_bytes:
            raise ValueError("KVell slab exceeds SSD capacity")
        store = KVellDataStore(
            self.sim, ssd, config,
            region_offset=slot * config.slab_bytes,
            dram=self.dram,
            core=self.storage_core_for(store_id),
            name=vnode_id, store_id=store_id)
        engine = PartitionIOEngine(
            self.sim, store,
            token_capacity=UNBOUNDED_TOKENS,
            waiting_capacity=self.options.waiting_capacity,
            name=vnode_id + ".engine")
        return VNodeRuntime(vnode_id, store, engine, None)


SYSTEMS = ("leed", "fawn", "kvell")


def make_cluster(system: str = "leed", platform: str = "auto",
                 num_nodes: Optional[int] = None,
                 ssds_per_node: Optional[int] = None,
                 num_clients: int = 2, replication: int = 3,
                 store_config=None, options: Optional[LeedOptions] = None,
                 seed: int = 0, flow_control: Optional[bool] = None,
                 read_policy: Optional[ReadPolicy] = None,
                 **cluster_kwargs) -> LeedCluster:
    """Assemble one of the paper's deployments.

    ``platform`` is "stingray", "server", "pi", or "auto" (the
    platform each system was designed for: LEED→Stingray,
    KVell→server JBOF, FAWN→Raspberry Pi).  ``flow_control`` and
    ``read_policy`` default per system — LEED's intra-/inter-JBOF
    mechanisms stay on only for the LEED system; baselines run without
    flow control or CRRS, matching their original designs — and an
    explicit value (the Fig. 7 / Fig. 8 ablations) overrides that.
    """
    system = system.lower()
    if system not in SYSTEMS:
        raise ValueError("unknown system %r (have %s)" % (system, SYSTEMS))
    if platform == "auto":
        platform = {"leed": "stingray", "kvell": "server",
                    "fawn": "pi"}[system]
    spec: PlatformSpec = {
        "stingray": STINGRAY, "server": SERVER_JBOF, "pi": RASPBERRY_PI,
    }[platform]
    nic = NIC_1G_USB if platform == "pi" else NIC_100G

    if num_nodes is None:
        num_nodes = 10 if platform == "pi" else 3
    if ssds_per_node is None:
        ssds_per_node = spec.max_ssds

    node_class = {"leed": JBOFNode, "fawn": FawnJBOFNode,
                  "kvell": KVellJBOFNode}[system]
    if store_config is None:
        store_config = {
            "leed": StoreConfig(), "fawn": FawnConfig(),
            "kvell": KVellConfig(),
        }[system]
    if options is None:
        options = LeedOptions()
        if system != "leed":
            options = replace(options, enable_swap=False)

    # KVell is share-nothing with one worker per core: give each SSD
    # several worker partitions so a beefy server actually uses its
    # cores (the Stingray variant stays at 1 per SSD through
    # ``cluster_kwargs``).
    if "vnodes_per_ssd" not in cluster_kwargs and system == "kvell":
        workers = max((spec.num_cores - 2)
                      // max(min(ssds_per_node, spec.max_ssds), 1), 1)
        cluster_kwargs["vnodes_per_ssd"] = min(workers, 8)
    config = ClusterConfig(
        num_jbofs=num_nodes,
        ssds_per_jbof=min(ssds_per_node, spec.max_ssds),
        num_clients=num_clients,
        replication=replication,
        platform=spec,
        store=store_config,
        options=options,
        flow_control=(system == "leed" if flow_control is None
                      else flow_control),
        read_policy=(read_policy or {"leed": ReadPolicy.CRRS,
                                     "fawn": ReadPolicy.TAIL,
                                     "kvell": ReadPolicy.ANY}[system]),
        seed=seed,
        nic_profile=nic,
        node_class=node_class,
        **cluster_kwargs)
    return LeedCluster(config)
