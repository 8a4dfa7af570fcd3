"""The LEED JBOF server node (§3.1.2, §3.4, §3.6, §3.7, §3.8).

One :class:`JBOFNode` models a SmartNIC JBOF: SSDs, the SoC cores with
the paper's static core mapping (cores 0..n-1 drive SSDs, the next
cores poll the RDMA receive queues, the last one runs control-plane
tasks), DRAM, a wall-power model, and a set of *virtual nodes* — one
LEED data store + token I/O engine + compactor per partition.

The node implements:

* the CRRS write path: non-tail replicas mark the key dirty, execute,
  and forward; the tail commits, replies **directly to the client**
  with a one-sided WRITE, and starts the backward ack cascade;
* the CRRS read path: a clean replica serves locally, a dirty one
  ships the request envelope to the tail;
* hop-counter view validation with NACKs (§3.8.1);
* the COPY primitive for join/leave data migration;
* intra-JBOF data swapping of overloaded writes (§3.6);
* heartbeats to the control plane;
* compaction: a write that finds a hosted store's log past its
  watermark kicks one maintenance pass over every vnode, at most one
  pass at a time and none while the node is down (no poll).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import cycle
from typing import Dict, List, Optional, Tuple

from repro.core.compaction import Compactor, Trigger
from repro.core.datastore import LeedDataStore, OpResult, StoreConfig
from repro.core.hashring import HashRing, in_arcs, ring_position
from repro.core.io_engine import (
    TOKEN_COST,
    KVCommand,
    OverloadError,
    PartitionIOEngine,
)
from repro.core.protocol import (
    STATUS_NACK,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_STORE_FULL,
    STATUS_UNAVAILABLE,
    CopyBatch,
    Heartbeat,
    KVReply,
    KVRequest,
    MembershipUpdate,
)
from repro.core.replication import make_policy
from repro.core.wal import WriteAheadLog
from repro.hw.cpu import CYCLE_COSTS, CpuComplex
from repro.hw.dram import Dram
from repro.hw.platforms import STINGRAY, PlatformSpec
from repro.hw.ssd import NVMeSSD
from repro.net.rpc import RpcEndpoint, RpcRequest
from repro.net.topology import Network, NicProfile, NIC_100G
from repro.power.meter import energy_j
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

#: Data-store result status -> wire status (others pass through).
_REPLY_STATUS = {
    "ok": STATUS_OK,
    "not_found": STATUS_NOT_FOUND,
    "store_full": STATUS_STORE_FULL,
}

#: Net-core cycles to parse and dispatch one request.
_RPC_RECEIVE_CYCLES = CYCLE_COSTS["rpc_receive"]

#: Virtual-node lifecycle states (§3.8).
JOINING = "JOINING"
RUNNING = "RUNNING"
LEAVING = "LEAVING"


@dataclass
class LeedOptions:
    """Feature switches for the ablation experiments."""

    #: Intra-JBOF write swapping (Fig. 10).
    enable_swap: bool = True
    #: Waiting-queue depth that marks an engine overloaded.
    swap_threshold: int = 6
    #: Token pool per partition engine.
    token_capacity: int = 96
    #: Waiting queue capacity per partition engine.
    waiting_capacity: int = 96
    #: Heartbeat period, µs.
    heartbeat_period_us: float = 50_000.0
    #: The fused GET (docs/performance.md) and nothing else: an
    #: untraced GET is dispatched when it arrives and served on the
    #: analytic clock (``store.get_at``) without a process.  Clients,
    #: RPC and every write run the same code either way.  Read in one
    #: place, :meth:`JBOFNode._handle_kv`.  Default off: paper figures
    #: come from the reference pipeline.
    fast_datapath: bool = False
    #: No reader.  The field survives because the frozen ``leedbench/``
    #: passes ``admission_batch=8``; it leaves with the next
    #: benchmark-owning PR.
    admission_batch: int = 1


@dataclass
class VNodeStats:
    """Per-virtual-node protocol statistics."""

    writes_forwarded: int = 0
    writes_committed: int = 0
    #: Write attempts refused because they surfaced from a congested
    #: queue after the issuing client's per-attempt deadline (zombie
    #: duplicates of retried writes).
    writes_expired: int = 0
    reads_served: int = 0
    reads_shipped: int = 0
    nacks: int = 0
    copies_in: int = 0
    copies_out: int = 0
    #: Migration pairs refused by the per-key stamp guard (a COPY scan
    #: snapshot arriving after a newer mirrored write).
    copies_stale: int = 0
    version_queries: int = 0
    version_query_bytes: int = 0
    #: Quorum-protocol counters (ABD): phase rounds this vnode
    #: coordinated, commits it applied as a replica, bytes its
    #: coordinator sent, and reads that triggered write-back repair.
    quorum_queries: int = 0
    quorum_commits: int = 0
    quorum_bytes: int = 0
    read_repairs: int = 0


class VNodeRuntime:
    """One virtual node hosted on this JBOF."""

    def __init__(self, vnode_id: str, store: LeedDataStore,
                 engine: PartitionIOEngine, compactor: Compactor):
        self.vnode_id = vnode_id
        self.store = store
        self.engine = engine
        self.compactor = compactor
        self.state = RUNNING
        #: Dirty-key map for CRRS: key -> count of uncommitted writes.
        self.dirty: Dict[bytes, int] = defaultdict(int)
        #: Per-key versions for the CRAQ-style alternative: the version
        #: this replica has applied, and (on the tail) the committed one.
        self.applied_version: Dict[bytes, int] = {}
        self.committed_version: Dict[bytes, int] = {}
        #: Replication-intent journal (capacitor-backed NVRAM model);
        #: policies append before executing a replicated write and
        #: retire on acknowledgment (see :mod:`repro.core.wal`).
        self.wal = WriteAheadLog(vnode_id)
        #: Highest migration stamp applied per key while this vnode is
        #: a COPY/mirror destination (see CopyBatch.versions), with the
        #: source vnode when a mirror brought it: stale scan snapshots
        #: arriving after a newer mirrored write are refused instead of
        #: rolling the key back.
        self.migration_stamps: Dict[bytes, tuple] = {}
        #: ``(ssd_index, slot, store_id)`` it was built with
        #: (:meth:`JBOFNode.add_vnode`); a rebuild reuses them.
        self.placement: Optional[Tuple[int, int, int]] = None
        self.stats = VNodeStats()

    def mark_dirty(self, key: bytes) -> None:
        """Note an uncommitted write (CRRS dirty bit, §3.7)."""
        self.dirty[key] += 1

    def clear_dirty(self, key: bytes) -> None:
        """Drop one uncommitted-write reference (backward ack)."""
        count = self.dirty.get(key, 0)
        if count <= 1:
            self.dirty.pop(key, None)
        else:
            self.dirty[key] = count - 1

    def is_dirty(self, key: bytes) -> bool:
        """Whether any write to ``key`` is awaiting its tail commit."""
        return self.dirty.get(key, 0) > 0


class JBOFNode:
    """A SmartNIC JBOF running the LEED stack."""

    def __init__(self, sim: Simulator, network: Network, address: str,
                 spec: PlatformSpec = STINGRAY, num_ssds: int = 4,
                 vnodes_per_ssd: int = 1,
                 store_config: Optional[StoreConfig] = None,
                 options: Optional[LeedOptions] = None,
                 rng: Optional[RngRegistry] = None,
                 nic_profile: Optional[NicProfile] = None,
                 control_plane_address: Optional[str] = None,
                 replication_protocol: str = "chain"):
        if num_ssds < 1 or num_ssds > spec.max_ssds:
            raise ValueError("platform %s takes 1..%d SSDs"
                             % (spec.name, spec.max_ssds))
        self.sim = sim
        self.network = network
        self.address = address
        self.spec = spec
        self.options = options or LeedOptions()
        self.store_config = store_config or StoreConfig()
        self.rng = rng or RngRegistry()
        self.control_plane_address = control_plane_address

        network.attach(address, nic_profile or NIC_100G)
        self.rpc = RpcEndpoint(sim, network, address)
        self.cpu = CpuComplex(sim, spec.num_cores, spec.freq_ghz,
                              name=address + ".cpu")
        self.dram = Dram(spec.dram_bytes, spec.dram_bandwidth_bpus,
                         name=address + ".dram")
        self.ssds = [NVMeSSD(sim, spec.ssd_profile, rng=self.rng,
                             name="%s.nvme%d" % (address, i))
                     for i in range(num_ssds)]
        #: Power is billed from here on: a node added mid-run
        #: (``LeedCluster.add_jbof``) draws nothing before it exists.
        self.built_at = sim.now

        # Static core mapping (§3.4): one core per SSD for storage I/O,
        # remaining cores (minus the control core) poll the network.
        self._storage_cores = [self.cpu[i % max(spec.num_cores - 1, 1)]
                               for i in range(num_ssds)]
        net_core_ids = list(range(num_ssds, spec.num_cores - 1)) or [0]
        self._net_cores = [self.cpu[i] for i in net_core_ids]
        #: The net core that takes the next request: round robin.
        self._net_core = cycle(self._net_cores).__next__
        self._control_core = self.cpu[spec.num_cores - 1]

        #: Every hosted store's ``on_pressure`` hook (through
        #: :meth:`_on_pressure`): one maintenance pass at a time.
        self._maintenance = Trigger(sim, self._maintenance_pass,
                                    name=address + ".maintenance")
        #: vnode_id -> runtime; changed through :meth:`install_vnode`
        #: and :meth:`_handle_vnode_retire`, which keep the store ->
        #: runtime index the swap router reads in step.
        self.vnodes: Dict[str, VNodeRuntime] = {}
        self._runtime_by_store: Dict[object, VNodeRuntime] = {}
        #: Runtimes those two replaced or dropped, oldest first: they
        #: serve nothing, but their work stays in the cluster's
        #: cumulative counters (:mod:`repro.telemetry`).
        self.retired_vnodes: List[VNodeRuntime] = []
        self._build_vnodes(num_ssds, vnodes_per_ssd)

        #: This node's view of the ring (updated by membership pushes).
        self.local_ring: HashRing = HashRing([], replication=3, version=0)

        self.requests_completed = 0
        self.swap_redirects = 0
        self.alive = True
        #: Set between :meth:`power_fail` and :meth:`power_restore`.
        self._powered_off = False
        #: Software identity, bumped by :meth:`upgrade` during rolling
        #: upgrades (scenario hooks; purely reporting).
        self.software_version = "v1"
        #: Whether the heartbeat loop is live — :meth:`recover`
        #: respawns it if it exited while the node was down.
        self._heartbeat_running = False
        #: Active migration mirrors: src vnode -> the ``do_copy`` bodies
        #: that started them (no empty lists).  From ``do_copy`` until
        #: the ring push that ends the migration, writes committed here
        #: in a mirror's arcs are also shipped to its destination.
        self._mirrors: Dict[str, List[dict]] = {}
        #: Crash-recovery WAL replay report (None until a recover()
        #: found journaled intents to replay).
        self.wal_recovery: Optional[dict] = None

        #: The replication protocol driving this node's write fan-out,
        #: read resolution, and recovery replay.
        self.policy = make_policy(replication_protocol, self)

        self.rpc.register_sync("kv", self._handle_kv)
        self.policy.register_handlers()
        self.rpc.register("copy_batch", self._handle_copy_batch)
        self.rpc.register("copy_mirror", self._handle_copy_mirror)
        self.rpc.register("do_copy", self._handle_do_copy)
        self.rpc.register("node_stop", self._handle_node_stop)
        self.rpc.register("membership", self._handle_membership)
        self.rpc.register("vnode_retire", self._handle_vnode_retire)
        self._spawn_background()

    # -- construction -------------------------------------------------------------

    def _build_vnodes(self, num_ssds: int, vnodes_per_ssd: int) -> None:
        store_id = 0
        all_stores: List[object] = []
        for ssd_index in range(num_ssds):
            for slot in range(vnodes_per_ssd):
                runtime = self.add_vnode("%s/p%d" % (self.address, store_id),
                                         ssd_index, slot, store_id)
                all_stores.append(runtime.store)
                store_id += 1
        self._cross_register(all_stores)

    def add_vnode(self, vnode_id: str, ssd_index: int, slot: int,
                  store_id: int) -> VNodeRuntime:
        """Build a vnode in region ``slot`` of SSD ``ssd_index`` and host
        it (:meth:`install_vnode`); returns its runtime.  Its store is
        not cross-registered with its co-located peers, so swapped
        values never land there."""
        runtime = self._make_vnode(vnode_id, self.ssds[ssd_index], ssd_index,
                                   slot, store_id)
        runtime.placement = (ssd_index, slot, store_id)
        self.install_vnode(runtime)
        return runtime

    def install_vnode(self, runtime: VNodeRuntime) -> None:
        """Host ``runtime`` under its vnode id, replacing the runtime
        (and forgetting the store) hosted there before.  A store with a
        compactor kicks this node's maintenance from its writes."""
        previous = self.vnodes.get(runtime.vnode_id)
        if previous is not None and previous is not runtime:
            self._runtime_by_store.pop(previous.store, None)
            self.retired_vnodes.append(previous)
        self.vnodes[runtime.vnode_id] = runtime
        self._runtime_by_store[runtime.store] = runtime
        if runtime.compactor is not None:
            runtime.store.on_pressure = self._on_pressure

    def _make_vnode(self, vnode_id: str, ssd: NVMeSSD, ssd_index: int,
                    slot: int, store_id: int) -> VNodeRuntime:
        """Create one vnode runtime.  Baseline nodes override this to
        host FAWN or KVell stores behind the same protocol machinery."""
        config = self.store_config
        per_store = config.total_bytes()
        if per_store * (slot + 1) > ssd.capacity_bytes:
            raise ValueError(
                "store %d of %d bytes exceeds SSD capacity %d"
                % (slot, per_store, ssd.capacity_bytes))
        store = LeedDataStore(
            self.sim, ssd, config,
            region_offset=slot * per_store,
            dram=self.dram,
            core=self.storage_core_for(store_id),
            name=vnode_id,
            store_id=store_id)
        engine = PartitionIOEngine(
            self.sim, store,
            token_capacity=self.options.token_capacity,
            waiting_capacity=self.options.waiting_capacity,
            name=vnode_id + ".engine")
        compactor = Compactor(store)
        return VNodeRuntime(vnode_id, store, engine, compactor)

    def storage_core_for(self, store_id: int) -> object:
        """Core owning a partition: spread partitions over the
        non-control cores (one per SSD on the Stingray; one per
        worker on a many-core server)."""
        return self.cpu[store_id % max(self.spec.num_cores - 1, 1)]

    def _cross_register(self, all_stores: List[object]) -> None:
        """Cross-register co-located LEED stores for swap & merge-back."""
        leed_stores = [s for s in all_stores if isinstance(s, LeedDataStore)]
        for store in leed_stores:
            for peer in leed_stores:
                store.peer_value_logs[peer.store_id] = peer.value_log
                store.peer_stores[peer.store_id] = peer
            if self.options.enable_swap:
                store.value_router = self._swap_router

    # -- power ------------------------------------------------------------------------

    @property
    def energy_j(self) -> Dict[str, float]:
        """Joules drawn since the node was built, by part
        (:func:`repro.power.meter.energy_j`): a pure read of the cores'
        and SSDs' busy-time counters."""
        cores, ssds = self.cpu.cores, self.ssds
        return energy_j(
            self.spec, self.sim.now - self.built_at,
            sum(core.busy_time_us for core in cores) / len(cores),
            sum(ssd.stats.busy_time_us / max(ssd.profile.channels, 1)
                for ssd in ssds) / len(ssds))

    # -- swap routing (§3.6) ------------------------------------------------------------

    def _swap_router(self, store: LeedDataStore, key: bytes,
                     value: bytes) -> tuple:
        """Value placement: home SSD unless its engine is overloaded.

        When the home partition's waiting queue exceeds the threshold
        and a co-located partition on a *different* SSD has spare
        capacity, the value write is redirected there; the key item
        records the holder so GETs and merge-back find it.
        """
        home = self._runtime_by_store.get(store)
        # Overloaded: a waiting queue at least the threshold deep.
        if (home is None or len(home.engine.waiting.items)
                < self.options.swap_threshold):
            return store.store_id, store.value_log
        best = None
        best_tokens = -1
        for runtime in self.vnodes.values():
            peer = runtime.store
            if peer.ssd is store.ssd:
                continue
            if peer.store_id not in store.peer_stores:
                # Not cross-registered (a vnode joined after build):
                # GETs could not resolve a value swapped there.
                continue
            if peer.value_log.free_bytes < len(value) + len(key) + 64:
                continue
            gap = (home.engine.waiting_occupancy
                   - runtime.engine.waiting_occupancy)
            if gap < self.options.swap_threshold // 2:
                continue
            if runtime.engine.tokens > best_tokens:
                best = peer
                best_tokens = runtime.engine.tokens
        if best is None:
            return store.store_id, store.value_log
        self.swap_redirects += 1
        return best.store_id, best.value_log

    # -- request handling (CRRS, §3.7) -----------------------------------------------------

    def _handle_kv(self, src: str, request: RpcRequest) -> None:
        """Synchronous raw handler (the response may be produced by
        another node): charge ``rpc_receive`` on a net core, dispatch.

        The reference pipeline dispatches when that CPU slice ends
        (:meth:`_serve_kv`).  ``fast_datapath`` (docs/performance.md) books
        an untraced GET's slice on the core's calendar (busy accounting
        unchanged) without waiting out the sub-microsecond charge: the
        GET is dispatched right here, and on a clean replica — the bulk
        of read traffic — served callback-style with no process at all;
        elsewhere its handler process starts right here too.
        """
        body: KVRequest = request.body
        if (self.options.fast_datapath and body.op == "get"
                and body.trace is None):
            self._net_core().charge_at(_RPC_RECEIVE_CYCLES, self.sim.now)
            serve = self._dispatch_kv(request, body, fused=True)
            if serve is not None:
                self.sim.process_inline(serve,
                                        name="rpc-raw-kv@" + self.address)
            return
        ctx = None
        if body.trace is not None:
            ctx = body.trace.child("jbof.dispatch", track=self.address,
                                   cat="server",
                                   args={"op": body.op, "vnode": body.vnode_id,
                                         "hop": body.hop})
            # Children (engine/device spans, shipped sub-dispatches)
            # nest under this node's dispatch span.
            body.trace = ctx
        received = self._net_core().execute_event(_RPC_RECEIVE_CYCLES)
        received.callbacks.append(partial(self._serve_kv, request, body, ctx))

    def _serve_kv(self, request: RpcRequest, body: KVRequest, ctx,
                  _received) -> None:
        """The end of a KV request's ``rpc_receive`` slice (reference
        pipeline): dispatch, and run what serves the request as a
        process started inside this dispatch — the policy generator
        itself, unless a dispatch span has to be closed after it or
        the request was already answered (refused)."""
        serve = self._dispatch_kv(request, body)
        if serve is None or ctx is not None:
            serve = self._serve_rest(serve, ctx)
        self.sim.process_inline(serve, name="rpc-raw-kv@" + self.address)

    @staticmethod
    def _serve_rest(serve, ctx):
        """Generator: what is left of a KV request — ``serve`` (None:
        nothing) — then the close of its dispatch span ``ctx``, if any.
        A refused request still runs this empty handler process: its
        end spends the sequence number every handler's end spends."""
        try:
            if serve is not None:
                yield from serve
        finally:
            if ctx is not None:
                ctx.finish()

    def _dispatch_kv(self, request: RpcRequest, body: KVRequest,
                     fused: bool = False):
        """Validate a KV request against this node's state and ring view.

        Returns the policy generator that serves it, or None when it
        was answered: refused, or — ``fused`` — a GET the policy lets
        this replica serve locally, completed by an engine callback.
        """
        runtime = self.vnodes.get(body.vnode_id)
        if (runtime is None or runtime.state == JOINING or not self.alive
                or (runtime.state == LEAVING and body.op != "get")):
            self._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=self.local_ring.version))
            return None

        # Hop-counter view validation (§3.8.1).
        chain = self.local_ring.chain_ids_for_key(body.key)
        if (body.hop >= len(chain) or chain[body.hop] != body.vnode_id
                or body.vnode_id not in self.local_ring.vnodes):
            runtime.stats.nacks += 1
            self._respond(request, KVReply(
                STATUS_NACK, ring_version=self.local_ring.version))
            return None

        if body.op != "get":
            if body.hop == 0:
                return self.policy.on_client_write(runtime, request, body,
                                                   chain)
            return self.policy.on_forward(runtime, request, body, chain)
        if not fused or not self.policy.fast_read_local(runtime, body, chain):
            return self.policy.serve_read(runtime, request, body, chain)

        def finish(ok: bool, value) -> None:
            if ok:
                result = value
                self.requests_completed += 1
            else:
                result = OpResult(STATUS_OVERLOADED)
            runtime.stats.reads_served += 1
            reply = self._reply_for(runtime, body, result)
            self.rpc.respond(request, reply, reply.wire_bytes())

        runtime.engine.submit(KVCommand("get", body.key, tenant=body.tenant),
                              finish)
        return None

    def _respond(self, request: RpcRequest, reply: KVReply) -> None:
        self.rpc.respond(request, reply, reply.wire_bytes())

    def _execute(self, runtime: VNodeRuntime, body: KVRequest):
        """Generator: run the command through the partition engine."""
        command = KVCommand(body.op, body.key, body.value, tenant=body.tenant,
                            trace=body.trace)
        try:
            result: OpResult = yield from runtime.engine.execute(command)
        except OverloadError:
            # Waiting queue overflowed: shed the request (§2.3's
            # overload hazard).  The client backs off and retries.
            return OpResult(STATUS_OVERLOADED)
        self.requests_completed += 1
        return result

    def _reply_for(self, runtime: VNodeRuntime, body: KVRequest,
                   result: OpResult) -> KVReply:
        status = result.status
        return KVReply(_REPLY_STATUS.get(status, status), value=result.value,
                       tokens=runtime.engine.allocation_for(
                           body.tenant, TOKEN_COST.get(body.op, 0)),
                       served_by=runtime.vnode_id,
                       ring_version=self.local_ring.version)

    # -- COPY primitive (§3.8) -------------------------------------------------------------

    def copy_out(self, src_vnode_id: str, dst_vnode_id: str,
                 dst_address: str, predicate=None, batch_size: int = 16):
        """Generator: stream the vnode's (filtered) contents to ``dst``.

        The store's scan hands over each live pair inside the dispatch
        that read it, so its migration stamp is the key's at read time:
        a pair can sit in the outgoing batch while the key takes a
        newer write (which the migration mirror forwards separately),
        and only a read-time stamp lets the destination tell the
        buffered snapshot is stale.  A full batch ships from inside the
        scan — on LEED still holding the segment lock, so COPY is
        mutually exclusive with PUT/DEL there — and the destination
        applies it through its engine as PUTs.  Returns the pairs sent.
        """
        runtime = self.vnodes.get(src_vnode_id)
        if runtime is None:
            return 0
        pairs = []
        versions = []
        sent = 0

        def ship():
            nonlocal pairs, versions, sent
            payload = CopyBatch(src_vnode_id, dst_vnode_id, pairs=pairs,
                                versions=versions)
            sent += len(pairs)
            runtime.stats.copies_out += len(pairs)
            pairs, versions = [], []
            return self.rpc.call(dst_address, "copy_batch", payload,
                                 payload.wire_bytes(), timeout_us=5e6)

        def visit(key, value):
            pairs.append((key, value))
            versions.append(self.policy.migration_stamp(runtime, key))
            return ship() if len(pairs) >= batch_size else None

        yield from runtime.store.scan(predicate, visit)
        if pairs:
            yield ship()
        finale = CopyBatch(src_vnode_id, dst_vnode_id, pairs=[], done=True)
        yield self.rpc.call(dst_address, "copy_batch", finale,
                            finale.wire_bytes(), timeout_us=5e6)
        return sent

    def _migration_apply_fresh(self, runtime: VNodeRuntime, key: bytes,
                               version, source: Optional[str] = None,
                               scanned: bool = False) -> bool:
        """Admit one migration pair (COPY batch or mirror forward) from
        vnode ``source``.

        Keeps the per-key high-water stamp and refuses pairs below it:
        a scan snapshot buffered across a newer committed write (which
        the mirror already forwarded) must not roll the key back.  A
        ``scanned`` pair is refused at the stamp of a mirror from the
        same source too: a chain tail stamps a write before it
        executes, so a scan can read the old value under the new stamp,
        and the mirror of that write carries the value the stamp stands
        for.  Unversioned pairs apply unconditionally (arrival order),
        the pre-stamp behavior.
        """
        if version is None:
            return True
        prev = runtime.migration_stamps.get(key)
        if prev is not None and (version < prev[0]
                                 or scanned and prev == (version, source)):
            runtime.stats.copies_stale += 1
            return False
        runtime.migration_stamps[key] = (version, None if scanned else source)
        return True

    def _apply_pairs(self, runtime: VNodeRuntime, batch: CopyBatch,
                     scanned: bool):
        """Generator: PUT a batch's fresh pairs through the engine (DEL
        a tombstone's); returns how many were applied.  ``scanned``:
        the pairs come from a COPY scan, not a mirror."""
        applied = 0
        versions = batch.versions or [None] * len(batch.pairs)
        for (key, value), version in zip(batch.pairs, versions):
            if not self._migration_apply_fresh(runtime, key, version,
                                               batch.src_vnode, scanned):
                continue
            op = "put" if value is not None else "del"
            result = yield from runtime.engine.execute(
                KVCommand(op, key, value, tenant="__copy__"))
            if result.ok or result.status == STATUS_NOT_FOUND:
                applied += 1
                if version is not None:
                    self.policy.on_migrated(runtime, key, version)
        return applied

    def _handle_copy_batch(self, src: str, batch: CopyBatch):
        runtime = self.vnodes.get(batch.dst_vnode)
        if runtime is None:
            return KVReply(STATUS_NACK), 16
        runtime.stats.copies_in += yield from self._apply_pairs(
            runtime, batch, scanned=True)
        reply = KVReply(STATUS_OK, tokens=runtime.engine.allocation_for(
            "__copy__"))
        return reply, reply.wire_bytes()

    # -- migration write mirroring --------------------------------------------------------------

    def _mirror_write(self, vnode_id: str, key: bytes,
                      value: Optional[bytes], version=None) -> None:
        """Forward one committed write to active migration mirrors; a
        DEL (``value`` None) travels as a tombstone pair.

        ``version`` is the write's own commit stamp (chain version int,
        ABD timestamp) — captured by the caller at its commitment
        point, not looked up here, because another write of the same
        key can commit while this one's execute was still yielding.
        """
        mirrors = self._mirrors.get(vnode_id)
        if not mirrors:
            return
        for mirror in mirrors:
            if in_arcs(ring_position(key), mirror["arcs"]):
                payload = CopyBatch(vnode_id, mirror["dst_vnode"],
                                    pairs=[(key, value)],
                                    versions=[version])
                self.rpc.notify(mirror["dst_address"], "copy_mirror",
                                payload, payload.wire_bytes())

    def _retire_mirrors(self, update: MembershipUpdate) -> None:
        """Drop the mirrors whose migration ``update`` ends: it is newer
        than the ring version their COPY was planned at and does not
        list their (source, destination) pair in flight."""
        version, live = update.ring_version, update.migrations
        for src_vnode, mirrors in list(self._mirrors.items()):
            kept = [mirror for mirror in mirrors
                    if mirror["ring_version"] >= version
                    or (src_vnode, mirror["dst_vnode"]) in live]
            if kept:
                self._mirrors[src_vnode] = kept
            else:
                del self._mirrors[src_vnode]

    def _handle_copy_mirror(self, src: str, batch: CopyBatch):
        runtime = self.vnodes.get(batch.dst_vnode)
        if runtime is not None:
            yield from self._apply_pairs(runtime, batch, scanned=False)
        return None

    def _handle_do_copy(self, src: str, body: dict):
        """RPC entry point for control-plane-initiated COPY.

        ``body`` carries src/dst vnode ids, the destination address,
        the ring arcs to migrate and the ring version the control plane
        planned the COPY at.  The mirror starts here, before the
        scan's first read; :meth:`apply_membership` ends it.
        """
        arcs = body["arcs"]
        self._mirrors.setdefault(body["src_vnode"], []).append(body)
        sent = yield from self.copy_out(
            body["src_vnode"], body["dst_vnode"], body["dst_address"],
            predicate=lambda key: in_arcs(ring_position(key), arcs))
        return {"copied": sent}, 16

    # -- membership & liveness ---------------------------------------------------------------

    def _handle_membership(self, src: str, update: MembershipUpdate):
        yield from self._control_core.execute(_RPC_RECEIVE_CYCLES)
        self.apply_membership(update)
        return None

    def apply_membership(self, update: MembershipUpdate) -> None:
        """Install the update's ring snapshot and vnode states, and end
        the migration mirrors that ring ends."""
        if update.ring_version < self.local_ring.version:
            return
        previous = set(self.local_ring.vnodes)
        self.local_ring = update.ring
        if self._mirrors:
            self._retire_mirrors(update)
        for vnode_id, state in update.states:
            runtime = self.vnodes.get(vnode_id)
            if runtime is not None:
                runtime.state = state
        # Synchronous policy notifications (no events: this also runs
        # at bootstrap, before the simulation starts).
        for vnode_id in sorted(previous - set(self.local_ring.vnodes)):
            self.policy.on_peer_failure(vnode_id)
        self.policy.on_membership_change(update)

    def _spawn_background(self) -> None:
        """Start the heartbeat loop (idempotent).

        Called at construction and again by :meth:`recover`: the loop
        exits when it observes a dead node, so a node that comes back
        after a crash or power cycle needs it respawned.  The
        ``_running`` flag guards against double-spawning when recovery
        lands before the loop's next wakeup.
        """
        if self.control_plane_address is not None \
                and not self._heartbeat_running:
            self._heartbeat_running = True
            self.sim.process(self._heartbeat_loop(),
                             name=self.address + ".heartbeat")

    def _heartbeat_loop(self):
        while True:
            yield self.sim.timeout(self.options.heartbeat_period_us)
            if not self.alive:
                self._heartbeat_running = False
                return
            beat = Heartbeat(self.address, self.sim.now)
            self.rpc.notify(self.control_plane_address, "heartbeat", beat,
                            beat.wire_bytes())

    def _on_pressure(self, store) -> None:
        """A hosted store's write found a log past its watermark: kick
        a maintenance pass, unless the node is down."""
        if self.alive:
            self._maintenance(store)

    def _maintenance_pass(self, _store):
        """Generator: compact whatever the watermarks demand on every
        hosted store, one vnode after the other."""
        for runtime in list(self.vnodes.values()):
            yield from runtime.compactor.maintenance()

    # -- failure injection -------------------------------------------------------------------

    def stop(self) -> None:
        """Graceful shutdown: the heartbeat loop exits at its next
        beat and writes no longer start compaction.  Unlike
        :meth:`crash` the node stays on the network, so in-flight
        responses still drain."""
        self.alive = False

    def _handle_node_stop(self, src: str, body) -> None:
        """RPC entry point for cluster shutdown (the cluster reaches
        nodes over the network, never through object references)."""
        self.stop()
        return None

    def crash(self) -> None:
        """Fail-stop: drop off the network and stop serving."""
        self.alive = False
        self.network.partition(self.address)

    def recover(self) -> None:
        """Rejoin the network after a crash (fail-stop heal).

        If the WAL holds write intents whose acknowledgment never
        arrived before the crash, a replay process re-establishes them
        through the replication policy (after refreshing the ring view
        from the control plane) — see :meth:`_wal_replay`.  With an
        empty journal no process is spawned, so the schedule of runs
        without unacknowledged writes is untouched.
        """
        self.alive = True
        self.network.heal(self.address)
        self._spawn_background()
        self.wal_recovery = None
        pending = sum(len(self.vnodes[vnode_id].wal)
                      for vnode_id in sorted(self.vnodes))
        if pending == 0:
            return
        self.wal_recovery = {"pending": pending, "replayed": 0,
                             "skipped": 0, "failed": 0,
                             "started_at_us": self.sim.now,
                             "completed_at_us": None}
        self.sim.process(self._wal_replay(),
                         name=self.address + ".wal-replay")

    def _wal_replay(self):
        """Replay unacknowledged WAL intents through the policy.

        The ring view is refreshed first (the crash may have outlasted
        the failure detector, reassigning this node's ranges), then
        every journaled record is handed to
        :meth:`ReplicationPolicy.replay` in vnode/LSN order.  Records
        the policy re-proposes count as ``replayed``; records already
        durable in the cluster count as ``skipped``; records whose
        replay raised stay journaled and count as ``failed``.
        """
        report = self.wal_recovery
        if self.control_plane_address is not None:
            try:
                update = yield self.rpc.call(
                    self.control_plane_address, "get_ring", None, 16,
                    timeout_us=1_000_000.0)
            except Exception:
                update = None
            if update is not None:
                self.apply_membership(update)
        for vnode_id in sorted(self.vnodes):
            runtime = self.vnodes[vnode_id]
            for record in runtime.wal.unacknowledged():
                try:
                    replayed = yield from self.policy.replay(runtime, record)
                except Exception:
                    report["failed"] += 1
                    continue
                runtime.wal.mark_replayed(record.lsn, skipped=not replayed)
                report["replayed" if replayed else "skipped"] += 1
        report["completed_at_us"] = self.sim.now

    # -- scenario lifecycle hooks (power loss, upgrades, elasticity) --------------------------

    def power_fail(self) -> None:
        """Power loss: fail-stop *plus* loss of all SoC DRAM state.

        Unlike :meth:`crash` (where the DRAM index survives and the
        node could resume serving immediately), a power failure wipes
        every vnode's SegTbl — only the flash logs and the
        capacitor-backed WAL survive (§3.2.3).  Call
        :meth:`power_restore` to scan the logs and rebuild.
        """
        self.crash()
        self._powered_off = True

    def power_restore(self):
        """Generator: power back on and rebuild from flash (§3.2.3).

        Every vnode gets a fresh store object over its surviving SSD
        region; a sequential key-log scan (:func:`recover_store`)
        rebuilds each SegTbl, then :meth:`recover` heals the network
        and replays unacknowledged WAL intents.  Returns a report dict
        with per-vnode scan results and aggregate timing.  Only LEED's
        store has that scan: a node hosting another store kind raises
        ``NotImplementedError`` naming it.
        """
        from repro.core.recovery import recover_store
        for runtime in self.vnodes.values():
            if not isinstance(runtime.store, LeedDataStore):
                raise NotImplementedError(
                    "power_restore: %s has no flash-scan recovery"
                    % type(runtime.store).__name__)
        started = self.sim.now
        report = {"started_at_us": started, "vnodes": {},
                  "objects_recovered": 0, "blocks_scanned": 0}
        for vnode_id in sorted(self.vnodes):
            fresh = self._rebuild_vnode(self.vnodes[vnode_id],
                                        carry_wal=True)
            scan = yield from recover_store(fresh.store)
            self.install_vnode(fresh)
            report["vnodes"][vnode_id] = {
                "blocks_scanned": scan.blocks_scanned,
                "segments_recovered": scan.segments_recovered,
                "live_objects": scan.live_objects,
                "duration_us": scan.duration_us,
            }
            report["objects_recovered"] += scan.live_objects
            report["blocks_scanned"] += scan.blocks_scanned
        self._cross_register([r.store for _, r in sorted(self.vnodes.items())])
        self._powered_off = False
        report["scan_duration_us"] = self.sim.now - started
        self.recover()
        report["wal"] = self.wal_recovery
        return report

    def upgrade(self, version: str) -> None:
        """Replace the node's software in place (rolling upgrade).

        Models the "replace" step of drain → replace → rejoin: every
        vnode's runtime is rebuilt with a *fresh, empty* store (the
        upgraded binary starts cold; the drain step already migrated
        the data away) and marked JOINING so it refuses traffic until
        the control plane re-joins it and COPY repopulates it.
        """
        for vnode_id in sorted(self.vnodes):
            fresh = self._rebuild_vnode(self.vnodes[vnode_id],
                                        carry_wal=False)
            fresh.state = JOINING
            self.install_vnode(fresh)
        self._cross_register([r.store for _, r in sorted(self.vnodes.items())])
        self.software_version = version

    def _rebuild_vnode(self, old: VNodeRuntime,
                       carry_wal: bool = True) -> VNodeRuntime:
        """A fresh runtime (store/engine/compactor) over ``old``'s SSD
        region: the SSD, slot and store id ``old`` was built with.  The
        flash content is untouched; the WAL (NVRAM) and cumulative
        stats carry over unless dropped explicitly."""
        ssd_index, slot, store_id = old.placement
        fresh = self._make_vnode(old.vnode_id, self.ssds[ssd_index],
                                 ssd_index, slot, store_id)
        fresh.placement = old.placement
        if carry_wal:
            fresh.wal = old.wal
        fresh.state = old.state
        fresh.stats = old.stats
        return fresh

    def _handle_vnode_retire(self, src: str, vnode_id: str) -> None:
        """RPC: drop a vnode runtime after its graceful leave."""
        retired = self.vnodes.pop(vnode_id, None)
        if retired is not None:
            self._runtime_by_store.pop(retired.store, None)
            self.retired_vnodes.append(retired)
        return None

    def __repr__(self):
        return "<JBOFNode %s vnodes=%d completed=%d>" % (
            self.address, len(self.vnodes), self.requests_completed)
