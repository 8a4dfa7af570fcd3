"""The control-plane manager (§3.1.2, §3.8).

Stands in for the etcd-backed manager of the paper: it maintains the
partition→virtual-node mapping, monitors JBOF health via heartbeats,
performs membership management on join/leave/failure, and pushes ring
snapshots to every JBOF and client over the (simulated) network — so
different nodes genuinely hold *different views* for a while, which
is what the hop-counter/NACK machinery exists to absorb.

All three changes run one migration body (:meth:`ControlPlane._migrate`):
plan the COPYs → run them (each source mirrors the writes it commits
in its arcs from ``do_copy`` on) → settle the vnode states → bump the
ring version → broadcast; each source ends its mirrors when it installs
that ring.  They differ only in their own state marking:

Join (§3.8.1):   add vnode as JOINING and publish the states → the
vnode becomes RUNNING in the new ring.

Leave (§3.8.1):  mark LEAVING and publish (clients immediately stop
picking it for reads) → the vnode leaves the ring.

Failure (§3.8.2): missed heartbeats → an involuntary leave whose COPY
sources are the surviving chain tails; the dead vnodes leave the ring
and the vnodes that gained responsibility are published JOINING
(unavailable, so reads fail over to replicas that do hold the data)
before their catch-up COPY, and RUNNING after it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.hashring import HashRing, VNode
from repro.core.jbof import JOINING, LEAVING, RUNNING, JBOFNode
from repro.core.protocol import Heartbeat, MembershipUpdate
from repro.net.rpc import RpcEndpoint
from repro.net.topology import Network
from repro.sim.core import Simulator


@dataclass
class VNodeInfo:
    """Control-plane record for one virtual node."""

    vnode_id: str
    jbof_address: str
    state: str = RUNNING


@dataclass
class CopyTask:
    """One COPY assignment: src streams arcs' keys to dst."""

    src_vnode: str
    src_address: str
    dst_vnode: str
    dst_address: str
    arcs: List[Tuple[int, int]]


def _split_arc(arc: Tuple[int, int], ring: HashRing) -> List[Tuple[int, int]]:
    """Split ``(lo, hi]`` at ``ring``'s vnode positions.

    Keys on either side of a vnode position map to different chains,
    so COPY planning must treat the sub-arcs independently.
    """
    lo, hi = arc
    cuts = sorted(position for position in ring._positions
                  if lo < position < hi)
    if not cuts:
        return [arc]
    bounds = [lo] + cuts + [hi]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class ControlPlane:
    """Centralized (etcd-like, quorum-backed in the paper) manager."""

    #: Spread of membership pushes over subscribers (etcd-watch
    #: jitter), µs.
    PUSH_DELAY_JITTER_US = 2_000.0

    def __init__(self, sim: Simulator, network: Network,
                 address: str = "controlplane", replication: int = 3,
                 heartbeat_timeout_us: float = 200_000.0,
                 replication_protocol: str = "chain"):
        self.sim = sim
        self.network = network
        self.address = address
        self.replication = replication
        self.replication_protocol = replication_protocol
        self.heartbeat_timeout_us = heartbeat_timeout_us
        network.attach(address)
        self.rpc = RpcEndpoint(sim, network, address)
        self.vnodes: Dict[str, VNodeInfo] = {}
        self.ring_version = 0
        #: The last ring :meth:`master_ring` built.
        self._ring: Optional[HashRing] = None
        self._subscribers: List[str] = []   # jbof + client addresses
        self._jbofs: Dict[str, JBOFNode] = {}
        self._last_heartbeat: Dict[str, float] = {}
        self._failed: set = set()
        #: (source, destination) vnode pair of every COPY in flight,
        #: listed by every snapshot (see :meth:`_migrate`).
        self._migrating: List[Tuple[str, str]] = []
        self.membership_events: List[tuple] = []  # (time, kind, vnode_id)
        self._stopped = False
        self.rpc.register("heartbeat", self._handle_heartbeat)
        self.rpc.register("get_ring", self._handle_get_ring)
        self._monitor = sim.process(self._monitor_loop(), name="cp.monitor")

    # -- registration / bootstrap ----------------------------------------------------

    def register_jbof(self, node: JBOFNode) -> None:
        """Track a JBOF: its vnodes join the (unpublished) directory."""
        self._jbofs[node.address] = node
        self._last_heartbeat[node.address] = self.sim.now
        if node.address not in self._subscribers:
            self._subscribers.append(node.address)
        for vnode_id in node.vnodes:
            self.vnodes[vnode_id] = VNodeInfo(vnode_id, node.address)

    def subscribe(self, address: str) -> None:
        """Add a client address to the membership push list."""
        if address not in self._subscribers:
            self._subscribers.append(address)

    def bootstrap(self) -> None:
        """Publish the initial ring (version 1) to everyone."""
        self._publish(immediate=True)

    # -- ring snapshots ------------------------------------------------------------------

    def master_ring(self) -> HashRing:
        """The authoritative ring: serving vnodes only.

        One snapshot per version and member list: every push and pull
        of the same view carries the same object.
        """
        members = [VNode(info.vnode_id, info.jbof_address)
                   for info in self.vnodes.values()
                   if info.state in (RUNNING, LEAVING)]
        ring = self._ring
        if (ring is None or ring.version != self.ring_version
                or list(ring.vnodes.values()) != members):
            ring = self._ring = HashRing(members, self.replication,
                                         self.ring_version)
        return ring

    def membership_snapshot(self) -> MembershipUpdate:
        """The current membership view as a push/pull payload.

        This is the public accessor for the cluster snapshot — the
        same payload heartbeat pushes and ``get_ring`` pulls carry.
        """
        ring = self.master_ring()
        return MembershipUpdate(
            ring_version=self.ring_version,
            vnodes=[(v.vnode_id, v.jbof_address)
                    for v in ring.vnodes.values()],
            states=[(i.vnode_id, i.state) for i in self.vnodes.values()],
            replication=self.replication,
            replication_protocol=self.replication_protocol,
            migrations=list(self._migrating),
            ring=ring)

    def _publish(self, immediate: bool = False) -> None:
        """Bump the ring version and broadcast the new snapshot."""
        self.ring_version += 1
        self._broadcast(immediate)

    def _broadcast(self, immediate: bool = False) -> None:
        """Push the current snapshot to all subscribers.

        Pushes ride the simulated network (plus etcd-watch jitter), so
        subscribers converge asynchronously.
        """
        payload = self.membership_snapshot()
        for index, address in enumerate(self._subscribers):
            if immediate:
                node = self._jbofs.get(address)
                if node is not None:
                    node.apply_membership(payload)
                    continue
            delay = (index * 37.0) % self.PUSH_DELAY_JITTER_US
            self.sim.schedule(delay, lambda a=address: self.rpc.notify(
                a, "membership", payload, payload.wire_bytes()))
        # Clients registered with immediate bootstrap still get the push
        # over the network (they handle duplicates by version check).
        if immediate:
            for address in self._subscribers:
                if address not in self._jbofs:
                    self.rpc.notify(address, "membership", payload,
                                    payload.wire_bytes())

    # -- heartbeats & failure detection -----------------------------------------------------

    def _handle_heartbeat(self, src: str, beat: Heartbeat):
        self._last_heartbeat[beat.jbof_address] = self.sim.now

    def _handle_get_ring(self, src: str, _body):
        payload = self.membership_snapshot()
        return payload, payload.wire_bytes()

    def stop(self) -> None:
        """Stop the failure monitor (cluster shutdown); idempotent."""
        self._stopped = True

    def _monitor_loop(self):
        while not self._stopped:
            yield self.sim.timeout(self.heartbeat_timeout_us / 4.0)
            if self._stopped:
                return
            now = self.sim.now
            for address, last in list(self._last_heartbeat.items()):
                if address in self._failed:
                    continue
                if now - last > self.heartbeat_timeout_us:
                    self._failed.add(address)
                    self.sim.process(self.handle_jbof_failure(address),
                                     name="cp.fail." + address)

    # -- membership operations ------------------------------------------------------------------

    def join_vnode(self, vnode_id: str, jbof_address: str):
        """Generator: orchestrate one vnode's join (§3.8.1)."""
        self.membership_events.append((self.sim.now, "join_start", vnode_id))
        info = self.vnodes.get(vnode_id)
        if info is None:
            info = VNodeInfo(vnode_id, jbof_address, state=JOINING)
            self.vnodes[vnode_id] = info
        info.state = JOINING
        old_ring = self.master_ring()
        # Publish states so the joining vnode refuses client traffic.
        self._broadcast()
        yield from self._migrate(
            old_ring, old_ring.with_vnode(VNode(vnode_id, jbof_address)),
            [vnode_id], {vnode_id: RUNNING})
        self.membership_events.append((self.sim.now, "join_end", vnode_id))

    def leave_vnode(self, vnode_id: str):
        """Generator: voluntary leave (§3.8.1)."""
        self.membership_events.append((self.sim.now, "leave_start", vnode_id))
        info = self.vnodes.get(vnode_id)
        if info is None:
            return
        info.state = LEAVING
        self._broadcast()  # clients stop picking it for reads immediately
        old_ring = self.master_ring()
        new_ring = old_ring.without_vnode(vnode_id)
        yield from self._migrate(
            old_ring, new_ring,
            self._gaining_vnodes(old_ring, new_ring, vnode_id),
            {vnode_id: None}, exclude_source=vnode_id)
        self.membership_events.append((self.sim.now, "leave_end", vnode_id))

    def remove_vnode(self, vnode_id: str):
        """Generator: gracefully retire a vnode (scale-in primitive).

        A voluntary leave migrates the data away; the hosting node is
        then told to drop the runtime (``vnode_retire``) so the
        partition's resources are genuinely released.
        """
        info = self.vnodes.get(vnode_id)
        if info is None:
            return
        jbof_address = info.jbof_address
        yield from self.leave_vnode(vnode_id)
        self.rpc.notify(jbof_address, "vnode_retire", vnode_id, 32)

    def register_joining_jbof(self, node: JBOFNode) -> None:
        """Track a JBOF whose vnodes must *join* before serving.

        Unlike :meth:`register_jbof` (bootstrap: vnodes are born
        RUNNING), a node provisioned mid-run starts with every vnode
        JOINING; the caller drives :meth:`join_vnode` for each so the
        ranges are COPY'd in before the ring serves from them.
        """
        self.register_jbof(node)
        for vnode_id in sorted(node.vnodes):
            self.vnodes[vnode_id].state = JOINING

    def mark_alive(self, jbof_address: str) -> None:
        """Re-arm failure detection for a revived JBOF.

        A detected failure parks the address in the failed set so the
        monitor fires once per incident; a node that was healed and is
        rejoining must leave that set (and get a fresh heartbeat
        stamp) or its *next* crash would go undetected.
        """
        self._failed.discard(jbof_address)
        self._last_heartbeat[jbof_address] = self.sim.now

    def forget_jbof(self, jbof_address: str) -> None:
        """Stop failure-monitoring a deliberately retired JBOF.

        Scale-in stops a node's heartbeats on purpose; without this
        the monitor would declare a (vnode-less) failure and pollute
        the membership event log with a phantom incident.
        """
        self._last_heartbeat.pop(jbof_address, None)
        self._failed.discard(jbof_address)

    def handle_jbof_failure(self, jbof_address: str):
        """Generator: involuntary leave of every vnode on a dead JBOF."""
        self.membership_events.append((self.sim.now, "failure", jbof_address))
        dead = [i.vnode_id for i in self.vnodes.values()
                if i.jbof_address == jbof_address]
        if not dead:
            return
        old_ring = self.master_ring()
        new_ring = old_ring
        for vnode_id in dead:
            new_ring = new_ring.without_vnode(vnode_id)
            del self.vnodes[vnode_id]
        gainers = []
        for vnode_id in dead:
            gainers.extend(self._gaining_vnodes(old_ring, new_ring, vnode_id))
        gainers = sorted(set(gainers))
        # Gaining vnodes are not yet consistent: mark JOINING so reads
        # fail over to surviving replicas that do hold the data.
        for gainer in gainers:
            if gainer in self.vnodes:
                self.vnodes[gainer].state = JOINING
        self._publish()
        yield from self._migrate(old_ring, new_ring, gainers,
                                 dict.fromkeys(gainers, RUNNING),
                                 exclude_source_address=jbof_address)
        self.membership_events.append((self.sim.now, "recovered",
                                       jbof_address))

    # -- COPY planning ---------------------------------------------------------------------------

    def _gaining_vnodes(self, old_ring: HashRing, new_ring: HashRing,
                        removed_vnode: str) -> List[str]:
        """VNodes whose responsibility grows when ``removed_vnode`` goes."""
        gainers = set()
        for arc in old_ring.owner_ranges(removed_vnode):
            # Merged arcs can span several chain regions; split at the
            # old ring's vnode positions so each sub-arc has one chain.
            for sub_arc in _split_arc(arc, old_ring):
                old_chain = {v.vnode_id
                             for v in old_ring.successors(sub_arc[0],
                                                          self.replication)}
                for vnode in new_ring.successors(sub_arc[0],
                                                 self.replication):
                    if vnode.vnode_id not in old_chain:
                        gainers.add(vnode.vnode_id)
        return sorted(gainers)

    def _copy_tasks_for_gain(self, old_ring: HashRing, new_ring: HashRing,
                             gainers: List[str],
                             exclude_source: Optional[str] = None,
                             exclude_source_address: Optional[str] = None
                             ) -> List[CopyTask]:
        """COPY tasks so each gainer receives its newly-owned arcs.

        Sources are the *old-ring tails* of each arc's chain (§3.8.1),
        skipping excluded (leaving/dead) vnodes.
        """
        tasks: List[CopyTask] = []
        for gainer in gainers:
            info = self.vnodes.get(gainer)
            if info is None:
                continue
            per_source: Dict[str, List[Tuple[int, int]]] = {}
            for arc in new_ring.owner_ranges(gainer):
                # A new-ring arc can span several *old-ring* arcs when
                # vnodes were removed; each sub-arc may have had a
                # different chain, so split before picking sources.
                for sub_arc in _split_arc(arc, old_ring):
                    old_chain = old_ring.successors(sub_arc[0],
                                                    self.replication)
                    if any(v.vnode_id == gainer for v in old_chain):
                        continue  # already held this sub-arc
                    source = None
                    for candidate in reversed(old_chain):  # tail first
                        if candidate.vnode_id == exclude_source:
                            continue
                        if candidate.jbof_address == exclude_source_address:
                            continue
                        source = candidate
                        break
                    if source is None:
                        continue
                    per_source.setdefault(source.vnode_id, []).append(sub_arc)
            for src_vnode, arcs in per_source.items():
                src_info = self.vnodes.get(src_vnode)
                src_address = (src_info.jbof_address if src_info is not None
                               else old_ring.vnodes[src_vnode].jbof_address)
                tasks.append(CopyTask(src_vnode, src_address, gainer,
                                      info.jbof_address, arcs))
        return tasks

    def _migrate(self, old_ring: HashRing, new_ring: HashRing,
                 gainers: List[str], settled: Dict[str, Optional[str]],
                 **exclude):
        """Generator: the one migration body of join, leave and failure.

        Plans the COPYs that give each gainer its new arcs
        (:meth:`_copy_tasks_for_gain`, ``exclude`` passed through), has
        every live source run its COPY (``do_copy``), then sets each
        vnode of ``settled`` to its state (None: removed), bumps the
        ring version and broadcasts.  All COPYs are issued up front and
        awaited together.

        The mirror that forwards a source's committed writes to the
        destination lives from ``do_copy`` to the ring that ends the
        migration.  The source starts it in the ``do_copy`` dispatch,
        before the scan's first read.  The destination serves the arcs
        only from the ring switch, so a write committed between the end
        of the scan and that switch must still be forwarded: a source
        ends the mirror in the :meth:`JBOFNode.apply_membership` step
        that installs a ring newer than the one the COPY was planned at
        (``do_copy``'s ``ring_version``) and not listing the pair among
        its ``migrations`` (:attr:`_migrating`).  A push taken before
        the planning is not newer, a snapshot taken while another
        migration runs lists this one, and a node that skips versions
        (a ``get_ring`` pull) still ends an ended mirror.
        """
        calls = []
        for task in self._copy_tasks_for_gain(old_ring, new_ring, gainers,
                                              **exclude):
            pair = (task.src_vnode, task.dst_vnode)
            if task.src_address in self._failed:
                continue  # dead source: failure handling re-plans
            body = {"src_vnode": task.src_vnode,
                    "arcs": [tuple(arc) for arc in task.arcs],
                    "dst_vnode": task.dst_vnode,
                    "dst_address": task.dst_address,
                    "ring_version": self.ring_version}
            self._migrating.append(pair)
            calls.append((pair, self.rpc.call(
                task.src_address, "do_copy", body, 64, timeout_us=5e6)))
        for _pair, call in calls:
            try:
                yield call
            except Exception:
                pass  # a source died mid-copy; failure handling re-plans
        for pair, _call in calls:
            self._migrating.remove(pair)
        for vnode_id, state in settled.items():
            if state is None:
                self.vnodes.pop(vnode_id, None)
            elif vnode_id in self.vnodes:
                self.vnodes[vnode_id].state = state
        self._publish()

    def __repr__(self):
        return "<ControlPlane v%d vnodes=%d>" % (self.ring_version,
                                                 len(self.vnodes))
