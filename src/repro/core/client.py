"""The client front-end library (§3.1.2, §3.5, §3.7).

Co-located with each application client, the front-end:

* keeps a local ring snapshot (pushed by the control plane) and routes
  each command to the right chain position — writes to the head, reads
  to the *replica with the most available tokens* (CRRS, §3.7), or as
  the :class:`ReadPolicy` says (tail only, round robin);
* runs the flow-control scheduler of Algorithm 1, spending the token
  allocations that back-end partitions piggyback on responses;
* reacts to NACK / UNAVAILABLE / timeout by refreshing its ring view
  from the control plane and retrying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Optional

from repro.core.flow_control import FlowController, PendingRequest
from repro.core.hashring import HashRing, VNode
from repro.core.io_engine import TOKEN_COST
from repro.core.jbof import LEAVING, RUNNING
from repro.core.protocol import (
    STATUS_NACK,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_OVERLOADED,
    STATUS_UNAVAILABLE,
    KVReply,
    KVRequest,
    MembershipUpdate,
    ReadPolicy,
)
from repro.net.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.net.topology import Network, NicProfile
from repro.obs.hist import LatencyHistogram
from repro.sim.core import Simulator
from repro.sim.events import PENDING, Event
from repro.sim.record import Record


class ClientResult(Record):
    """Outcome of one client-level operation."""

    __slots__ = _FIELDS = ("status", "value", "latency_us", "retries",
                           "served_by")

    def __init__(self, status: str, value: Optional[bytes] = None,
                 latency_us: float = 0.0, retries: int = 0,
                 served_by: str = ""):
        self.status = status
        self.value = value
        self.latency_us = latency_us
        self.retries = retries
        self.served_by = served_by

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class ClientStats:
    """Cumulative front-end statistics.

    Latencies are recorded into a fixed-size log-scale
    :class:`~repro.obs.hist.LatencyHistogram`.
    """

    operations: int = 0
    ok: int = 0
    not_found: int = 0
    #: Operations that ended in neither ok nor not_found, by terminal
    #: status ("store_full", "overloaded", "unavailable", "no_ring"):
    #: back-pressure the model intends must be told apart from loss.
    failed_by_status: Dict[str, int] = field(default_factory=dict)
    retries: int = 0
    nacks: int = 0
    timeouts: int = 0
    overloads: int = 0
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def record(self, result: ClientResult) -> None:
        """Fold one finished operation into the counters."""
        self.operations += 1
        self.retries += result.retries
        if result.status == STATUS_OK:
            self.ok += 1
        elif result.status == STATUS_NOT_FOUND:
            self.not_found += 1
        else:
            self.failed_by_status[result.status] = (
                self.failed_by_status.get(result.status, 0) + 1)
        self.histogram.record(result.latency_us)

    @property
    def failures(self) -> int:
        """Operations that ended in neither ok nor not_found."""
        return sum(self.failed_by_status.values())

    def mean_latency_us(self) -> float:
        """Average end-to-end latency over recorded operations."""
        return self.histogram.mean_us()

    def percentile_latency_us(self, quantile: float) -> float:
        """Latency at ``quantile`` (e.g. 0.999 for the p99.9 tail).

        Served from the histogram: the value is the bucket midpoint,
        within one log-scale bucket width (~19%) of the exact sample
        quantile.
        """
        return self.histogram.percentile(quantile)


class FrontEndClient:
    """One application client with its co-located front-end library."""

    #: Retries (NACK, timeout, overload) before an operation fails.
    MAX_RETRIES = 6

    def __init__(self, sim: Simulator, network: Network, address: str,
                 control_plane_address: str = "controlplane",
                 flow_control: bool = True,
                 read_policy: ReadPolicy = ReadPolicy.CRRS,
                 request_timeout_us: float = 100_000.0,
                 tenant: Optional[str] = None,
                 nic_profile: Optional[NicProfile] = None,
                 tracer: Optional[object] = None,
                 trace_sample_interval: int = 0):
        self.sim = sim
        self.address = address
        self.control_plane_address = control_plane_address
        #: Replica choice for GETs (:class:`ReadPolicy`): CRRS = most
        #: tokens (LEED §3.7), TAIL = classic chain replication (FAWN),
        #: ANY = round robin over replicas (a sharded KVell deployment).
        self.read_policy = ReadPolicy.coerce(read_policy) or ReadPolicy.CRRS
        self._read_rr = 0
        self.request_timeout_us = request_timeout_us
        self.tenant = tenant or address
        #: Tracing: a :class:`repro.obs.Tracer` plus the sampling
        #: interval — every Nth operation gets a trace; 0 disables.
        self.tracer = tracer
        self.trace_sample_interval = trace_sample_interval
        self._trace_seq = 0
        network.attach(address, nic_profile)
        self.rpc = RpcEndpoint(sim, network, address)
        self.flow = FlowController(sim, enabled=flow_control,
                                   name=address + ".flow")
        self.local_ring: HashRing = HashRing([], replication=3, version=0)
        self.vnode_states: Dict[str, str] = {}
        self.stats = ClientStats()
        self.rpc.register("membership", self._handle_membership)

    # -- membership --------------------------------------------------------------------

    def _handle_membership(self, src: str, update: MembershipUpdate):
        self.apply_membership(update)

    def apply_membership(self, update: MembershipUpdate) -> None:
        """Install the update's ring snapshot (stale versions are
        ignored)."""
        if update.ring_version < self.local_ring.version:
            return
        self.local_ring = update.ring
        self.vnode_states = dict(update.states)

    def refresh_ring(self):
        """Generator: pull a fresh snapshot from the control plane."""
        try:
            update = yield self.rpc.call(self.control_plane_address,
                                         "get_ring", None, 16,
                                         timeout_us=self.request_timeout_us)
        except (RpcTimeout, RpcError):
            return False
        self.apply_membership(update)
        return True

    # -- target selection -----------------------------------------------------------------

    def _pick_target(self, op: str, key: bytes):
        """(hop, VNode) for this command under the current view."""
        chain = self.local_ring.chain_for_key(key)
        if not chain:
            return None
        if op in ("put", "del"):
            return 0, chain[0]
        # GET: prefer serving replicas; never a LEAVING/JOINING one.
        states = self.vnode_states
        if self.read_policy == ReadPolicy.CRRS:
            # The serving replica with the most tokens in this client's
            # view; the first one on a tie.
            flow = self.flow
            best = None
            best_tokens = 0
            for hop, vnode in enumerate(chain):
                if states.get(vnode.vnode_id, RUNNING) == RUNNING:
                    view = flow.targets.get(vnode.vnode_id)
                    if view is None:
                        view = flow.view(vnode.vnode_id)
                    tokens = view.tokens
                    if best is None or tokens > best_tokens:
                        best = (hop, vnode)
                        best_tokens = tokens
            if best is None:
                return len(chain) - 1, chain[-1]
            return best
        candidates = [
            (hop, vnode) for hop, vnode in enumerate(chain)
            if states.get(vnode.vnode_id, RUNNING) == RUNNING]
        if not candidates:
            return len(chain) - 1, chain[-1]
        if self.read_policy == ReadPolicy.ANY:
            self._read_rr += 1
            return candidates[self._read_rr % len(candidates)]
        # Plain chain replication: reads at the tail only.
        return candidates[-1]

    # -- operations ----------------------------------------------------------------------------

    def get(self, key: bytes):
        """Generator: GET ``key``; returns a :class:`ClientResult`."""
        return self._operate("get", key, None)

    def put(self, key: bytes, value: bytes):
        """Generator: PUT ``key`` = ``value``."""
        return self._operate("put", key, value)

    def delete(self, key: bytes):
        """Generator: DEL ``key``."""
        return self._operate("del", key, None)

    def _begin_trace(self, op: str):
        """Root trace context for this operation, or None (sampling)."""
        if self.tracer is None or self.trace_sample_interval <= 0:
            return None
        sequence = self._trace_seq
        self._trace_seq += 1
        if sequence % self.trace_sample_interval:
            return None
        return self.tracer.trace("client." + op, track=self.address,
                                 cat="client")

    def _operate(self, op: str, key: bytes, value: Optional[bytes]):
        """Generator: one operation — pick a replica, clear flow
        control, call, and retry on NACK / overload / timeout."""
        ctx = self._begin_trace(op)
        sim = self.sim
        stats = self.stats
        start = sim.now
        retries = 0
        while True:
            target = self._pick_target(op, key)
            if target is None:
                ok = yield from self.refresh_ring()
                if not ok:
                    yield sim.timeout(1000.0)
                target = self._pick_target(op, key)
                if target is None:
                    result = ClientResult("no_ring",
                                          latency_us=sim.now - start,
                                          retries=retries)
                    break
            hop, vnode = target
            body = KVRequest(op, key, value, vnode.vnode_id,
                             self.local_ring.version, hop, self.tenant, ctx)
            # One request through flow control + RPC: the scheduler
            # fires ``_call`` when it clears the request.
            waiter = Event(sim)
            flow_ctx = None
            if ctx is not None:
                flow_ctx = ctx.child("client.flow", cat="client",
                                     args={"target": vnode.vnode_id})
            self.flow.enqueue(self.tenant, PendingRequest(
                vnode.vnode_id, TOKEN_COST[op],
                partial(self._call, body, vnode, waiter, flow_ctx)))
            reply = yield waiter
            if reply is None:
                stats.timeouts += 1
            elif reply.status in (STATUS_OK, STATUS_NOT_FOUND,
                                  "store_full"):
                result = ClientResult(reply.status, reply.value,
                                      sim.now - start, retries,
                                      reply.served_by)
                stats.record(result)
                break
            elif reply.status == STATUS_NACK:
                stats.nacks += 1
            elif reply.status == STATUS_OVERLOADED:
                # Shed by the back-end: back off and retry without a
                # ring refresh (the view is fine, the node is busy).
                stats.overloads += 1
                retries += 1
                if retries > self.MAX_RETRIES:
                    result = ClientResult(STATUS_OVERLOADED,
                                          latency_us=sim.now - start,
                                          retries=retries)
                    stats.record(result)
                    break
                yield sim.timeout(150.0 * retries)
                continue
            elif reply.status == STATUS_UNAVAILABLE:
                pass
            retries += 1
            if retries > self.MAX_RETRIES:
                result = ClientResult("unavailable",
                                      latency_us=sim.now - start,
                                      retries=retries)
                stats.record(result)
                break
            # Stale view or dead node: resync and back off briefly.
            yield from self.refresh_ring()
            yield sim.timeout(200.0 * retries)
        if ctx is not None:
            ctx.finish({"status": result.status, "retries": result.retries})
        return result

    def _call(self, body: KVRequest, vnode: VNode, waiter: Event,
              flow_ctx=None) -> None:
        """Issue one KV call (the flow controller's ``send``); its
        continuation, run where the reply lands, folds the piggybacked
        tokens into the flow controller and resolves ``waiter`` — with
        the reply, or ``None`` for a lost one — so the worker resumes
        at the end of that same dispatch."""
        if flow_ctx is not None:
            flow_ctx.finish()
        # Stamp the attempt's give-up deadline at send time — exactly
        # when the RPC timeout clock starts — so replicas can refuse a
        # copy that surfaces from a congested queue after this client
        # stopped listening (zombie duplicate of a retried write).
        body.deadline_us = self.sim.now + self.request_timeout_us
        flow = self.flow
        target = vnode.vnode_id

        def finish(ok: bool, value) -> None:
            reply: Optional[KVReply] = None
            if ok:
                reply = value
                # The reply may come from a different vnode (request
                # shipping); credit the partition that served us.
                flow.on_response(reply.served_by or target, reply.tokens)
            elif not isinstance(value, RpcError):
                # Not a lost reply: a bug, surfaced from sim.run.
                raise value
            flow.on_complete(target)
            if waiter._value is PENDING:
                waiter.succeed_inline(reply)

        self.rpc.call(vnode.jbof_address, "kv", body, body.wire_bytes(),
                      timeout_us=self.request_timeout_us, then=finish)

    def __repr__(self):
        return "<FrontEndClient %s ops=%d>" % (self.address,
                                               self.stats.operations)
