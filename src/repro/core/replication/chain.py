"""Chain replication (CRRS) and the CRAQ-style variant (§3.7).

Behavior-preserving ports of the write/read/ack paths that used to
live on :class:`JBOFNode` (``_serve_write`` / ``_serve_get`` /
``_send_ack`` / ``_handle_chain_ack`` / ``_handle_version_query``).
The generator bodies perform the same operations in the same order,
so schedules — and their digests — are byte-identical to the welded-in
implementation.

On top of the port, every replicated write journals an intent in the
partition's WAL (:mod:`repro.core.wal`) before executing: non-tail
replicas retire the intent when the backward ack arrives, the tail
retires it at its commitment point.  Journaling is pure memory, so it
adds no events.
"""

from __future__ import annotations

from typing import List

from repro.core.protocol import (
    STATUS_NACK,
    STATUS_NOT_FOUND,
    STATUS_OK,
    ChainAck,
    KVReply,
    KVRequest,
)
from repro.core.replication.base import ReplicationPolicy, register_protocol
from repro.hw.cpu import CYCLE_COSTS

#: Wire size of one CRAQ-style version query / response.
VERSION_QUERY_BYTES = 24

#: RPC deadline for recovery-replay calls (crash recovery runs off
#: the hot path; generous so COPY-congested links don't fail replay).
REPLAY_TIMEOUT_US = 1_000_000.0


@register_protocol
class ChainReplication(ReplicationPolicy):
    """LEED's CRRS chain: mark dirty -> execute -> forward; the tail
    commits, answers the client directly, and starts the backward ack
    cascade; dirty reads ship the request envelope to the tail."""

    name = "chain"

    def register_handlers(self) -> None:
        rpc = self.node.rpc
        rpc.register("chain_ack", self.on_ack)
        rpc.register("version_query", self._handle_version_query)

    # -- write path (port of JBOFNode._serve_write) --------------------------

    def on_client_write(self, runtime, request, body, chain):
        return self._write(runtime, request, body, chain)

    def on_forward(self, runtime, request, body, chain):
        return self._write(runtime, request, body, chain)

    def _write(self, runtime, request, body, chain):
        node = self.node
        wal = runtime.wal
        is_tail = body.hop == len(chain) - 1
        # Client retries make writes at-least-once: an attempt that sat
        # in a COPY-congested queue past its deadline may have been
        # superseded by a retry (and by later acked writes).  Refuse it
        # at the chain entry (nothing applied yet, clean drop) and at
        # the commitment point.  On a tail drop the upstream replicas
        # keep the zombie value but their dirty bits stay set — no ack
        # cascade runs — so every read of the key ships to the tail
        # until the retry commits and its own cascade clears them.
        # The client stopped listening at the deadline; no reply owed.
        if (body.op != "get" and body.deadline_us is not None
                and node.sim.now > body.deadline_us
                and (body.hop == 0 or is_tail)):
            runtime.stats.writes_expired += 1
            return
        if not is_tail:
            runtime.mark_dirty(body.key)
            version = runtime.applied_version.get(body.key, 0) + 1
            runtime.applied_version[body.key] = version
            record = wal.append(body.op, body.key, body.value, version,
                                ring_version=node.local_ring.version)
            result = yield from node._execute(runtime, body)
            status = result.status
            if status != STATUS_OK and status != STATUS_NOT_FOUND:
                # Local failure (e.g. store full): surface immediately.
                # Retire by lsn — wal.ack(key) pops the FIFO-oldest
                # intent for the key, which with an earlier in-flight
                # write still awaiting its backward ack would retire
                # that write's record instead of this one's.
                runtime.clear_dirty(body.key)
                wal.ack_record(record.lsn)
                node._respond(request,
                              node._reply_for(runtime, body, result))
                return
            runtime.stats.writes_forwarded += 1
            next_id = chain[body.hop + 1]
            next_vnode = node.local_ring.vnodes.get(next_id)
            if next_vnode is None:
                runtime.clear_dirty(body.key)
                wal.ack_record(record.lsn)
                node._respond(request, KVReply(
                    STATUS_NACK, ring_version=node.local_ring.version))
                return
            yield node._net_core().execute_event(
                CYCLE_COSTS["replication_forward"])
            forwarded = KVRequest(body.op, body.key, body.value, next_id,
                                  body.ring_version, body.hop + 1,
                                  body.tenant, trace=body.trace,
                                  deadline_us=body.deadline_us)
            node.rpc.forward(next_vnode.jbof_address, request, forwarded,
                             forwarded.wire_bytes())
            return
        # Tail: commitment point.
        version = runtime.applied_version.get(body.key, 0) + 1
        runtime.applied_version[body.key] = version
        runtime.committed_version[body.key] = version
        record = wal.append(body.op, body.key, body.value, version,
                            ring_version=node.local_ring.version)
        result = yield from node._execute(runtime, body)
        # The tail IS the commit: the intent is durable now.
        wal.ack_record(record.lsn)
        runtime.stats.writes_committed += 1
        node._respond(request, node._reply_for(runtime, body, result))
        # Backward ack cascade clears dirty bits.
        if len(chain) > 1:
            self.send_ack(chain, len(chain) - 2, body.key)
        # Mirror committed writes of ranges being migrated (§3.8.1:
        # "incoming PUTs ... might be forwarded to the new virtual
        # node depending on if their keys are copied"); a DEL goes as
        # a tombstone.
        if result.status == STATUS_OK:
            node._mirror_write(runtime.vnode_id, body.key, body.value,
                               version)

    def send_ack(self, chain: List[str], index: int, key: bytes) -> None:
        node = self.node
        if index < 0:
            return
        vnode = node.local_ring.vnodes.get(chain[index])
        if vnode is None:
            return
        ack = ChainAck(key=key, vnode_id=chain[index], chain=list(chain),
                       index=index)
        node.rpc.notify(vnode.jbof_address, "chain_ack", ack,
                        ack.wire_bytes())

    def on_ack(self, src: str, ack: ChainAck) -> None:
        """Backward ack (a one-way handler that does not yield): once the
        ``dirty_map_op`` CPU slice ends, clear the dirty bit, retire
        the WAL intent and pass the ack up the chain."""
        node = self.node

        def acked(_event) -> None:
            runtime = node.vnodes.get(ack.vnode_id)
            if runtime is not None:
                runtime.clear_dirty(ack.key)
                runtime.wal.ack(ack.key)
            self.send_ack(ack.chain, ack.index - 1, ack.key)

        node._net_core().execute_event(
            CYCLE_COSTS["dirty_map_op"]).callbacks.append(acked)

    # -- read path (port of JBOFNode._serve_get) -----------------------------

    def serve_read(self, runtime, request, body, chain):
        node = self.node
        is_tail = body.hop == len(chain) - 1
        if not is_tail and runtime.is_dirty(body.key):
            tail_id = chain[-1]
            tail_vnode = node.local_ring.vnodes.get(tail_id)
            if tail_vnode is None:
                node._respond(request, KVReply(
                    STATUS_NACK, ring_version=node.local_ring.version))
                return
            served = yield from self._resolve_dirty_read(
                runtime, request, body, tail_id, tail_vnode)
            if served:
                return
            # Request shipping: the tail holds the committed latest value.
            runtime.stats.reads_shipped += 1
            shipped = KVRequest("get", body.key, None, tail_id,
                                body.ring_version, len(chain) - 1,
                                body.tenant, trace=body.trace)
            node.rpc.forward(tail_vnode.jbof_address, request, shipped,
                             shipped.wire_bytes())
            return
        result = yield from node._execute(runtime, body)
        runtime.stats.reads_served += 1
        node._respond(request, node._reply_for(runtime, body, result))

    def _resolve_dirty_read(self, runtime, request, body, tail_id,
                            tail_vnode):
        """Generator hook: try to answer a dirty read locally; return
        True when the request was served.  Plain chain never does —
        dirty reads always ship (no yields, so delegating through this
        hook leaves the event schedule untouched)."""
        return False
        yield  # pragma: no cover - generator marker

    def fast_read_local(self, runtime, body, chain) -> bool:
        # Tail reads and clean-replica reads are linearizable locally.
        return body.hop == len(chain) - 1 or not runtime.is_dirty(body.key)

    def _handle_version_query(self, src: str, body: dict):
        """CRAQ-style: report the committed version of a key (tail)."""
        node = self.node
        yield from node._net_core().execute(CYCLE_COSTS["dirty_map_op"])
        runtime = node.vnodes.get(body["vnode"])
        committed = 0
        if runtime is not None:
            committed = runtime.committed_version.get(body["key"], 0)
        return committed, VERSION_QUERY_BYTES

    def committed_stamp(self, runtime, key: bytes):
        return runtime.committed_version.get(
            key, runtime.applied_version.get(key, 0))

    # -- recovery ------------------------------------------------------------

    def replay(self, runtime, record):
        """Re-propose one journaled write through the current chain.

        A version query to the current tail skips records the chain
        already committed at an equal-or-newer version (the common
        case: only the backward ack was lost to the crash).  Version
        counters are not comparable across ring reconfigurations, so a
        record journaled under an older ring epoch is *never*
        re-proposed: the chain may have accepted newer writes under
        fresh counters, and replaying the stale value would overwrite
        an acknowledged update (a real lost-acked-write the scenario
        suite caught).  Dropping it is safe — the intent's client
        never received an ack, so either outcome is linearizable.
        """
        node = self.node
        if record.ring_version and node.local_ring.version != record.ring_version:
            return False
        for attempt in range(3):
            ring = node.local_ring
            chain = ring.chain_ids_for_key(record.key)
            if not chain:
                return False
            tail_vnode = ring.vnodes.get(chain[-1])
            if attempt == 0 and tail_vnode is not None:
                try:
                    committed = yield node.rpc.call(
                        tail_vnode.jbof_address, "version_query",
                        {"vnode": chain[-1], "key": record.key},
                        VERSION_QUERY_BYTES, timeout_us=REPLAY_TIMEOUT_US)
                except Exception:
                    committed = None
                if (committed is not None
                        and isinstance(record.stamp, int)
                        and committed >= record.stamp):
                    return False
            head_vnode = ring.vnodes.get(chain[0])
            if head_vnode is None:
                return False
            proposal = KVRequest(record.op, record.key, record.value,
                                 chain[0], ring.version, 0,
                                 tenant="__wal__")
            reply = yield node.rpc.call(
                head_vnode.jbof_address, "kv", proposal,
                proposal.wire_bytes(), timeout_us=REPLAY_TIMEOUT_US)
            if reply.status == STATUS_NACK:
                # Stale view: refresh from the hinted version's owner
                # (the control-plane pull already ran; just retry — the
                # NACK reply carried the newer ring version and the
                # next membership push installs it).
                yield node.sim.timeout(1_000.0)
                continue
            if reply.status in (STATUS_OK, STATUS_NOT_FOUND):
                return True
            raise RuntimeError(
                "replay of %s/%r failed with %s"
                % (runtime.vnode_id, record.key, reply.status))
        raise RuntimeError(
            "replay of %s/%r kept NACKing" % (runtime.vnode_id, record.key))


@register_protocol
class CraqChain(ChainReplication):
    """Chain replication with CRAQ-style version queries: a dirty
    replica asks the tail which version is committed and serves
    locally when it is already up to date (§3.7's rejected
    alternative — more internal traffic, kept for the ablation)."""

    name = "craq"

    def _resolve_dirty_read(self, runtime, request, body, tail_id,
                            tail_vnode):
        node = self.node
        # CRAQ-style: ask the tail which version is committed;
        # serve locally when this replica already has it.
        runtime.stats.version_queries += 1
        runtime.stats.version_query_bytes += 2 * VERSION_QUERY_BYTES
        try:
            committed = yield node.rpc.call(
                tail_vnode.jbof_address, "version_query",
                {"vnode": tail_id, "key": body.key},
                VERSION_QUERY_BYTES, timeout_us=50_000.0)
        except Exception:
            committed = None
        local = runtime.applied_version.get(body.key, 0)
        if committed is not None and committed <= local:
            result = yield from node._execute(runtime, body)
            runtime.stats.reads_served += 1
            node._respond(request, node._reply_for(runtime, body, result))
            return True
        return False
