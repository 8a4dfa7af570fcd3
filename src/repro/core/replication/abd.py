"""ABD majority-quorum replication (multi-writer atomic registers).

The classic Attiya–Bar-Noy–Dolev protocol, adapted to the per-key
chains of the hash ring: a key's replica group is the same R vnodes
chain replication would use, but there is no head/tail — any replica
addressed by a client coordinates.

Write (two quorum phases):

1. *query* — read the key's logical timestamp from a majority;
2. *commit* — apply the value at stamp ``(max_n + 1, coordinator)``
   locally and at enough peers to reach a majority.

Read (one quorum phase + repair):

1. read ``(stamp, value)`` locally and from a majority;
2. answer with the highest-stamped value;
3. write that value back to any responder that was stale (the
   read-repair that makes ABD reads linearizable).

Stamps are ``(n, writer)`` tuples ordered lexicographically, kept in
a per-vnode map on the policy — the SmartNIC DRAM metadata a real
deployment would hold beside the store.  The coordinator journals
each write in the partition WAL after the query phase and retires it
on quorum commit, so a coordinator crash between phases leaves an
intent that :meth:`replay` re-commits at its original stamp.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.protocol import (
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_UNAVAILABLE,
    AbdCommit,
    AbdQuery,
    AbdVote,
    KVReply,
    KVRequest,
)
from repro.core.datastore import OpResult
from repro.core.replication.base import ReplicationPolicy, register_protocol
from repro.hw.cpu import CYCLE_COSTS

#: The zero stamp: sorts below every real write's stamp.
ZERO_STAMP = (0, "")

#: Vnode state string (mirrors ``repro.core.jbof.JOINING``, which this
#: module cannot import without a cycle): a joining replica's store is
#: still being populated by COPY, so it votes UNAVAILABLE.
JOINING = "JOINING"


def _available(vote: AbdVote) -> bool:
    """A vote a quorum counts: a JOINING replica answers fast with an
    UNAVAILABLE vote, and if those counted, a round could end before
    slower healthy replicas report — rejecting an op a real quorum
    would accept."""
    return vote.status != STATUS_UNAVAILABLE


def _acked(status: str) -> bool:
    return status == STATUS_OK


class QuorumRound:
    """One quorum phase of an :class:`AbdQuorum` coordinator, run to
    completion reply by reply.

    :meth:`ask` posts a call whose reply (or deadline failure) is a
    continuation counted inside the dispatch that lands it: no event
    per reply.  A coordinator in :meth:`wait` resumes inside the
    dispatch of the reply that ends the round: the ``need``-th usable
    reply, or the last one when the quorum falls short.
    """

    __slots__ = ("policy", "need", "usable", "replies", "outstanding",
                 "waiter")

    def __init__(self, policy: "AbdQuorum", need: int, usable):
        self.policy = policy
        self.need = need
        self.usable = usable
        #: The usable replies so far, in landing order.
        self.replies: list = []
        self.outstanding = 0
        self.waiter = None

    def ask(self, address: str, method: str, body) -> None:
        self.outstanding += 1
        self.policy.node.rpc.call(
            address, method, body, body.wire_bytes(),
            timeout_us=self.policy.quorum_timeout_us, then=self._land)

    @property
    def done(self) -> bool:
        return len(self.replies) >= self.need or self.outstanding == 0

    def _land(self, ok: bool, value) -> None:
        self.outstanding -= 1
        if ok and self.usable(value):
            self.replies.append(value)
        waiter = self.waiter
        if waiter is not None and self.done:
            self.waiter = None
            waiter.succeed_inline()

    def wait(self):
        """Generator: the usable replies so far, once the round is
        done."""
        if not self.done:
            self.waiter = self.policy.node.sim.event()
            yield self.waiter
        return list(self.replies)


@register_protocol
class AbdQuorum(ReplicationPolicy):
    """Majority read/write quorums with per-key logical timestamps."""

    name = "abd"

    #: RPC deadline for quorum phases.  Shorter than the client's
    #: request timeout so a dead replica costs one phase, not the op.
    quorum_timeout_us = 50_000.0

    def __init__(self, node):
        super().__init__(node)
        #: vnode_id -> key -> (n, writer) stamp of the applied value.
        self._stamps: Dict[str, Dict[bytes, Tuple[int, str]]] = {}
        #: Monotonic per-coordinator op sequence, folded into the
        #: stamp's writer component: two writes to the same key that
        #: interleave their query phases at one coordinator would
        #: otherwise mint identical ``(max_n + 1, address)`` stamps,
        #: and replicas would silently drop the equal-stamp loser
        #: while both clients saw OK.
        self._op_seq = 0

    def register_handlers(self) -> None:
        rpc = self.node.rpc
        rpc.register("abd_query", self._handle_abd_query)
        rpc.register("abd_commit", self._handle_abd_commit)

    # -- stamp bookkeeping ---------------------------------------------------

    def _next_writer(self) -> str:
        """Unique writer component for a fresh stamp.

        The zero-padded sequence keeps the writer string's lexical
        order equal to coordination order at this node, so same-``n``
        ties between ops of one coordinator resolve to the later op
        — and no two ops anywhere share a stamp.
        """
        self._op_seq += 1
        return "%s#%012d" % (self.node.address, self._op_seq)

    def stamp_of(self, vnode_id: str, key: bytes) -> Tuple[int, str]:
        return self._stamps.get(vnode_id, {}).get(key, ZERO_STAMP)

    def _set_stamp(self, vnode_id: str, key: bytes,
                   stamp: Tuple[int, str]) -> None:
        self._stamps.setdefault(vnode_id, {})[key] = stamp

    def committed_stamp(self, runtime, key: bytes):
        return self.stamp_of(runtime.vnode_id, key)

    def migration_stamp(self, runtime, key: bytes):
        # ABD's (round, writer) timestamps are the protocol's total
        # order; COPY/mirror pairs carry them so a buffered scan
        # snapshot cannot be applied over a newer quorum commit.
        return self.stamp_of(runtime.vnode_id, key)

    def on_migrated(self, runtime, key: bytes, stamp) -> None:
        # A migrated value must carry its timestamp into this replica's
        # vote, or a stale pre-migration replica outvotes the fresh
        # copy at the next read quorum and read-repair rolls the key
        # back (a lost acked write the failure-burst matrix caught).
        if isinstance(stamp, tuple) \
                and stamp > self.stamp_of(runtime.vnode_id, key):
            self._set_stamp(runtime.vnode_id, key, stamp)

    def _peers(self, chain: List[str],
               own_vnode: str) -> List[Tuple[str, str]]:
        """(vnode_id, jbof_address) for every other replica of the key."""
        ring = self.node.local_ring
        peers = []
        for vnode_id in chain:
            if vnode_id == own_vnode:
                continue
            vnode = ring.vnodes.get(vnode_id)
            if vnode is not None:
                peers.append((vnode_id, vnode.jbof_address))
        return peers

    # -- write path ----------------------------------------------------------

    def on_client_write(self, runtime, request, body, chain):
        node = self.node
        # A retried write's earlier attempt surfacing after its
        # per-attempt deadline would take a *fresh* stamp (max+1) and
        # roll the key back over newer acked values; refuse it before
        # the query phase (same zombie guard as the chain entry).
        if (body.op != "get" and body.deadline_us is not None
                and node.sim.now > body.deadline_us):
            runtime.stats.writes_expired += 1
            return
        majority = len(chain) // 2 + 1
        peers = self._peers(chain, runtime.vnode_id)
        if len(peers) + 1 < majority:
            node._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=node.local_ring.version))
            return
        # Phase 1: learn the highest stamp from a majority.
        runtime.stats.quorum_queries += 1
        query_round = QuorumRound(self, majority - 1, _available)
        for vnode_id, address in peers:
            query = AbdQuery(vnode_id, body.key)
            runtime.stats.quorum_bytes += query.wire_bytes()
            query_round.ask(address, "abd_query", query)
        votes = yield from query_round.wait()
        if len(votes) < majority - 1:
            node._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=node.local_ring.version))
            return
        max_n = self.stamp_of(runtime.vnode_id, body.key)[0]
        for vote in votes:
            max_n = max(max_n, vote.stamp[0])
        stamp = (max_n + 1, self._next_writer())
        # Journal the intent before touching any replica: a crash
        # between the phases leaves the record for recovery replay.
        wal = runtime.wal
        record = wal.append(body.op, body.key, body.value, stamp)
        # Apply locally (the coordinator counts toward the quorum).
        result = yield from node._execute(runtime, body)
        if not result.ok and result.status != STATUS_NOT_FOUND:
            wal.ack_record(record.lsn)
            node._respond(request, node._reply_for(runtime, body, result))
            return
        self._set_stamp(runtime.vnode_id, body.key, stamp)
        # Phase 2: commit at enough peers to reach a majority.
        committed = yield from self._commit_quorum(
            runtime, body.op, body.key, body.value, stamp, peers,
            majority - 1)
        if not committed:
            # The write may be partially applied; the WAL record stays
            # journaled so recovery can finish the job.
            node._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=node.local_ring.version))
            return
        wal.ack_record(record.lsn)
        runtime.stats.writes_committed += 1
        node._respond(request, node._reply_for(runtime, body, result))
        if result.ok:
            node._mirror_write(runtime.vnode_id, body.key, body.value,
                               stamp)

    def on_forward(self, runtime, request, body, chain):
        # No chain hops in ABD: a forwarded envelope (stale client
        # view) is just coordinated here.
        yield from self.on_client_write(runtime, request, body, chain)

    def _commit_quorum(self, runtime, op, key, value, stamp, peers, need):
        """Generator: fan a commit out to ``peers``; True on quorum."""
        commit_round = QuorumRound(self, need, _acked)
        for vnode_id, address in peers:
            commit = AbdCommit(vnode_id, op, key, value, stamp)
            runtime.stats.quorum_bytes += commit.wire_bytes()
            commit_round.ask(address, "abd_commit", commit)
        acks = yield from commit_round.wait()
        return len(acks) >= need

    # -- read path -----------------------------------------------------------

    def serve_read(self, runtime, request, body, chain):
        node = self.node
        majority = len(chain) // 2 + 1
        peers = self._peers(chain, runtime.vnode_id)
        if len(peers) + 1 < majority:
            node._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=node.local_ring.version))
            return
        runtime.stats.quorum_queries += 1
        query_round = QuorumRound(self, majority - 1, _available)
        for vnode_id, address in peers:
            query = AbdQuery(vnode_id, body.key, want_value=True)
            runtime.stats.quorum_bytes += query.wire_bytes()
            query_round.ask(address, "abd_query", query)
        # Local read overlaps the quorum round trip.
        result = yield from node._execute(runtime, body)
        votes = yield from query_round.wait()
        if len(votes) < majority - 1:
            node._respond(request, KVReply(
                STATUS_UNAVAILABLE, ring_version=node.local_ring.version))
            return
        local_stamp = self.stamp_of(runtime.vnode_id, body.key)
        if result.status == "overloaded":
            # Shed local read: serve purely from the quorum's answers.
            local_stamp = ZERO_STAMP
        best_stamp, best_value = local_stamp, result.value
        for vote in votes:
            if vote.stamp > best_stamp:
                best_stamp, best_value = vote.stamp, vote.value
        # Read repair: bring stale responders (and ourselves) up to
        # the winning stamp before answering, so the read is atomic.
        # A winning vote with no value is a delete — repaired as a
        # "del" so stale replicas cannot resurrect the dead value at
        # a later quorum that misses the deleter's replica.
        if best_stamp > ZERO_STAMP:
            repair_op = "put" if best_value is not None else "del"
            repaired = False
            if best_stamp > local_stamp:
                repair = KVRequest(repair_op, body.key, best_value,
                                   runtime.vnode_id, tenant="__abd__")
                yield from node._execute(runtime, repair)
                self._set_stamp(runtime.vnode_id, body.key, best_stamp)
                repaired = True
            for vote in votes:
                if vote.stamp >= best_stamp:
                    continue
                vnode = node.local_ring.vnodes.get(vote.vnode_id)
                if vnode is None:
                    continue
                commit = AbdCommit(vote.vnode_id, repair_op, body.key,
                                   best_value, best_stamp)
                runtime.stats.quorum_bytes += commit.wire_bytes()
                node.rpc.notify(vnode.jbof_address, "abd_commit", commit,
                                commit.wire_bytes())
                repaired = True
            if repaired:
                runtime.stats.read_repairs += 1
        runtime.stats.reads_served += 1
        if best_value is not None:
            outcome = OpResult("ok", value=best_value)
        else:
            outcome = OpResult("not_found")
        node._respond(request, node._reply_for(runtime, body, outcome))

    def fast_read_local(self, runtime, body, chain) -> bool:
        # Every ABD read needs a quorum round: never serve locally.
        return False

    # -- replica-side handlers -----------------------------------------------

    def _handle_abd_query(self, src: str, query: AbdQuery):
        node = self.node
        yield from node._net_core().execute(CYCLE_COSTS["dirty_map_op"])
        runtime = node.vnodes.get(query.vnode_id)
        if runtime is None or runtime.state == JOINING or not node.alive:
            vote = AbdVote(query.vnode_id, query.key,
                           status=STATUS_UNAVAILABLE)
            return vote, vote.wire_bytes()
        stamp = self.stamp_of(query.vnode_id, query.key)
        value = None
        status = STATUS_OK
        if query.want_value:
            probe = KVRequest("get", query.key, vnode_id=query.vnode_id,
                              tenant="__abd__")
            # The value probe yields, so a concurrent abd_commit can
            # land mid-read and leave the vote pairing the new value
            # with the stamp read above.  Re-read the stamp after the
            # probe and re-probe until the pair is consistent (one
            # extra round suffices unless commits keep racing).
            for _ in range(3):
                result = yield from node._execute(runtime, probe)
                after = self.stamp_of(query.vnode_id, query.key)
                if after == stamp:
                    break
                stamp = after
            value = result.value
            if not result.ok:
                status = (STATUS_NOT_FOUND
                          if result.status == STATUS_NOT_FOUND
                          else STATUS_UNAVAILABLE)
        vote = AbdVote(query.vnode_id, query.key, stamp, value, status)
        return vote, vote.wire_bytes()

    def _handle_abd_commit(self, src: str, commit: AbdCommit):
        node = self.node
        yield from node._net_core().execute(
            CYCLE_COSTS["replication_forward"])
        runtime = node.vnodes.get(commit.vnode_id)
        if runtime is None or runtime.state == JOINING or not node.alive:
            return STATUS_UNAVAILABLE, 16
        current = self.stamp_of(commit.vnode_id, commit.key)
        # Stamps are unique per op (coordinator sequence in the writer
        # component), so an equal stamp is a re-delivery of the write
        # already applied here — idempotent OK, not a silent drop of a
        # different value.
        if commit.stamp > current:
            body = KVRequest(commit.op, commit.key, commit.value,
                             commit.vnode_id, tenant="__abd__")
            result = yield from node._execute(runtime, body)
            if not (result.ok or result.status == STATUS_NOT_FOUND):
                return result.status, 16
            self._set_stamp(commit.vnode_id, commit.key, commit.stamp)
            runtime.stats.quorum_commits += 1
            # A COPY source mirrors every write it applies, not only
            # the ones it coordinates.
            if result.ok:
                node._mirror_write(commit.vnode_id, commit.key, commit.value,
                                   commit.stamp)
        return STATUS_OK, 16

    # -- recovery ------------------------------------------------------------

    def replay(self, runtime, record):
        """Re-commit one journaled write at its original stamp.

        A query quorum first checks whether a stamp at least as new is
        already in place (the ack was lost, or a later write
        superseded the record); otherwise the commit phase re-runs
        against the current replica group.  Raises when no quorum is
        reachable, keeping the record journaled.
        """
        node = self.node
        chain = node.local_ring.chain_ids_for_key(record.key)
        if not chain:
            return False
        majority = len(chain) // 2 + 1
        own = runtime.vnode_id if runtime.vnode_id in chain else None
        peers = self._peers(chain, own or "")
        local_votes = 1 if own else 0
        query_round = QuorumRound(self, majority - local_votes, _available)
        for vnode_id, address in peers:
            query_round.ask(address, "abd_query",
                            AbdQuery(vnode_id, record.key))
        votes = yield from query_round.wait()
        if len(votes) + local_votes < majority:
            raise RuntimeError(
                "no query quorum for replay of %r" % (record.key,))
        top = self.stamp_of(own, record.key) if own else ZERO_STAMP
        for vote in votes:
            top = max(top, vote.stamp)
        stamp = record.stamp if isinstance(record.stamp, tuple) \
            else ZERO_STAMP
        if top >= stamp:
            return False
        need = majority - local_votes
        if own:
            body = KVRequest(record.op, record.key, record.value, own,
                             tenant="__wal__")
            result = yield from node._execute(runtime, body)
            if result.ok or result.status == STATUS_NOT_FOUND:
                self._set_stamp(own, record.key, stamp)
        committed = yield from self._commit_quorum(
            runtime, record.op, record.key, record.value, stamp, peers,
            need)
        if not committed:
            raise RuntimeError(
                "no commit quorum for replay of %r" % (record.key,))
        return True
