"""Conformance tests for the pluggable replication layer.

Every registered protocol (chain, craq, abd) must provide the same
client-observable guarantees: acknowledged writes are readable,
per-key committed stamps never move backwards, and writes journaled
in the WAL survive a crash via replay.  Protocol selection — by
name, the only selector — is covered here too.
"""

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.jbof import LeedOptions
from repro.core.protocol import KVRequest
from repro.core.replication import (
    AbdQuorum,
    ChainReplication,
    CraqChain,
    make_policy,
    protocol_names,
)
from repro.core.wal import WriteAheadLog

from conftest import drive

PROTOCOLS = ("chain", "craq", "abd")


def make_cluster(protocol="chain", seed=21, options=None, num_jbofs=3):
    config = ClusterConfig(
        num_jbofs=num_jbofs, ssds_per_jbof=1, num_clients=1, replication=3,
        store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        options=options or LeedOptions(),
        replication_protocol=protocol,
        seed=seed)
    cluster = LeedCluster(config)
    cluster.start()
    return cluster


def replicas_of(cluster, key):
    """(node, runtime) for every replica of ``key``, in chain order."""
    chain = cluster.clients[0].local_ring.chain_ids_for_key(key)
    out = []
    for vnode_id in chain:
        for node in cluster.jbofs:
            if vnode_id in node.vnodes:
                out.append((node, node.vnodes[vnode_id]))
    return out


class TestConformance:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_read_your_writes(self, protocol):
        cluster = make_cluster(protocol)
        client = cluster.clients[0]

        def proc():
            for i in range(8):
                key = b"key-%d" % i
                result = yield from client.put(key, b"value-%d" % i)
                assert result.ok, (protocol, result.status)
                reply = yield from client.get(key)
                assert reply.ok and reply.value == b"value-%d" % i

        drive(cluster.sim, proc())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_overwrites_visible(self, protocol):
        cluster = make_cluster(protocol)
        client = cluster.clients[0]

        def proc():
            for i in range(4):
                result = yield from client.put(b"k", b"v%d" % i)
                assert result.ok
            reply = yield from client.get(b"k")
            assert reply.ok and reply.value == b"v3"
            result = yield from client.delete(b"k")
            assert result.ok
            reply = yield from client.get(b"k")
            assert not reply.ok

        drive(cluster.sim, proc())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_committed_stamps_monotonic(self, protocol):
        cluster = make_cluster(protocol)
        client = cluster.clients[0]
        sim = cluster.sim
        key = b"stamped"
        seen = {}

        def proc():
            for i in range(4):
                result = yield from client.put(key, b"v%d" % i)
                assert result.ok
                yield sim.timeout(2_000)  # acks drain
                for node, runtime in replicas_of(cluster, key):
                    stamp = node.policy.committed_stamp(runtime, key)
                    previous = seen.get(runtime.vnode_id)
                    if previous is not None:
                        assert stamp >= previous, (protocol, i)
                    seen[runtime.vnode_id] = stamp

        drive(sim, proc())
        # At least one replica observed a real (non-zero) stamp.
        assert any(bool(stamp) and stamp != (0, "")
                   for stamp in seen.values())

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_wal_replay_after_crash(self, protocol):
        cluster = make_cluster(protocol)
        client = cluster.clients[0]
        sim = cluster.sim
        node = cluster.jbofs[0]
        vnode_id = sorted(node.vnodes)[0]
        runtime = node.vnodes[vnode_id]
        stamp = (1, node.address) if protocol == "abd" else 1

        def proc():
            # Journal an intent as if a write crashed mid-replication.
            runtime.wal.append("put", b"lost", b"lost-value", stamp)
            node.crash()
            yield sim.timeout(100_000.0)
            node.recover()
            yield sim.timeout(500_000.0)
            reply = yield from client.get(b"lost")
            return reply

        reply = drive(sim, proc())
        assert reply.ok and reply.value == b"lost-value"
        assert len(runtime.wal) == 0
        report = node.wal_recovery
        assert report["pending"] == 1 and report["failed"] == 0
        assert report["replayed"] + report["skipped"] == 1
        assert report["completed_at_us"] is not None

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_acknowledged_writes_drain_the_wal(self, protocol):
        cluster = make_cluster(protocol)
        client = cluster.clients[0]
        sim = cluster.sim

        def proc():
            for i in range(6):
                result = yield from client.put(b"drain-%d" % i, b"x" * 64)
                assert result.ok
            yield sim.timeout(10_000.0)

        drive(sim, proc())
        for node in cluster.jbofs:
            for runtime in node.vnodes.values():
                assert len(runtime.wal) == 0, (protocol, runtime.vnode_id)


class TestAbdFaultTolerance:
    def test_writes_survive_one_replica_down(self):
        cluster = make_cluster("abd")
        client = cluster.clients[0]
        sim = cluster.sim
        key = b"quorum-key"
        replicas = replicas_of(cluster, key)
        assert len(replicas) == 3
        coordinator_node, coordinator = replicas[0]
        victim_node = next(node for node, _ in replicas
                           if node is not coordinator_node)

        def proc():
            result = yield from client.put(key, b"before-crash")
            assert result.ok
            victim_node.crash()
            # Address a live replica directly: a majority (2 of 3)
            # is still up, so the write and the read must commit.
            reply = yield cluster.clients[0].rpc.call(
                coordinator_node.address, "kv",
                KVRequest("put", key, b"after-crash",
                          coordinator.vnode_id,
                          client.local_ring.version, 0, "t"),
                64, timeout_us=500_000.0)
            assert reply.status == "ok", reply.status
            reply = yield cluster.clients[0].rpc.call(
                coordinator_node.address, "kv",
                KVRequest("get", key, None, coordinator.vnode_id,
                          client.local_ring.version, 0, "t"),
                32, timeout_us=500_000.0)
            return reply

        reply = drive(sim, proc())
        assert reply.status == "ok" and reply.value == b"after-crash"

    def test_read_repairs_stale_replica(self):
        cluster = make_cluster("abd")
        client = cluster.clients[0]
        sim = cluster.sim
        key = b"repair-key"

        replicas = replicas_of(cluster, key)
        coordinator_node, coordinator = replicas[0]
        stale_node, stale_runtime = replicas[1]

        def proc():
            result = yield from client.put(key, b"fresh")
            assert result.ok
            # Roll one replica's stamp back so it looks stale, and
            # crash the third so the read quorum must include it.
            stale_node.policy._set_stamp(stale_runtime.vnode_id, key,
                                         (0, ""))
            replicas[2][0].crash()
            reply = yield client.rpc.call(
                coordinator_node.address, "kv",
                KVRequest("get", key, None, coordinator.vnode_id,
                          client.local_ring.version, 0, "t"),
                32, timeout_us=500_000.0)
            assert reply.status == "ok" and reply.value == b"fresh"
            yield sim.timeout(10_000.0)
            return stale_node.policy.stamp_of(stale_runtime.vnode_id, key)

        stamp = drive(sim, proc())
        assert stamp > (0, "")
        repairs = sum(rt.stats.read_repairs
                      for node in cluster.jbofs
                      for rt in node.vnodes.values())
        assert repairs >= 1


class TestSelection:
    def test_default_is_chain(self):
        cluster = make_cluster("chain")
        for node in cluster.jbofs:
            assert type(node.policy) is ChainReplication

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_protocol_name_is_visible_end_to_end(self, protocol):
        """The name picks the policy and every layer reports it (the
        scenario record's ``protocol`` is checked by
        ``test_scenarios.test_failure_burst_per_protocol``)."""
        policy = {"chain": ChainReplication, "craq": CraqChain,
                  "abd": AbdQuorum}[protocol]
        cluster = make_cluster(protocol)
        for node in cluster.jbofs:
            assert type(node.policy) is policy
        assert cluster.config.replication_protocol == protocol
        assert cluster.control_plane.replication_protocol == protocol
        snapshot = cluster.control_plane.membership_snapshot()
        assert snapshot.replication_protocol == protocol

    def test_explicit_abd(self):
        cluster = make_cluster("abd")
        for node in cluster.jbofs:
            assert type(node.policy) is AbdQuorum

    def test_registry_lists_builtins(self):
        assert set(PROTOCOLS) <= set(protocol_names())

    def test_unknown_protocol_rejected_at_construction(self):
        with pytest.raises(ValueError) as err:
            ClusterConfig(
                num_jbofs=3, ssds_per_jbof=1, num_clients=1,
                store=StoreConfig(num_segments=32,
                                  key_log_bytes=1 << 20,
                                  value_log_bytes=4 << 20),
                replication_protocol="paxos")
        message = str(err.value)
        assert "paxos" in message
        for name in PROTOCOLS:
            assert name in message

    def test_make_policy_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_policy("raft", None)


class TestDeterminism:
    def _digest(self, protocol, seed=33):
        cluster = make_cluster(protocol, seed=seed)
        cluster.sim.enable_schedule_digest()
        client = cluster.clients[0]

        def proc():
            for i in range(12):
                result = yield from client.put(b"d-%d" % i, b"v" * 32)
                assert result.ok
            for i in range(12):
                reply = yield from client.get(b"d-%d" % i)
                assert reply.ok

        drive(cluster.sim, proc())
        return cluster.sim.schedule_digest

    def test_same_protocol_same_schedule(self):
        assert self._digest("chain") == self._digest("chain")
        assert self._digest("abd") == self._digest("abd")

    def test_protocols_schedule_differently(self):
        assert self._digest("chain") != self._digest("abd")


class TestWalUnit:
    def test_fifo_ack_per_key(self):
        wal = WriteAheadLog("t")
        first = wal.append("put", b"k", b"v1", 1)
        second = wal.append("put", b"k", b"v2", 2)
        assert len(wal) == 2
        wal.ack(b"k")
        remaining = wal.unacknowledged()
        assert [r.lsn for r in remaining] == [second.lsn]
        assert first.lsn not in {r.lsn for r in remaining}
        wal.ack(b"k")
        assert len(wal) == 0
        assert wal.stats.acked == 2

    def test_ack_record_by_lsn(self):
        wal = WriteAheadLog("t")
        record = wal.append("put", b"a", b"v", (1, "w"))
        wal.append("put", b"b", b"v", (2, "w"))
        wal.ack_record(record.lsn)
        assert [r.key for r in wal.unacknowledged()] == [b"b"]

    def test_mark_replayed_counts(self):
        wal = WriteAheadLog("t")
        one = wal.append("put", b"a", b"v", 1)
        two = wal.append("put", b"b", b"v", 2)
        wal.mark_replayed(one.lsn)
        wal.mark_replayed(two.lsn, skipped=True)
        assert wal.stats.replayed == 1
        assert wal.stats.replay_skipped == 1
        assert len(wal) == 0
