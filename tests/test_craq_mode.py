"""Tests for the CRAQ-style version-query alternative (§3.7).

The paper considered letting a dirty replica resolve reads with a
version query to the tail (as in CRAQ) and rejected it because it
"generates more internal traffic across JBOFs".  Both are
implemented, as the ``"chain"`` and ``"craq"`` replication protocols;
these tests check that CRAQ (a) stays consistent,
(b) actually serves up-to-date dirty reads locally, and (c) produces
the extra internal traffic the paper predicted.
"""

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.protocol import KVRequest

from conftest import drive


def make_cluster(protocol="craq", seed=21):
    config = ClusterConfig(
        num_jbofs=3, ssds_per_jbof=1, num_clients=1, replication=3,
        store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        replication_protocol=protocol, seed=seed)
    cluster = LeedCluster(config)
    cluster.start()
    return cluster


def dirty_read_at_head(cluster, key=b"hot"):
    """Write a key, mark the head dirty, read at the head; returns
    (reply, head_runtime)."""
    sim = cluster.sim
    client = cluster.clients[0]

    def proc():
        result = yield from client.put(key, b"committed-value")
        assert result.ok
        yield sim.timeout(2_000)  # acks drain
        chain = client.local_ring.chain_ids_for_key(key)
        head_id = chain[0]
        for node in cluster.jbofs:
            if head_id in node.vnodes:
                head_runtime = node.vnodes[head_id]
                head_node = node
        head_runtime.mark_dirty(key)  # as if a write were in flight
        reply = yield client.rpc.call(
            head_node.address, "kv",
            KVRequest("get", key, None, head_id,
                      client.local_ring.version, 0, "t"), 32)
        return reply, head_runtime

    return drive(sim, proc())


class TestCraqMode:
    def test_up_to_date_replica_serves_locally(self):
        """The head applied the write (versions match), so the version
        query lets it answer without shipping."""
        cluster = make_cluster("craq")
        reply, head = dirty_read_at_head(cluster)
        assert reply.status == "ok"
        assert reply.value == b"committed-value"
        assert head.stats.version_queries == 1
        assert head.stats.reads_shipped == 0
        assert reply.served_by == head.vnode_id  # local, not the tail

    def test_ship_mode_forwards_instead(self):
        cluster = make_cluster("chain")
        reply, head = dirty_read_at_head(cluster)
        assert reply.status == "ok"
        assert reply.value == b"committed-value"
        assert head.stats.version_queries == 0
        assert head.stats.reads_shipped == 1
        assert reply.served_by != head.vnode_id  # the tail answered

    def test_stale_replica_still_ships(self):
        """If the replica lags the committed version, CRAQ mode must
        fall back to shipping — never serve stale data."""
        cluster = make_cluster("craq")
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            result = yield from client.put(b"k", b"v1")
            assert result.ok
            yield sim.timeout(2_000)
            chain = client.local_ring.chain_ids_for_key(b"k")
            head_id, tail_id = chain[0], chain[-1]
            for node in cluster.jbofs:
                if head_id in node.vnodes:
                    head_runtime = node.vnodes[head_id]
                    head_node = node
                if tail_id in node.vnodes:
                    tail_runtime = node.vnodes[tail_id]
            # Simulate the head lagging: tail committed one more
            # version than the head applied.
            head_runtime.mark_dirty(b"k")
            tail_runtime.committed_version[b"k"] = \
                head_runtime.applied_version.get(b"k", 0) + 1
            reply = yield client.rpc.call(
                head_node.address, "kv",
                KVRequest("get", b"k", None, head_id,
                          client.local_ring.version, 0, "t"), 32)
            return reply, head_runtime

        reply, head = drive(sim, proc())
        assert reply.status == "ok"
        assert head.stats.version_queries == 1
        assert head.stats.reads_shipped == 1  # query, then ship anyway

    def test_craq_generates_more_internal_traffic(self):
        """The paper's reason for rejecting CRAQ: extra cross-JBOF
        messages per dirty read."""
        traffic = {}
        for protocol in ("craq", "chain"):
            cluster = make_cluster(protocol)
            reply, head = dirty_read_at_head(cluster)
            assert reply.status == "ok"
            traffic[protocol] = head.stats.version_query_bytes
        assert traffic["craq"] > 0
        assert traffic["chain"] == 0

    def test_craq_cluster_consistency(self):
        """Full workload under CRAQ mode stays read-your-writes."""
        cluster = make_cluster("craq")
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for version in range(30):
                value = b"v%04d" % version
                result = yield from client.put(b"key", value)
                assert result.ok
                got = yield from client.get(b"key")
                assert got.ok and got.value == value

        drive(sim, proc())
