"""Tests for the front-end client library (§3.1.2, §3.5, §3.7)."""

import pytest

from repro.core.client import FrontEndClient
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.hashring import HashRing, VNode
from repro.core.protocol import MembershipUpdate, ReadPolicy

from conftest import drive


def small_cluster(**overrides):
    defaults = dict(
        num_jbofs=3, ssds_per_jbof=1, num_clients=1, replication=2,
        store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        seed=6)
    defaults.update(overrides)
    cluster = LeedCluster(ClusterConfig(**defaults))
    cluster.start()
    return cluster


class TestRouting:
    def test_writes_go_to_head(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        target = client._pick_target("put", b"any-key")
        chain = client.local_ring.chain_for_key(b"any-key")
        assert target == (0, chain[0])

    def test_deletes_go_to_head(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        hop, _vnode = client._pick_target("del", b"k")
        assert hop == 0

    def test_tail_policy(self):
        cluster = small_cluster(read_policy=ReadPolicy.TAIL)
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        hop, vnode = client._pick_target("get", b"k")
        assert vnode.vnode_id == chain[-1].vnode_id

    def test_any_policy_round_robins(self):
        cluster = small_cluster(read_policy=ReadPolicy.ANY)
        client = cluster.clients[0]
        picks = {client._pick_target("get", b"k")[1].vnode_id
                 for _ in range(10)}
        assert len(picks) == 2  # both replicas used

    def test_crrs_policy_prefers_tokens(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        client.flow.on_response(chain[0].vnode_id, 1)
        client.flow.on_response(chain[1].vnode_id, 50)
        hop, vnode = client._pick_target("get", b"k")
        assert vnode.vnode_id == chain[1].vnode_id

    def test_leaving_replica_avoided_for_reads(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        client.vnode_states[chain[-1].vnode_id] = "LEAVING"
        for _ in range(5):
            _hop, vnode = client._pick_target("get", b"k")
            assert vnode.vnode_id != chain[-1].vnode_id


class TestMembershipHandling:
    def test_stale_update_ignored(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        version = client.local_ring.version
        stale = MembershipUpdate(ring_version=version - 1, vnodes=[],
                                 states=[], replication=2)
        client.apply_membership(stale)
        assert len(client.local_ring) > 0
        assert client.local_ring.version == version

    def test_refresh_ring_pulls_from_control_plane(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        # Clobber the local view, then refresh.
        client.local_ring = HashRing([], replication=2, version=0)

        def proc():
            ok = yield from client.refresh_ring()
            return ok

        assert drive(sim, proc())
        assert len(client.local_ring) == 3


class TestRetries:
    def test_retry_after_nack_on_stale_ring(self):
        """A client with an outdated ring gets NACKed, refreshes, and
        succeeds."""
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        # Fabricate a wrong ring: swap two vnodes' positions by using
        # fake ids that do not exist.
        good_ring = client.local_ring
        wrong = [VNode(vid + "-stale", v.jbof_address)
                 for vid, v in good_ring.vnodes.items()]
        client.local_ring = HashRing(wrong, replication=2,
                                     version=good_ring.version)

        def proc():
            result = yield from client.put(b"key", b"value")
            return result

        result = drive(sim, proc())
        assert result.ok
        assert result.retries >= 1

    def test_stats_recorded(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"a", b"1")
            yield from client.get(b"a")
            yield from client.get(b"missing")

        drive(sim, proc())
        assert client.stats.operations == 3
        assert client.stats.ok == 2
        assert client.stats.not_found == 1
        assert client.stats.mean_latency_us() > 0

    def test_only_lost_replies_are_swallowed(self):
        """A timeout or transport error resolves the attempt as a lost
        reply; any other failure of the RPC waiter is a bug and must
        surface from ``sim.run``, not be counted as a timeout."""
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        waiter = sim.event()
        client.rpc.call = lambda *args, **kwargs: waiter
        sim.schedule(5.0, lambda: waiter.fail(ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            drive(sim, client.get(b"k"))
        assert client.stats.timeouts == 0

    def test_unavailable_after_total_outage(self, monkeypatch):
        monkeypatch.setattr(FrontEndClient, "MAX_RETRIES", 2)
        cluster = small_cluster(num_jbofs=2)
        sim = cluster.sim
        client = cluster.clients[0]
        client.request_timeout_us = 500.0
        for node in cluster.jbofs:
            node.crash()
        cluster.network.partition(cluster.control_plane.address)

        def proc():
            result = yield from client.put(b"k", b"v")
            return result

        result = drive(sim, proc())
        assert result.status in ("unavailable", "overloaded")
        assert client.stats.failures == 1
        assert client.stats.failed_by_status == {result.status: 1}
