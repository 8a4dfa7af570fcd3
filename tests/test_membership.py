"""Tests for the control plane: join, leave, failure, COPY (§3.8)."""

import random
from types import SimpleNamespace

import pytest

from repro.baselines import make_cluster as make_system_cluster
from repro.baselines.fawn.datastore import FawnConfig
from repro.baselines.kvell.datastore import KVellConfig
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.hashring import HashRing, VNode
from repro.core.jbof import JOINING, LEAVING, RUNNING, LeedOptions
from repro.scenarios.injectors import ACTIONS

from conftest import drive, scan_pairs


#: The stores a cluster can run, for the tests that hold on each.
SYSTEMS = ("leed", "fawn", "kvell")


def make_cluster(num_jbofs=3, replication=2, heartbeat_timeout_us=20_000.0,
                 system="leed", replication_protocol="chain"):
    """A started cluster of ``system``'s store: LEED's, or FAWN's or
    KVell's on the same JBOFs (§4.2), each vnode with a small log;
    LEED's runs ``replication_protocol``."""
    if system != "leed":
        cluster = make_system_cluster(
            system, platform="stingray", num_nodes=num_jbofs,
            ssds_per_node=2, num_clients=1, replication=replication,
            store_config={"fawn": FawnConfig(log_bytes=4 << 20),
                          "kvell": KVellConfig(slab_bytes=4 << 20)}[system],
            options=LeedOptions(heartbeat_period_us=2_000.0,
                                enable_swap=False),
            heartbeat_timeout_us=heartbeat_timeout_us, vnodes_per_ssd=1,
            seed=3)
        cluster.start()
        return cluster
    config = ClusterConfig(
        num_jbofs=num_jbofs, ssds_per_jbof=2, num_clients=1,
        replication=replication,
        store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        options=LeedOptions(heartbeat_period_us=2_000.0),
        heartbeat_timeout_us=heartbeat_timeout_us,
        replication_protocol=replication_protocol, seed=3)
    cluster = LeedCluster(config)
    cluster.start()
    return cluster


def load_keys(cluster, count, prefix=b"key"):
    client = cluster.clients[0]

    def proc():
        for index in range(count):
            result = yield from client.put(b"%s-%04d" % (prefix, index),
                                           b"value-%04d" % index)
            assert result.ok, result.status
        yield cluster.sim.timeout(2000)

    drive(cluster.sim, proc())


def verify_keys(cluster, count, prefix=b"key", expect_ok=True):
    client = cluster.clients[0]
    missing = []

    def proc():
        for index in range(count):
            result = yield from client.get(b"%s-%04d" % (prefix, index))
            if result.status != "ok":
                missing.append(index)

    drive(cluster.sim, proc())
    if expect_ok:
        assert not missing, "missing keys: %s" % missing[:10]
    return missing


class TestBootstrap:
    def test_initial_ring_published(self):
        cluster = make_cluster()
        assert cluster.control_plane.ring_version == 1
        for node in cluster.jbofs:
            assert node.local_ring.version == 1
            assert len(node.local_ring) == 6
        assert cluster.clients[0].local_ring.version == 1

    def test_vnode_registry(self):
        cluster = make_cluster()
        assert len(cluster.control_plane.vnodes) == 6
        for info in cluster.control_plane.vnodes.values():
            assert info.state == RUNNING


class TestJoin:
    def test_join_preserves_data(self):
        cluster = make_cluster()
        sim = cluster.sim
        load_keys(cluster, 60)

        host = cluster.jbofs[0]
        new_id = host.address + "/pnew"
        runtime = host.add_vnode(new_id, 0, 1, 50)

        def proc():
            yield from cluster.control_plane.join_vnode(new_id, host.address)
            yield sim.timeout(5000)

        drive(sim, proc())
        assert cluster.control_plane.vnodes[new_id].state == RUNNING
        assert new_id in cluster.control_plane.master_ring().vnodes
        verify_keys(cluster, 60)

    def test_joined_node_receives_copies(self):
        cluster = make_cluster()
        sim = cluster.sim
        load_keys(cluster, 80)
        host = cluster.jbofs[0]
        new_id = host.address + "/pnew"
        runtime = host.add_vnode(new_id, 0, 1, 50)

        def proc():
            yield from cluster.control_plane.join_vnode(new_id, host.address)
            yield sim.timeout(5000)

        drive(sim, proc())
        new_ring = cluster.control_plane.master_ring()
        owned = sum(1 for index in range(80)
                    if new_id in new_ring.chain_ids_for_key(
                        b"key-%04d" % index))
        if owned:
            assert runtime.store.live_objects > 0

    def test_membership_events_logged(self):
        cluster = make_cluster()
        sim = cluster.sim
        host = cluster.jbofs[0]
        new_id = host.address + "/pnew"
        host.add_vnode(new_id, 0, 1, 50)

        def proc():
            yield from cluster.control_plane.join_vnode(new_id, host.address)

        drive(sim, proc())
        kinds = [kind for _t, kind, _v in
                 cluster.control_plane.membership_events]
        assert kinds == ["join_start", "join_end"]


class TestLeave:
    @pytest.mark.parametrize("system", SYSTEMS)
    def test_leave_preserves_data(self, system):
        cluster = make_cluster(system=system)
        sim = cluster.sim
        load_keys(cluster, 60)
        victim = list(cluster.jbofs[2].vnodes)[0]

        def proc():
            yield from cluster.control_plane.leave_vnode(victim)
            yield sim.timeout(5000)

        drive(sim, proc())
        assert victim not in cluster.control_plane.vnodes
        assert victim not in cluster.control_plane.master_ring().vnodes
        verify_keys(cluster, 60)

    def test_leave_unknown_vnode_noop(self):
        cluster = make_cluster()

        def proc():
            yield from cluster.control_plane.leave_vnode("ghost/p0")
            yield cluster.sim.timeout(0)

        drive(cluster.sim, proc())


class TestFailure:
    def test_heartbeat_failure_detected(self):
        cluster = make_cluster(heartbeat_timeout_us=15_000.0)
        sim = cluster.sim
        load_keys(cluster, 40)
        dead = cluster.jbofs[1]
        dead.crash()

        def wait():
            yield sim.timeout(400_000)

        drive(sim, wait())
        assert dead.address in cluster.control_plane._failed
        ring = cluster.control_plane.master_ring()
        assert all(dead.address != v.jbof_address
                   for v in ring.vnodes.values())

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_data_survives_single_failure(self, system):
        """R=2: every key has a surviving replica after one JBOF dies;
        reads keep working after re-replication."""
        cluster = make_cluster(heartbeat_timeout_us=15_000.0, system=system)
        sim = cluster.sim
        load_keys(cluster, 50)
        cluster.jbofs[1].crash()

        def wait():
            yield sim.timeout(600_000)

        drive(sim, wait())
        verify_keys(cluster, 50)

    def test_writes_resume_after_recovery(self):
        cluster = make_cluster(heartbeat_timeout_us=15_000.0)
        sim = cluster.sim
        load_keys(cluster, 20)
        cluster.jbofs[2].crash()

        def wait():
            yield sim.timeout(600_000)

        drive(sim, wait())
        client = cluster.clients[0]

        def proc():
            result = yield from client.put(b"post-failure", b"new-value")
            got = yield from client.get(b"post-failure")
            return result, got

        result, got = drive(sim, proc())
        assert result.ok
        assert got.ok and got.value == b"new-value"


class TestRebuild:
    """A rebuilt vnode (upgrade, power restore) reuses the SSD, slot and
    store id it was built with, whatever store it runs."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_rolling_upgrade_keeps_every_key(self, system):
        cluster = make_cluster(system=system)
        load_keys(cluster, 300)
        placements = {vnode_id: runtime.placement
                      for node in cluster.jbofs
                      for vnode_id, runtime in node.vnodes.items()}
        drive(cluster.sim, cluster.rolling_upgrade("v2"))
        assert {node.software_version for node in cluster.jbofs} == {"v2"}
        assert {vnode_id: runtime.placement
                for node in cluster.jbofs
                for vnode_id, runtime in node.vnodes.items()} == placements
        verify_keys(cluster, 300)

    @pytest.mark.parametrize("system, kind", [("fawn", "FawnDataStore"),
                                              ("kvell", "KVellDataStore")])
    def test_power_restore_names_a_store_without_flash_scan(self, system,
                                                            kind):
        cluster = make_cluster(system=system)
        cluster.power_fail_jbof(1)
        with pytest.raises(NotImplementedError, match=kind):
            drive(cluster.sim, cluster.power_restore_jbof(1))


def mirror_count(node):
    return sum(len(mirrors) for mirrors in node._mirrors.values())


class TestMigration:
    """Join, leave and failure run one migration body: each COPY source
    mirrors its committed writes from ``do_copy`` until it installs the
    ring that ends the migration."""

    def test_mirrors_end_where_the_ending_ring_is_installed(self):
        cluster = make_cluster(num_jbofs=4, replication=3)
        sim, control = cluster.sim, cluster.control_plane
        load_keys(cluster, 120)
        counts = {node.address: 0 for node in cluster.jbofs}
        #: address -> control-plane ring version when its mirror began.
        began = {}
        #: phase -> [(address, began at, ring installed when it ended)]
        ended = {}

        def step_until(phase, done):
            while not done():
                sim.step()
                for node in cluster.jbofs:
                    count = mirror_count(node)
                    if count > counts[node.address]:
                        began[node.address] = control.ring_version
                    elif count < counts[node.address]:
                        ended.setdefault(phase, []).append(
                            (node.address, began[node.address],
                             node.local_ring.version))
                    counts[node.address] = count

        def run_phase(phase, done):
            step_until(phase, done)
            quiet = sim.now + 5_000.0  # every push lands
            step_until(phase, lambda: sim.now >= quiet)
            assert not any(counts.values()), (phase, counts)

        host = cluster.jbofs[0]
        joiner = host.address + "/pnew"
        host.add_vnode(joiner, 0, 1, 50)
        join = sim.process(control.join_vnode(joiner, host.address))
        run_phase("join", lambda: join.triggered)
        leave = sim.process(control.leave_vnode(
            sorted(cluster.jbofs[3].vnodes)[0]))
        run_phase("leave", lambda: leave.triggered)
        cluster.jbofs[2].crash()
        run_phase("failure", lambda: any(
            kind == "recovered" for _t, kind, _v in control.membership_events))

        assert sorted(ended) == ["failure", "join", "leave"]
        for phase, stops in ended.items():
            early = [stop for stop in stops if stop[2] <= stop[1]]
            assert not early, (phase, early)

    @pytest.mark.parametrize("protocol", ["chain", "craq", "abd"])
    def test_deletes_during_a_join_reach_the_joiner(self, protocol):
        """A DEL committed while its key's COPY runs is mirrored as a
        tombstone: the joiner holds none of the deleted values."""
        cluster = make_cluster(replication=3, replication_protocol=protocol)
        sim, control = cluster.sim, cluster.control_plane
        load_keys(cluster, 600)
        host = cluster.jbofs[0]
        joiner = host.address + "/pnew"
        runtime = host.add_vnode(joiner, 0, 1, 50)
        new_ring = control.master_ring().with_vnode(
            VNode(joiner, host.address))
        doomed = [b"key-%04d" % index for index in range(600)
                  if joiner in new_ring.chain_ids_for_key(b"key-%04d" % index)]
        client = cluster.clients[0]
        deleted = doomed[:60]

        def delete(key):
            result = yield from client.delete(key)
            assert result.ok, result.status

        def proc():
            join = sim.process(control.join_vnode(joiner, host.address))
            yield sim.timeout(50.0)
            yield sim.all_of([sim.process(delete(key)) for key in deleted])
            # Every DEL committed under the ring the COPY was planned at.
            assert {node.local_ring.version for node in cluster.jbofs} \
                == {new_ring.version - 1}
            yield join

        drive(sim, proc())
        held = drive(sim, scan_pairs(runtime.store))
        assert not [key for key in deleted if key in held]


class TestRingSharing:
    """Every holder installs the control plane's published snapshot: at
    one ring version every client and JBOF holds the same ``HashRing``,
    whose chains are those of a ring rebuilt from the vnode list the
    update carries on the wire."""

    KEYS = [b"key-%d" % random.Random(7).randrange(10 ** 9)
            for _ in range(1000)]

    def check(self, cluster):
        holders = {}
        for holder in cluster.clients + cluster.jbofs:
            ring = holder.local_ring
            holders.setdefault(ring.version, set()).add(id(ring))
        assert all(len(rings) == 1 for rings in holders.values()), holders
        update = cluster.control_plane.membership_snapshot()
        assert update.ring is cluster.clients[0].local_ring
        assert update.ring.version == update.ring_version
        rebuilt = HashRing([VNode(vnode_id, address)
                            for vnode_id, address in update.vnodes],
                           update.replication, update.ring_version)
        assert [update.ring.chain_for_key(key) for key in self.KEYS] == [
            rebuilt.chain_for_key(key) for key in self.KEYS]

    def test_one_snapshot_per_version(self):
        config = ClusterConfig(
            num_jbofs=3, ssds_per_jbof=2, num_clients=3, replication=2,
            store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                              value_log_bytes=4 << 20),
            options=LeedOptions(heartbeat_period_us=2_000.0),
            heartbeat_timeout_us=15_000.0, seed=3)
        cluster = LeedCluster(config)
        cluster.start()
        sim = cluster.sim
        self.check(cluster)
        load_keys(cluster, 30)
        self.check(cluster)
        runtime = SimpleNamespace(cluster=cluster, sim=sim,
                                  note=lambda kind, **fields: None)
        versions = [cluster.control_plane.ring_version]

        def settle():
            yield sim.timeout(300_000)

        for action, kwargs in (("add_jbof", {}), ("remove_jbof", {"index": 0}),
                               ("crash", {"index": 1}),
                               ("recover", {"index": 1})):
            drive(sim, ACTIONS[action](runtime, **kwargs))
            drive(sim, settle())
            self.check(cluster)
            versions.append(cluster.control_plane.ring_version)
        assert versions == sorted(versions) and len(set(versions)) >= 4
        verify_keys(cluster, 30)
