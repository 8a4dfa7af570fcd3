"""Consistency stress tests for CRRS under concurrency (§3.7).

The paper's claim: CRRS does not violate the (per-key strong)
consistency model of chain replication because all read/write
interleavings on a dirty key are serialized by the tail.  These tests
drive concurrent writers and readers and check the observable
guarantees:

* **monotonic committed versions** — once a client has seen version
  N of a key, no later read returns a version < N *that was committed
  before N* (we check the stronger, simpler invariant: version
  numbers never regress for a reader once writes are acknowledged);
* **no phantom values** — a read only ever returns a value that some
  writer actually wrote.
"""

import random

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.protocol import ReadPolicy

from conftest import drive


def make_cluster(seed=11, crrs=True):
    config = ClusterConfig(
        num_jbofs=3, ssds_per_jbof=2, num_clients=2, replication=3,
        store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        read_policy=ReadPolicy.CRRS if crrs else ReadPolicy.TAIL, seed=seed)
    cluster = LeedCluster(config)
    cluster.start()
    return cluster


class TestCrrsConsistency:
    @pytest.mark.parametrize("crrs", [True, False])
    def test_no_phantom_values(self, crrs):
        cluster = make_cluster(crrs=crrs)
        sim = cluster.sim
        writer_client = cluster.clients[0]
        reader_client = cluster.clients[1]
        written = set()
        observed = []

        def writer():
            for version in range(60):
                value = b"v%04d" % version
                written.add(value)
                result = yield from writer_client.put(b"contended", value)
                assert result.ok

        def reader():
            for _ in range(60):
                result = yield from reader_client.get(b"contended")
                if result.ok:
                    observed.append(result.value)
                yield sim.timeout(50)

        procs = [sim.process(writer()), sim.process(reader())]
        sim.run(until=sim.all_of(procs))
        assert observed, "reader never saw a value"
        for value in observed:
            assert value in written

    def test_acknowledged_writes_monotonic_for_single_client(self):
        """A single client alternating put/get must see its own writes
        in order — never an older acknowledged version."""
        cluster = make_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            last_seen = -1
            for version in range(50):
                result = yield from client.put(b"mono", b"%06d" % version)
                assert result.ok
                got = yield from client.get(b"mono")
                assert got.ok
                seen = int(got.value)
                assert seen >= last_seen, (seen, last_seen)
                assert seen >= version  # read-your-own-write
                last_seen = seen

        drive(sim, proc())

    def test_concurrent_readers_during_write_burst(self):
        """Readers racing a write burst see only fresh-enough data:
        each observed version is >= the last version whose ack the
        writer received before the read began."""
        cluster = make_cluster()
        sim = cluster.sim
        writer_client = cluster.clients[0]
        reader_client = cluster.clients[1]
        acked = [-1]
        violations = []

        def writer():
            for version in range(40):
                result = yield from writer_client.put(b"burst",
                                                      b"%06d" % version)
                assert result.ok
                acked[0] = version

        def reader():
            for _ in range(80):
                floor = acked[0]
                result = yield from reader_client.get(b"burst")
                if result.ok:
                    seen = int(result.value)
                    if seen < floor:
                        violations.append((seen, floor))
                yield sim.timeout(20)

        procs = [sim.process(writer()), sim.process(reader())]
        sim.run(until=sim.all_of(procs))
        assert not violations, violations[:5]

    def test_interleaved_keys_do_not_cross_talk(self):
        cluster = make_cluster()
        sim = cluster.sim

        def worker(client, namespace, rounds):
            for round_index in range(rounds):
                key = b"%s-%d" % (namespace, round_index % 7)
                value = b"%s=%d" % (namespace, round_index)
                result = yield from client.put(key, value)
                assert result.ok
                got = yield from client.get(key)
                assert got.ok
                assert got.value.startswith(namespace + b"=")

        procs = [
            sim.process(worker(cluster.clients[0], b"alpha", 40)),
            sim.process(worker(cluster.clients[1], b"beta", 40)),
        ]
        sim.run(until=sim.all_of(procs))

    def test_dirty_residue_bounded_under_churn(self):
        """Dirty bits are transient: after the burst drains, every
        replica's dirty map is empty again."""
        cluster = make_cluster()
        sim = cluster.sim

        def burst(client, seed):
            rng = random.Random(seed)
            for _ in range(80):
                key = b"hot-%d" % rng.randrange(5)
                result = yield from client.put(key, b"x" * 64)
                assert result.ok

        procs = [sim.process(burst(cluster.clients[0], 1)),
                 sim.process(burst(cluster.clients[1], 2))]
        sim.run(until=sim.all_of(procs))

        def settle():
            yield sim.timeout(5_000)

        drive(sim, settle())
        residue = sum(len(rt.dirty) for node in cluster.jbofs
                      for rt in node.vnodes.values())
        assert residue == 0
