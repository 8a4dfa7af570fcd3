"""End-to-end integration tests for the full LEED cluster."""

import random
from dataclasses import fields

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.compaction import CompactionConfig
from repro.core.datastore import StoreConfig
from repro.core.jbof import LeedOptions
from repro.core.protocol import ReadPolicy
from repro.baselines import make_cluster
from repro.baselines.fawn.datastore import FawnConfig
from repro.baselines.kvell.datastore import KVellConfig
from repro.sim.core import Simulator

from conftest import drive


def leed_cluster(**overrides):
    defaults = dict(
        num_jbofs=3, ssds_per_jbof=2, num_clients=2, replication=3,
        store=StoreConfig(num_segments=64, key_log_bytes=2 << 20,
                          value_log_bytes=8 << 20),
        seed=1)
    defaults.update(overrides)
    cluster = LeedCluster(ClusterConfig(**defaults))
    cluster.start()
    return cluster


class TestLinearizableHistory:
    def test_single_client_sequential_semantics(self):
        cluster = leed_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        rng = random.Random(7)

        def proc():
            shadow = {}
            for step in range(250):
                key = b"k%02d" % rng.randrange(40)
                roll = rng.random()
                if roll < 0.45:
                    value = b"v%04d" % step
                    result = yield from client.put(key, value)
                    assert result.ok, result.status
                    shadow[key] = value
                elif roll < 0.85:
                    result = yield from client.get(key)
                    if key in shadow:
                        assert result.ok, result.status
                        assert result.value == shadow[key]
                    else:
                        assert result.status == "not_found"
                else:
                    result = yield from client.delete(key)
                    if key in shadow:
                        assert result.ok
                        del shadow[key]
                    else:
                        assert result.status == "not_found"

        drive(sim, proc())

    def test_read_your_writes_across_replicas(self):
        """CRRS invariant: after an acked write, every subsequent read
        (whichever replica serves it) returns the new value."""
        cluster = leed_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for version in range(30):
                value = b"version-%03d" % version
                result = yield from client.put(b"the-key", value)
                assert result.ok
                for _ in range(3):
                    got = yield from client.get(b"the-key")
                    assert got.ok
                    assert got.value == value, (version, got.value)

        drive(sim, proc())

    def test_two_clients_interleaved(self):
        cluster = leed_cluster()
        sim = cluster.sim

        # Fixed seeds rather than hash(namespace): str/bytes hashes are
        # randomized per process, which made this test nondeterministic.
        # This seed pair once exposed a lost-update race between
        # concurrent flushes of a shared value-log tail block, so it
        # doubles as a regression test for CircularLog flush ordering.
        seeds = {b"left": 261, b"right": 117}

        def workload(client, namespace):
            shadow = {}
            rng = random.Random(seeds[namespace])
            for step in range(150):
                key = b"%s-%02d" % (namespace, rng.randrange(25))
                if rng.random() < 0.5:
                    value = b"%s-v%d" % (namespace, step)
                    result = yield from client.put(key, value)
                    assert result.ok
                    shadow[key] = value
                else:
                    result = yield from client.get(key)
                    if key in shadow:
                        assert result.ok and result.value == shadow[key]
            return len(shadow)

        procs = [sim.process(workload(cluster.clients[0], b"left")),
                 sim.process(workload(cluster.clients[1], b"right"))]
        sim.run(until=sim.all_of(procs))


class TestEnergyAccounting:
    def test_energy_report_sane(self):
        cluster = leed_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for index in range(50):
                yield from client.put(b"k%02d" % index, b"v" * 100)

        drive(sim, proc())
        report = cluster.energy_report("integration")
        assert report.energy_joules > 0
        assert report.requests_completed == 50
        # 3 Stingrays draw between 3x idle and 3x max.
        assert 3 * 40 < report.mean_power_w < 3 * 60


class TestBaselineClusters:
    @pytest.mark.parametrize("system,store_config", [
        ("fawn", FawnConfig(log_bytes=4 << 20)),
        ("kvell", KVellConfig(slab_bytes=4 << 20, slot_bytes=512)),
    ])
    def test_baseline_cluster_serves_workload(self, system, store_config):
        cluster = make_cluster(system, num_nodes=3, num_clients=1,
                               ssds_per_node=1, store_config=store_config,
                               seed=2)
        cluster.start()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            shadow = {}
            rng = random.Random(3)
            for step in range(100):
                key = b"k%02d" % rng.randrange(20)
                if rng.random() < 0.5:
                    value = b"v%d" % step
                    result = yield from client.put(key, value)
                    assert result.ok, result.status
                    shadow[key] = value
                else:
                    result = yield from client.get(key)
                    if key in shadow:
                        assert result.ok and result.value == shadow[key]

        drive(sim, proc())

    def test_leed_energy_efficiency_beats_fawn(self):
        """The headline: requests/Joule, LEED over Pi-FAWN (Fig. 5).

        Read-heavy, like YCSB-B: random reads are where the Pi's SD
        card (0.7 ms random read) and 1 GbE USB NIC fall furthest
        behind the NVMe JBOF.  (Write-only is FAWN's best case — its
        appends are sequential — and even the paper's Fig. 5 WR bars
        nearly tie.)"""
        results = {}
        for system, store_config in (
                ("leed", StoreConfig(num_segments=64,
                                     key_log_bytes=2 << 20,
                                     value_log_bytes=8 << 20)),
                ("fawn", FawnConfig(log_bytes=4 << 20))):
            cluster = make_cluster(system,
                                   num_nodes=3 if system == "leed" else 10,
                                   num_clients=1,
                                   ssds_per_node=2 if system == "leed" else 1,
                                   store_config=store_config, seed=4)
            cluster.start()
            sim = cluster.sim
            client = cluster.clients[0]
            loads = 30
            reads = 240 if system == "leed" else 60
            workers = 12

            def loader():
                for index in range(loads):
                    result = yield from client.put(b"k%03d" % index,
                                                   b"v" * 200)
                    assert result.ok

            sim.run(until=sim.process(loader()))
            energy_before = cluster.energy_joules()
            done_before = cluster.total_completed_requests()

            def reader(count, seed):
                rng = random.Random(seed)
                for _ in range(count):
                    result = yield from client.get(
                        b"k%03d" % rng.randrange(loads))
                    assert result.ok

            procs = [sim.process(reader(reads // workers, w))
                     for w in range(workers)]
            sim.run(until=sim.all_of(procs))
            completed = cluster.total_completed_requests() - done_before
            energy = cluster.energy_joules() - energy_before
            results[system] = completed / energy
        # Modest concurrency already separates the platforms; the full
        # 17.5x/19.1x gap is measured by the Fig. 5 benchmark at
        # saturating load.
        assert results["leed"] > 2 * results["fawn"]


class TestFeatureToggles:
    def test_cluster_without_features_still_correct(self):
        options = LeedOptions(enable_swap=False)
        cluster = leed_cluster(options=options,
                               read_policy=ReadPolicy.TAIL,
                               flow_control=False)
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for index in range(40):
                result = yield from client.put(b"k%02d" % index,
                                               b"val%02d" % index)
                assert result.ok
            for index in range(40):
                result = yield from client.get(b"k%02d" % index)
                assert result.ok and result.value == b"val%02d" % index

        drive(sim, proc())


class TestFrozenBenchmarkContract:
    """What ``leedbench/`` (frozen) still asks of a one-engine cluster:
    it builds with ``workers=0``, calls the three engine accessors on
    every repeat, and reports a failing ``workers=1`` build as
    "not measured"."""

    def test_only_workers_zero_exists(self):
        with pytest.raises(ValueError, match="PR 18"):
            ClusterConfig(workers=1)
        with pytest.raises(ValueError, match="workers=2"):
            make_cluster("leed", num_nodes=3, ssds_per_node=1,
                         num_clients=1, workers=2)

    def test_engine_accessors_keep_their_signatures(self):
        cluster = make_cluster("leed", num_nodes=3, ssds_per_node=1,
                               num_clients=1, workers=0)
        cluster.start()
        assert cluster.exchange_stats() is None
        cluster.shutdown()
        cluster.sim.run()
        assert cluster.sim.events_dispatched > 0
        assert cluster.total_events_dispatched() \
            == cluster.sim.events_dispatched
        cluster.stop_workers()
        cluster.stop_workers()


class TestOneSelectorPerDecision:
    """Each decision has one selector and every option a setter: the
    second doors and the never-set fields are gone, not aliased."""

    @pytest.mark.parametrize("build, spelling", [
        (ClusterConfig, {"crrs": False}),
        (ClusterConfig, {"sanitize": True}),
        (ClusterConfig, {"sanitize_seed": 1}),
        (ClusterConfig, {"metrics_interval_us": 1000.0}),
        (LeedOptions, {"dirty_read_mode": "craq"}),
        (LeedOptions, {"enable_crrs": False}),
        (LeedOptions, {"wal_enabled": False}),
        (StoreConfig, {"max_chain": 1}),
        (CompactionConfig, {"prefetch": False}),
        (Simulator, {"sanitize": True}),
        (Simulator, {"sanitize_seed": 1}),
    ], ids=lambda value: getattr(value, "__name__", None) or next(iter(value)))
    def test_removed_spellings_fail_loudly(self, build, spelling):
        with pytest.raises(TypeError, match=next(iter(spelling))):
            build(**spelling)

    def test_what_the_frozen_benchmark_passes_still_builds(self):
        LeedOptions(fast_datapath=True, admission_batch=8)
        ClusterConfig(workers=0)

    def test_field_counts(self):
        assert [len(fields(config)) for config in (
            ClusterConfig, LeedOptions, StoreConfig, CompactionConfig)
        ] == [17, 7, 5, 1]
