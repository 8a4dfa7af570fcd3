"""Partition-parallel engine: determinism cross-checks + unit tests.

The headline contract of :mod:`repro.sim.parallel`:

* ``workers=0`` (classic single simulator) and ``workers=1`` (sharded,
  stepped in-process) produce identical figure metrics — completed
  ops, latency statistics, histograms, energy.
* ``workers=1`` and ``workers=N`` (forked) additionally produce
  byte-identical per-shard schedule digests: process count must not
  leak into the event schedule.

The cross-check here runs one fixed-seed YCSB-B workload at each
worker count and compares everything.
"""

import pytest

from repro.bench.harness import (build_cluster, latency_summary,
                                 load_cluster, run_closed_loop)
from repro.core.cluster import LeedCluster
from repro.net.topology import (NIC_100G, NIC_1G_USB, Network,
                                SwitchProfile)
from repro.sim.core import Simulator
from repro.sim.parallel import ParallelEngine, ShardPlan
from repro.workloads.ycsb import YCSBWorkload

SEED = 13
VALUE_SIZE = 256
RECORDS = 120
OPS = 240
CONCURRENCY = 8


def run_fixture(workers):
    """One fixed-seed YCSB-B run; returns (figures, digests, reports)."""
    cluster = build_cluster("leed", scale="quick", value_size=VALUE_SIZE,
                            seed=SEED, num_nodes=3, num_clients=2,
                            workers=workers)
    cluster.enable_schedule_digests()
    workload = YCSBWorkload("B", num_records=RECORDS, seed=SEED,
                            value_size=VALUE_SIZE)
    load_cluster(cluster, workload, parallelism=8)
    stats = run_closed_loop(cluster, workload, OPS, CONCURRENCY)
    cluster.shutdown()
    cluster.sim.run()
    figures = {
        "completed": stats.completed,
        "failed": stats.failed,
        "elapsed_us": round(stats.elapsed_us, 6),
        "mean_us": round(stats.mean_latency_us(), 6),
        "p99_us": round(stats.percentile_us(0.99), 6),
        "energy_j": round(cluster.energy_joules(), 9),
        "latency_rows": latency_summary(cluster, "xcheck"),
    }
    digests = cluster.shard_digests()
    reports = cluster.shard_reports()
    cluster.stop_workers()
    return figures, digests, reports


@pytest.fixture(scope="module")
def runs():
    """The same workload at workers 0 (serial), 1 (sharded), 4 (forked)."""
    return {workers: run_fixture(workers) for workers in (0, 1, 4)}


class TestDeterminismCrossCheck:
    def test_serial_matches_sharded_figures(self, runs):
        """workers=0 and workers=1 agree on every figure metric."""
        assert runs[0][0] == runs[1][0]

    def test_forked_matches_sharded_figures(self, runs):
        """workers=4 agrees with workers=1 on every figure metric."""
        assert runs[4][0] == runs[1][0]

    def test_forked_matches_sharded_schedule_digests(self, runs):
        """Per-shard schedules are byte-identical across worker counts."""
        _, digests_w1, reports_w1 = runs[1]
        _, digests_w4, reports_w4 = runs[4]
        assert set(digests_w1) == {0, 1, 2, 3}
        assert all(digests_w1.values()), "digests were not enabled"
        assert digests_w4 == digests_w1
        for sid in digests_w1:
            assert (reports_w4[sid]["digest_events"]
                    == reports_w1[sid]["digest_events"])
            assert (reports_w4[sid]["events_dispatched"]
                    == reports_w1[sid]["events_dispatched"])

    def test_workload_actually_ran(self, runs):
        figures = runs[0][0]
        assert figures["completed"] == OPS
        assert figures["failed"] == 0
        assert figures["energy_j"] > 0


class TestShardPlan:
    def test_for_cluster_layout(self):
        plan = ShardPlan.for_cluster(
            "cp", ["client0", "client1"], ["jbof0", "jbof1", "jbof2"])
        assert plan.num_shards == 4
        assert plan.shard_of["cp"] == 0
        assert plan.shard_of["client0"] == 0
        assert plan.shard_of["client1"] == 0
        assert plan.shard_of["jbof0"] == 1
        assert plan.shard_of["jbof2"] == 3


class TestNetworkSharding:
    def _sharded_fabric(self):
        sim0, sim1 = Simulator(), Simulator()
        network = Network(sim0)
        network.attach("a", NIC_100G, sim=sim0)
        network.attach("b", NIC_100G, sim=sim1)
        network.configure_shards({"a": 0, "b": 1}, {0: sim0, 1: sim1})
        return network, sim0, sim1

    def test_min_cross_shard_delay(self):
        network, _, _ = self._sharded_fabric()
        expected = (1.0 / NIC_100G.bandwidth_bpus
                    + NIC_100G.base_latency_us
                    + SwitchProfile().hop_latency_us
                    + 1.0 / NIC_100G.bandwidth_bpus)
        assert network.min_cross_shard_delay_us() == pytest.approx(expected)

    def test_min_delay_infinite_without_cross_shard_pairs(self):
        sim = Simulator()
        network = Network(sim)
        network.attach("a", NIC_100G, sim=sim)
        network.attach("b", NIC_100G, sim=sim)
        assert network.min_cross_shard_delay_us() == float("inf")

    def test_cross_shard_transmit_lands_on_boundary(self):
        network, sim0, _ = self._sharded_fabric()
        network.transmit("a", "b", 64, "payload")
        records = network.take_boundary()
        assert len(records) == 1
        deliver_at, dst, src, _seq, _wire, _payload = records[0]
        assert (dst, src) == ("b", "a")
        assert deliver_at >= sim0.now + network.min_cross_shard_delay_us()
        assert network.take_boundary() == []

    def test_same_shard_transmit_bypasses_boundary(self):
        network, sim0, _ = self._sharded_fabric()
        network.attach("c", NIC_100G, sim=sim0)
        network.transmit("a", "c", 64, "payload")
        assert network.boundary == []
        # The delivery went to shard 0's pump: a drain event is queued.
        assert sim0.peek() < float("inf")

    def test_inject_refuses_past_delivery(self):
        network, _, sim1 = self._sharded_fabric()
        sim1.sync_now(10.0)
        with pytest.raises(ValueError):
            network.inject((5.0, "b", "a", 1, 64, "late"))


class TestLookaheadMatrix:
    """Per-pair lookahead: exact values, separable parts, caching."""

    def _fabric(self):
        sims = {0: Simulator(), 1: Simulator(), 2: Simulator()}
        network = Network(sims[0])
        network.attach("cp", NIC_100G, sim=sims[0])
        network.attach("slow", NIC_1G_USB, sim=sims[1])
        network.attach("fast", NIC_100G, sim=sims[2])
        network.configure_shards({"cp": 0, "slow": 1, "fast": 2}, sims)
        return network, sims

    @staticmethod
    def _tx(profile):
        return 1.0 / profile.bandwidth_bpus + profile.base_latency_us

    @staticmethod
    def _rx(profile):
        return 1.0 / profile.bandwidth_bpus

    def test_asymmetric_pairs_exact(self):
        network, _ = self._fabric()
        hop = SwitchProfile().hop_latency_us
        matrix = network.cross_shard_lookahead()
        assert set(matrix) == {(s, d) for s in (0, 1, 2)
                               for d in (0, 1, 2) if s != d}
        assert matrix[(0, 1)] == pytest.approx(
            self._tx(NIC_100G) + hop + self._rx(NIC_1G_USB))
        assert matrix[(1, 2)] == pytest.approx(
            self._tx(NIC_1G_USB) + hop + self._rx(NIC_100G))
        assert matrix[(0, 2)] == pytest.approx(
            self._tx(NIC_100G) + hop + self._rx(NIC_100G))
        # Direction matters: leaving the USB-NIC shard pays its big
        # base latency, entering it only pays its serialization.
        assert matrix[(1, 0)] > matrix[(0, 1)]
        assert network.min_cross_shard_delay_us() == min(matrix.values())

    def test_parts_compose_to_matrix(self):
        network, _ = self._fabric()
        tx, rx = network.cross_shard_lookahead_parts()
        matrix = network.cross_shard_lookahead()
        for (src, dst), value in matrix.items():
            assert tx[src] + rx[dst] == value

    def test_cached_until_topology_changes(self):
        network, sims = self._fabric()
        first = network.cross_shard_lookahead()
        assert network.cross_shard_lookahead() is first
        version = network.topology_version
        network.attach("joiner", NIC_100G, sim=sims[1])
        assert network.topology_version > version
        assert network.cross_shard_lookahead() is not first

    def test_post_join_recompute_tightens_pairs(self):
        network, sims = self._fabric()
        before = dict(network.cross_shard_lookahead())
        hop = SwitchProfile().hop_latency_us
        network.attach("joiner", NIC_100G, sim=sims[1])
        network.configure_shards(
            {"cp": 0, "slow": 1, "fast": 2, "joiner": 1}, sims)
        after = network.cross_shard_lookahead()
        assert after[(1, 0)] < before[(1, 0)]
        assert after[(1, 0)] == pytest.approx(
            self._tx(NIC_100G) + hop + self._rx(NIC_100G))


class TestBarrierElision:
    """Idle shards skip windows (and pipe round-trips) entirely."""

    def _engine(self, workers):
        sims = {0: Simulator(), 1: Simulator(), 2: Simulator()}
        network = Network(sims[0])
        for sid, name in ((0, "a"), (1, "b"), (2, "c")):
            network.attach(name, NIC_100G, sim=sims[sid])
        network.configure_shards({"a": 0, "b": 1, "c": 2}, sims)
        fired = []
        # One early cross-shard message, then a long stretch where
        # only shard 0 has (widely spaced) local events: shards 1-2
        # must be elided from those windows, not barriered.
        sims[0].schedule(0.5, lambda: network.transmit("a", "b", 64, "x"))
        for when in (1000.0, 2000.0, 3000.0):
            sims[0].schedule(when, lambda when=when: fired.append(when))
        engine = ParallelEngine(network, sims, workers)
        engine.enable_schedule_digests()
        return engine, fired

    def test_quiet_shards_are_elided(self):
        engine, fired = self._engine(workers=1)
        engine.run(until=4000.0)
        assert fired == [1000.0, 2000.0, 3000.0]
        stats = engine.stats
        assert stats.records_exchanged == 1
        assert stats.elided_shard_windows > 0
        assert stats.shard_windows < stats.windows * 3

    def test_elision_preserves_schedule_digests(self):
        """workers=1 and workers=2 agree through elided windows, and
        the forked engine actually skipped worker round-trips."""
        engine1, _ = self._engine(workers=1)
        engine1.run(until=4000.0)
        reports1 = engine1.collect()
        engine2, _ = self._engine(workers=2)
        engine2.run(until=4000.0)
        reports2 = engine2.collect()
        assert engine2.stats.elided_child_messages > 0
        assert engine2.stats.child_messages > 0
        for sid in (0, 1, 2):
            assert (reports2[sid]["schedule_digest"]
                    == reports1[sid]["schedule_digest"])
            assert (reports2[sid]["events_dispatched"]
                    == reports1[sid]["events_dispatched"])
        engine1.stop_workers()
        engine2.stop_workers()


class TestXlargeSmokeGeometry:
    """The 16-JBOF / 64-client tier keeps the determinism contract."""

    @pytest.fixture(scope="class")
    def rows(self):
        from repro.bench import perf
        spec = perf.SCALES["xlarge-smoke"]
        return {workers: perf.run_once("B", spec, None, workers=workers)
                for workers in (0, 1, 4)}

    def test_figure_digest_identity(self, rows):
        assert (rows[0]["figure_digest"] == rows[1]["figure_digest"]
                == rows[4]["figure_digest"])
        assert rows[0]["ops"] > 0
        assert rows[0]["failed"] == 0

    def test_shard_schedule_identity(self, rows):
        assert rows[1]["shard_digests"] == rows[4]["shard_digests"]
        assert len(rows[1]["shard_digests"]) == 17

    def test_exchange_counters_recorded(self, rows):
        assert "exchange" not in rows[0]
        exchange = rows[4]["exchange"]
        assert exchange["windows"] > 0
        assert exchange["elided_shard_windows"] > 0
        assert exchange["child_messages"] > 0
        assert exchange["records_exchanged"] > 0


class TestRunWindow:
    def test_window_end_exclusive_by_default(self):
        sim = Simulator()
        fired = []
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, lambda when=when: fired.append(when))
        sim.run_window(2.0)
        assert fired == [1.0]
        sim.run_window(2.0, inclusive=True)
        assert fired == [1.0, 2.0]
        assert sim.peek() == 3.0

    def test_clock_stays_at_last_dispatched_event(self):
        sim = Simulator()
        sim.schedule(1.5, lambda: None)
        sim.run_window(4.0)
        assert sim.now == 1.5

    def test_sync_now_never_rewinds(self):
        sim = Simulator()
        sim.sync_now(7.0)
        assert sim.now == 7.0
        sim.sync_now(3.0)
        assert sim.now == 7.0


class TestParallelClusterGuards:
    def test_tracing_requires_single_process(self):
        with pytest.raises(ValueError):
            LeedCluster(num_jbofs=2, num_clients=1, workers=2,
                        trace_sample_interval=1)

    def test_metrics_sampler_requires_single_process(self):
        with pytest.raises(ValueError):
            LeedCluster(num_jbofs=2, num_clients=1, workers=2,
                        metrics_interval_us=100.0)

    def test_run_until_past_deadline_raises(self):
        cluster = LeedCluster(num_jbofs=2, num_clients=1, workers=1)
        cluster.start()
        cluster.sim.run(until=50.0)
        with pytest.raises(ValueError):
            cluster.sim.run(until=10.0)
        cluster.shutdown()
        cluster.sim.run()
        cluster.stop_workers()

    def test_digests_must_be_enabled_before_fork(self):
        cluster = LeedCluster(num_jbofs=2, num_clients=1, workers=2)
        cluster.start()
        cluster.sim.run(until=200.0)  # first run forks the workers
        assert cluster.engine.forked
        with pytest.raises(RuntimeError):
            cluster.enable_schedule_digests()
        cluster.shutdown()
        cluster.sim.run()
        cluster.stop_workers()

    def test_elasticity_allowed_sharded_in_process(self):
        """add_jbof works at workers=1: everything still lives in this
        process, and the NIC attach bumps the topology version so the
        engine refreshes its lookahead matrix."""
        cluster = LeedCluster(num_jbofs=2, num_clients=1, workers=1)
        cluster.start()
        cluster.sim.run(until=200.0)
        version_before = cluster.network.topology_version
        before = len(cluster.jbofs)
        done = cluster.sim.process(cluster.add_jbof(), name="test.add")
        cluster.sim.run(until=done)
        assert len(cluster.jbofs) == before + 1
        # The join attached a NIC (version bump) and the engine's
        # cached matrix caught up with it during the run.
        assert cluster.network.topology_version > version_before
        assert (cluster.engine._matrix_version
                == cluster.network.topology_version)
        cluster.shutdown()
        cluster.sim.run()
        cluster.stop_workers()

    def test_elasticity_refused_with_forked_workers(self):
        cluster = LeedCluster(num_jbofs=2, num_clients=1, workers=2)
        cluster.start()
        cluster.sim.run(until=200.0)
        with pytest.raises(ValueError, match="workers"):
            next(cluster.add_jbof())
        with pytest.raises(ValueError, match="workers"):
            next(cluster.remove_jbof(0))
        cluster.shutdown()
        cluster.sim.run()
        cluster.stop_workers()
