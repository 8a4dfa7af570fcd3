"""Tests for the benchmark harness utilities."""

import pytest

from repro.bench.harness import (
    ExperimentResult,
    build_cluster,
    build_single_store,
    drive_store,
    figure_digest,
    load_cluster,
    measure_run_phase,
    preload_store,
    run_closed_loop,
    scale_profile,
)
from repro.baselines import make_cluster
from repro.core.datastore import StoreConfig
from repro.core.protocol import ReadPolicy
from repro.workloads.ycsb import YCSBWorkload


def _assert_config_is_the_cluster(cluster):
    for client in cluster.clients:
        assert client.read_policy is cluster.config.read_policy
        assert client.flow.enabled is cluster.config.flow_control


class TestExperimentResult:
    def test_add_and_column(self):
        result = ExperimentResult("t", ["a", "b"])
        result.add(a=1, b="x")
        result.add(a=2, b="y")
        assert result.column("a") == [1, 2]

    def test_row_for(self):
        result = ExperimentResult("t", ["a", "b"])
        result.add(a=1, b="x")
        result.add(a=2, b="y")
        assert result.row_for(a=2)["b"] == "y"
        assert result.row_for(a=99) is None

    def test_format_renders_table(self):
        result = ExperimentResult("My Table", ["col"])
        result.add(col=3.14159)
        text = result.format()
        assert "My Table" in text
        assert "col" in text
        assert "3.14" in text

    def test_format_empty(self):
        result = ExperimentResult("Empty", ["x"])
        assert "Empty" in result.format()


class TestScaleProfiles:
    def test_quick_smaller_than_full(self):
        quick = scale_profile("quick")
        full = scale_profile("full")
        assert quick.num_records < full.num_records
        assert quick.num_ops < full.num_ops


class TestSingleStoreHarness:
    @pytest.mark.parametrize("system", ["leed", "fawn", "kvell"])
    def test_build_preload_drive(self, system):
        single = build_single_store(system, value_size=128,
                                    capacity_bytes=32 << 20)
        preload_store(single, 50, 128)
        workload = YCSBWorkload("B", 50, value_size=128,
                                distribution="uniform", seed=1)
        stats = drive_store(single, workload, 100, concurrency=4)
        assert stats.completed >= 100
        assert stats.throughput_qps > 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_single_store("rocksdb")

    def test_pi_platform_slower(self):
        fast = build_single_store("fawn", platform="stingray",
                                  block_size=4096)
        slow = build_single_store("fawn", platform="pi", block_size=4096)
        preload_store(fast, 20, 128)
        preload_store(slow, 20, 128)
        workload = YCSBWorkload("C", 20, value_size=128,
                                distribution="uniform", seed=2)
        fast_stats = drive_store(fast, workload, 40, concurrency=1)
        workload2 = YCSBWorkload("C", 20, value_size=128,
                                 distribution="uniform", seed=2)
        slow_stats = drive_store(slow, workload2, 40, concurrency=1)
        assert slow_stats.mean_latency_us() > 3 * fast_stats.mean_latency_us()


class TestClusterHarness:
    def test_build_and_run_leed(self):
        workload = YCSBWorkload("B", 60, value_size=128, seed=3)
        cluster = build_cluster("leed", num_clients=1, seed=3)
        load_cluster(cluster, workload)
        stats = run_closed_loop(cluster, workload, 120, concurrency=8)
        assert stats.completed >= 120
        assert stats.failed == 0

    def test_ablation_toggles_apply(self):
        """Both ablation switches travel through the config: it
        describes the cluster it built (Fig. 7 / Fig. 8 "off")."""
        cluster = build_cluster("leed", flow_control=False,
                                read_policy=ReadPolicy.TAIL)
        assert cluster.config.read_policy is ReadPolicy.TAIL
        assert cluster.config.flow_control is False
        _assert_config_is_the_cluster(cluster)

    @pytest.mark.parametrize("system, read_policy, flow_control", [
        ("leed", ReadPolicy.CRRS, True), ("fawn", ReadPolicy.TAIL, False),
        ("kvell", ReadPolicy.ANY, False)])
    def test_config_is_the_cluster(self, system, read_policy, flow_control):
        cluster = make_cluster(system, num_nodes=3, num_clients=2)
        assert cluster.config.read_policy is read_policy
        assert cluster.config.flow_control is flow_control
        _assert_config_is_the_cluster(cluster)

    def test_per_system_default_is_overridable(self):
        cluster = make_cluster("kvell", num_nodes=3,
                               read_policy=ReadPolicy.TAIL)
        assert cluster.config.read_policy is ReadPolicy.TAIL
        _assert_config_is_the_cluster(cluster)


class TestMeasureRunPhase:
    @staticmethod
    def _row(log_kb, records):
        store = StoreConfig(num_segments=16, key_log_bytes=log_kb * 1024,
                            value_log_bytes=log_kb * 1024)
        cluster = make_cluster("leed", num_nodes=3, ssds_per_node=1,
                               num_clients=1, store_config=store, seed=5)
        workload = YCSBWorkload("WR", num_records=records, seed=5,
                                value_size=256)
        return measure_run_phase(cluster, workload, 300, concurrency=8)

    def test_failed_ops_carry_their_status(self):
        """A log too small for the write stream refuses at the 94 %
        reserve: every failed op must say so, not just be counted."""
        row = self._row(log_kb=64, records=100)
        assert row["failed"] > 0
        assert row["failed_by_status"] == {"store_full": row["failed"]}
        # The reason is a diagnostic: it stays out of the figures.
        assert figure_digest(dict(row, failed_by_status={})) \
            == row["figure_digest"]

    def test_healthy_run_reports_no_failure_reasons(self):
        row = self._row(log_kb=1024, records=60)
        assert row["failed"] == 0
        assert row["failed_by_status"] == {}
