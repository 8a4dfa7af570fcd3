"""Edge-case coverage: telemetry over baselines, wrapped-log recovery,
priority-store blocking, and the open-loop harness."""

import re

import pytest

from repro.baselines import make_cluster
from repro.baselines.fawn.datastore import FawnConfig
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.recovery import recover_store
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry
from repro.telemetry import counters, render

from conftest import drive


class TestTelemetryOverBaselines:
    def test_fawn_cluster_snapshot(self):
        """Telemetry handles FAWN's single-log store shape: the report
        reads the fill of its one ``log`` as the key log, and the store
        doubles as the compactor, so its counters appear once, as
        ``store.*``."""
        cluster = make_cluster("fawn", num_nodes=3, num_clients=1,
                               ssds_per_node=1,
                               store_config=FawnConfig(log_bytes=64 << 10),
                               seed=7)
        cluster.start()
        client = cluster.clients[0]

        def warmup():
            for index in range(10):
                result = yield from client.put(b"k%d" % index, b"v" * 1000)
                assert result.ok

        drive(cluster.sim, warmup())
        text = render(cluster)
        assert "jbof0" in text
        assert any(int(fill) > 0
                   for fill in re.findall(r"klog\s+(\d+)%", text))
        totals = counters(cluster)
        assert totals["store.puts"] >= 10
        assert not any(name.startswith("compaction.") for name in totals)


class TestRecoveryEdgeCases:
    def test_recovery_after_log_wrap(self, sim):
        """Recovery over a key log whose appends have wrapped the
        physical region must not crash, and non-wrapped segments are
        restored (a chain straddling the boundary is skipped — a
        documented limitation)."""
        from repro.core.compaction import Compactor
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(1))
        config = StoreConfig(num_segments=8, key_log_bytes=8 << 10,
                             value_log_bytes=64 << 10,
                             compact_high_watermark=0.6,
                             compact_low_watermark=0.2)
        store = LeedDataStore(sim, ssd, config)
        compactor = Compactor(store)

        def churn():
            round_index = 0
            # Churn until the virtual tail passes the region size:
            # physical wrap has occurred.
            while store.key_log.tail <= config.key_log_bytes:
                for index in range(8):
                    while True:
                        result = yield from store.put(
                            b"k%d" % index, b"round-%03d" % round_index)
                        if result.ok:
                            break
                        # Key log at its reserve: reclaim and retry.
                        yield from compactor.compact(
                            store.key_log, target_fill=0.2)
                round_index += 1
            return round_index - 1

        last_round = drive(sim, churn())
        assert store.key_log.tail > config.key_log_bytes  # wrapped
        reborn = LeedDataStore(sim, ssd, config)

        def recover_and_check():
            report = yield from recover_store(reborn)
            ok = 0
            for index in range(8):
                got = yield from reborn.get(b"k%d" % index)
                if got.ok:
                    assert got.value == b"round-%03d" % last_round
                    ok += 1
            return report, ok

        report, ok = drive(sim, recover_and_check())  # no crash
        assert report.blocks_scanned == config.key_log_bytes // 512
        # Most segments recover; at most a couple straddle the wrap.
        assert ok >= 6


class TestOpenLoopHarness:
    def test_open_loop_respects_duration_and_rate(self, sim):
        from repro.workloads.driver import OpenLoopDriver, drive
        from repro.workloads.history import History
        from repro.workloads.ycsb import YCSBWorkload
        from repro.core.datastore import OpResult

        class InstantClient:
            def get(self, key):
                yield sim.timeout(1.0)
                return OpResult("ok", value=b"x")

            def put(self, key, value):
                yield sim.timeout(1.0)
                return OpResult("ok")

            def delete(self, key):
                yield sim.timeout(1.0)
                return OpResult("ok")

        workload = YCSBWorkload("C", 50, value_size=16, seed=1)
        driver = OpenLoopDriver(sim, InstantClient(), workload,
                                rate_qps=100_000.0, duration_us=20_000.0,
                                seed=2, history=History())
        stats = drive(sim, [driver])
        # ~rate x duration arrivals, measured throughput near offered.
        assert stats.completed == pytest.approx(2000, rel=0.25)
        assert stats.throughput_qps == pytest.approx(100_000.0, rel=0.3)

    def test_open_loop_drops_beyond_inflight_cap(self, sim):
        from repro.workloads.driver import OpenLoopDriver
        from repro.workloads.history import History
        from repro.workloads.ycsb import YCSBWorkload
        from repro.core.datastore import OpResult

        class StuckClient:
            def get(self, key):
                yield sim.timeout(1e9)
                return OpResult("ok")

            put = delete = get

        workload = YCSBWorkload("C", 10, value_size=16, seed=1)
        history = History()
        driver = OpenLoopDriver(sim, StuckClient(), workload,
                                rate_qps=10_000.0, duration_us=5_000.0,
                                max_inflight=4, seed=3, history=history)
        sim.process(driver.run())
        sim.run(until=6_000.0)
        assert history.dropped > 0
        assert driver._inflight <= 4
