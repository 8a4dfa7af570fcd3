"""Tests for the power model, energy reports, and the analysis module."""

import pytest

from repro.core.analysis import (
    balls_into_bins_max_load,
    capacity_table,
    fawn_usable_fraction,
    kvell_usable_fraction,
    leed_dram_per_object,
    leed_usable_fraction,
    table1_rows,
)
from repro.core.jbof import JBOFNode
from repro.hw.platforms import STINGRAY
from repro.net.topology import Network
from repro.power.meter import EnergyReport
from repro.telemetry import counters

from conftest import drive, warm_cluster

SECOND_US = 1_000_000.0


@pytest.fixture
def node(sim):
    """A STINGRAY node one second after it was built."""
    node = JBOFNode(sim, Network(sim), "jbof0")
    sim.run(until=SECOND_US)
    return node


class TestPowerMeter:
    """A node's Joules are the exact integral of the platform's linear
    idle->max model over its busy-time counters."""

    def test_idle_energy(self, node):
        assert node.energy_j == pytest.approx(
            {"cpu": 0.0, "idle": STINGRAY.idle_power_w, "ssd": 0.0},
            rel=1e-12)

    def test_active_energy_higher(self, node):
        """Every core and every SSD channel busy all second: max power."""
        for core in node.cpu.cores:
            core.busy_time_us = SECOND_US
        for ssd in node.ssds:
            ssd.stats.busy_time_us = SECOND_US * ssd.profile.channels
        assert sum(node.energy_j.values()) == pytest.approx(
            STINGRAY.max_power_w, rel=1e-12)

    def test_mean_power(self, node):
        """Half the cores busy, the SSDs idle: a quarter of the way from
        idle to max power."""
        for core in node.cpu.cores[::2]:
            core.busy_time_us = SECOND_US
        assert sum(node.energy_j.values()) == pytest.approx(
            STINGRAY.active_power_w(0.25), rel=1e-12)

    def test_cluster_energy_sums(self):
        cluster = warm_cluster()
        totals = counters(cluster)
        idle, cpu, ssd = (totals["jbof.energy_j." + part]
                          for part in ("idle", "cpu", "ssd"))
        assert cpu > 0 and ssd > 0
        assert idle + cpu + ssd == cluster.energy_joules()

    def test_sampling_does_not_move_energy(self):
        """A run whose energy gauge is read by a ``sample_now()`` every
        100 µs draws exactly the Joules of an unsampled one."""
        sampled = warm_cluster(sample_every_us=100.0)
        assert len(sampled.metrics.records) >= 10
        assert sampled.energy_joules() == warm_cluster().energy_joules()

    def test_added_node_bills_from_its_build(self):
        cluster = warm_cluster()
        added_at = cluster.sim.now
        node = drive(cluster.sim, cluster.add_jbof())
        assert node.built_at == added_at < cluster.sim.now
        assert node.energy_j["idle"] == pytest.approx(
            STINGRAY.idle_power_w * (cluster.sim.now - added_at) * 1e-6,
            rel=1e-12)


class TestEnergyReport:
    def test_queries_per_joule(self):
        report = EnergyReport(requests_completed=1000, elapsed_us=1e6,
                              energy_joules=50.0, label="x")
        assert report.throughput_qps == pytest.approx(1000.0)
        assert report.queries_per_joule == pytest.approx(20.0)
        assert report.mean_power_w == pytest.approx(50.0)
        assert "x" in str(report)

    def test_zero_guards(self):
        report = EnergyReport(0, 0.0, 0.0)
        assert report.throughput_qps == 0.0
        assert report.queries_per_joule == 0.0


class TestBallsIntoBins:
    def test_fewer_bins_higher_max_load(self):
        assert (balls_into_bins_max_load(1e6, 3)
                > balls_into_bins_max_load(1e6, 100))

    def test_exceeds_mean(self):
        for bins in (3, 10, 100):
            assert balls_into_bins_max_load(1e6, bins) > 1e6 / bins

    def test_single_bin(self):
        assert balls_into_bins_max_load(500, 1) == 500


class TestTable1:
    def test_three_rows(self):
        rows = table1_rows()
        assert len(rows) == 3
        names = [row.platform for row in rows]
        assert "stingray-ps1100r" in names

    def test_smartnic_most_skewed(self):
        rows = {row.platform: row for row in table1_rows()}
        stingray = rows["stingray-ps1100r"]
        assert stingray.storage_skew_ratio == max(
            row.storage_skew_ratio for row in rows.values())


class TestCapacityTable:
    """The Table 3 'Max. Capacity' shape: LEED >> FAWN >> KVell."""

    def test_ordering(self):
        table = capacity_table()
        for size in (256, 1024):
            assert (table["LEED"][size] > table["FAWN-JBOF"][size]
                    > table["KVell-JBOF"][size])

    def test_leed_exposes_most_flash(self):
        table = capacity_table()
        assert table["LEED"][1024] > 0.90
        assert table["LEED"][256] > 0.75

    def test_kvell_under_five_percent(self):
        table = capacity_table()
        assert table["KVell-JBOF"][256] < 0.05

    def test_fawn_small_objects_worst(self):
        assert fawn_usable_fraction(STINGRAY, 256) < \
            fawn_usable_fraction(STINGRAY, 1024)

    def test_larger_objects_raise_all_fractions(self):
        for fn in (fawn_usable_fraction, kvell_usable_fraction,
                   leed_usable_fraction):
            assert fn(STINGRAY, 1024) >= fn(STINGRAY, 256)

    def test_leed_dram_per_object_below_half_byte(self):
        """The design requirement of §2.3 / C1."""
        assert leed_dram_per_object() < 0.5
