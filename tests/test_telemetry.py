"""Tests for the telemetry counters and report."""

import re
from dataclasses import fields

import pytest

from repro.baselines import make_cluster
from repro.baselines.fawn.datastore import FawnConfig
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.telemetry import KINDS, components, counters, delta, render

from conftest import drive, warm_cluster

LEED_KINDS = set(KINDS)


@pytest.fixture
def busy_cluster():
    return warm_cluster()


@pytest.fixture
def fawn_cluster():
    cluster = make_cluster("fawn", num_nodes=3, num_clients=1,
                           ssds_per_node=1,
                           store_config=FawnConfig(log_bytes=4 << 20),
                           seed=7)
    cluster.start()
    client = cluster.clients[0]

    def warmup():
        for index in range(10):
            result = yield from client.put(b"k%d" % index, b"v")
            assert result.ok

    drive(cluster.sim, warmup())
    return cluster


def report_values(text, pattern):
    """Every match of ``pattern``'s one group in a report, as floats."""
    return [float(value) for value in re.findall(pattern, text)]


class TestSnapshot:
    def test_structure(self, busy_cluster):
        names = list(counters(busy_cluster))
        assert names == sorted(names)
        assert {name.split(".")[0] for name in names} == LEED_KINDS
        kinds = [kind for kind, _ in components(busy_cluster)]
        assert kinds.count("jbof") == 2
        assert kinds.count("client") == 1
        text = render(busy_cluster)
        assert text.startswith("cluster @ t=")
        assert report_values(text, r"t=([\d.]+) ms")[0] > 0

    def test_device_counters_nonzero(self, busy_cluster):
        totals = counters(busy_cluster)
        assert totals["ssd.reads_completed"] > 0
        assert totals["ssd.writes_completed"] > 0
        busy = report_values(render(busy_cluster), r"busy\s+([\d.]+)%")
        assert len(busy) == 2
        assert all(0 <= value <= 100 for value in busy)

    def test_vnode_counters(self, busy_cluster):
        totals = counters(busy_cluster)
        assert totals["engine.completed"] > 0
        assert totals["vnode.writes_committed"] >= 25
        text = render(busy_cluster)
        assert sum(report_values(text, r"live\s+(\d+)")) >= 25  # replicated
        vnode_lines = [line for line in text.splitlines() if " live " in line]
        assert vnode_lines
        assert all("RUNNING" in line for line in vnode_lines)
        dirty = report_values(text, r"dirty (\d+)")
        assert dirty and not any(dirty)  # acks drained

    def test_client_counters(self, busy_cluster):
        totals = counters(busy_cluster)
        assert totals["client.operations"] == 50
        assert totals["client.ok"] == 50
        assert not any(name.startswith("client.failed_by_status.")
                       for name in totals)
        (mean, p99), = re.findall(r"lat ([\d.]+) us p50 [\d.]+ p99 ([\d.]+)",
                                  render(busy_cluster))
        assert float(mean) > 0
        assert float(p99) >= float(mean) * 0.5

    def test_render_contains_everything(self, busy_cluster):
        text = render(busy_cluster)
        assert "jbof0" in text
        assert "jbof1" in text
        assert "client0" in text
        assert "ring v1" in text
        assert "ops" in text

    def test_render_marks_dead_nodes(self, busy_cluster):
        busy_cluster.jbofs[1].crash()
        text = render(busy_cluster)
        assert "DOWN" in text


class TestCounters:
    def test_every_stats_field_is_named(self, busy_cluster, fawn_cluster):
        """Each visited ``*Stats`` field appears as ``<kind>.<field>``
        (a dict field as one name per key); FAWN's compactor is its
        store, so it has no ``compaction`` kind."""
        for cluster, kinds in ((busy_cluster, LEED_KINDS),
                               (fawn_cluster, LEED_KINDS - {"compaction"})):
            totals = counters(cluster)
            assert {name.split(".")[0] for name in totals} == kinds
            for kind, component in components(cluster):
                if kind == "jbof":
                    continue
                for spec in fields(component.stats):
                    value = getattr(component.stats, spec.name)
                    if isinstance(value, (int, float)):
                        assert "%s.%s" % (kind, spec.name) in totals
                    elif isinstance(value, dict):
                        for key in value:
                            assert ("%s.%s.%s" % (kind, spec.name, key)
                                    in totals)
            assert "jbof.swap_redirects" in totals
            assert totals["jbof.requests_completed"] > 0
            assert all(totals["jbof.energy_j." + part] > 0
                       for part in ("idle", "cpu", "ssd"))

    def test_each_stats_object_is_visited_once(self, busy_cluster,
                                               fawn_cluster):
        for cluster in (busy_cluster, fawn_cluster):
            seen = [id(component.stats) if kind != "jbof" else id(component)
                    for kind, component in components(cluster)]
            assert len(seen) == len(set(seen))

    def test_sums_over_components(self, busy_cluster):
        totals = counters(busy_cluster)
        assert totals["vnode.reads_served"] == sum(
            runtime.stats.reads_served for node in busy_cluster.jbofs
            for runtime in node.vnodes.values())
        assert totals["engine.peak_waiting"] == max(
            runtime.engine.stats.peak_waiting for node in busy_cluster.jbofs
            for runtime in node.vnodes.values())

    def test_reading_is_pure(self, busy_cluster):
        sim = busy_cluster.sim
        before = (sim.events_dispatched, sim.pending_events)
        energy = busy_cluster.energy_joules()
        first = counters(busy_cluster)
        render(busy_cluster)
        assert counters(busy_cluster) == first
        assert busy_cluster.energy_joules() == energy
        assert (sim.events_dispatched, sim.pending_events) == before

    def test_delta_keeps_peaks_as_levels(self):
        before = {"engine.completed": 5, "engine.peak_waiting": 3}
        after = {"engine.completed": 9, "engine.peak_waiting": 4,
                 "client.failed_by_status.store_full": 2}
        assert delta(before, after) == {
            "engine.completed": 4, "engine.peak_waiting": 4,
            "client.failed_by_status.store_full": 2}


class TestCumulative:
    def test_retired_runtimes_stay_counted(self):
        """A power restore rebuilds a node's runtimes and a scale-in
        retires them; neither takes their work out of the counters, and
        the report shows only the runtimes a node still hosts."""
        cluster = LeedCluster(ClusterConfig(
            num_jbofs=3, ssds_per_jbof=1, num_clients=1, replication=2,
            store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                              value_log_bytes=4 << 20),
            seed=15))
        cluster.start()
        sim, client = cluster.sim, cluster.clients[0]

        def load():
            for index in range(30):
                result = yield from client.put(b"k%02d" % index, b"v" * 100)
                assert result.ok

        drive(sim, load())
        before = counters(cluster)
        cluster.power_fail_jbof(0)
        drive(sim, cluster.power_restore_jbof(0))
        drive(sim, cluster.remove_jbof(2))
        sim.run(until=sim.now + 10_000)
        after = counters(cluster)
        assert cluster.jbofs[0].retired_vnodes
        assert cluster.jbofs[2].retired_vnodes
        assert not cluster.jbofs[2].vnodes
        for name, value in before.items():
            assert after[name] >= value, name
        assert after["store.puts"] > 0
        assert after["vnode.copies_out"] > before["vnode.copies_out"]
        hosted = sum(len(node.vnodes) for node in cluster.jbofs)
        assert len([line for line in render(cluster).splitlines()
                    if " live " in line]) == hosted
