"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import importlib

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def rng() -> RngRegistry:
    return RngRegistry(1234)


@pytest.fixture
def small_ssd(sim, rng) -> NVMeSSD:
    """A 32 MB, 512 B-sector device for fast functional tests."""
    profile = SSDProfile(capacity_bytes=32 << 20, block_size=512)
    return NVMeSSD(sim, profile, rng=rng, name="test-nvme")


@pytest.fixture
def quiet_ssd(sim, rng) -> NVMeSSD:
    """Like small_ssd but jitter-free, for exact timing assertions."""
    profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                         jitter=0.0)
    return NVMeSSD(sim, profile, rng=rng, name="quiet-nvme")


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result(name)`` is experiment ``name``'s
    ``run("quick")``, run once per session and shared: fig. 13's ~7 s
    run serves both ``test_fig13_gate`` and ``test_paper_claims``.
    Do not modify the result you are given."""
    cache = {}

    def result(name):
        if name not in cache:
            cache[name] = importlib.import_module(
                "repro.bench.experiments." + name).run("quick")
        return cache[name]

    return result


def drive(sim: Simulator, generator, name="test"):
    """Run a generator process to completion; return its value."""
    process = sim.process(generator, name=name)
    return sim.run(until=process)


def scan_pairs(store, predicate=None):
    """Generator: every pair ``store.scan`` visits, as a dict."""
    pairs = {}

    def visit(key, value):
        pairs[key] = value

    yield from store.scan(predicate, visit)
    return pairs


def warm_cluster(sample_every_us: float = 0.0):
    """A started two-node LEED cluster after 25 PUTs, 25 GETs and 1 ms
    of quiet.  Its metrics registry reads the energy gauge the scenario
    runner registers; with ``sample_every_us`` a process takes a
    ``sample_now()`` that often while the cluster warms up."""
    cluster = LeedCluster(ClusterConfig(
        num_jbofs=2, ssds_per_jbof=1, num_clients=1, replication=2,
        store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        seed=15))
    cluster.metrics.register_gauge("energy_joules", cluster.energy_joules)
    cluster.start()
    client = cluster.clients[0]

    if sample_every_us:
        def sampler():
            while True:
                yield cluster.sim.timeout(sample_every_us)
                cluster.metrics.sample_now()

        cluster.sim.process(sampler(), name="test.sampler")

    def warmup():
        for index in range(25):
            result = yield from client.put(b"k%02d" % index, b"v" * 100)
            assert result.ok
        for index in range(25):
            result = yield from client.get(b"k%02d" % index)
            assert result.ok
        yield cluster.sim.timeout(1_000)

    drive(cluster.sim, warmup())
    return cluster
