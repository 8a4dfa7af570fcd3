"""Tests for YCSB workloads, Zipf generators, and drivers."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.driver import ClosedLoopDriver, OpenLoopDriver, drive
from repro.workloads.history import History
from repro.workloads.ycsb import WORKLOADS, YCSBWorkload, make_key, make_value
from repro.workloads.zipf import (
    LatestGenerator,
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
)


class TestZipf:
    def test_range(self):
        gen = ZipfianGenerator(100, 0.99)
        for _ in range(1000):
            assert 0 <= gen.next() < 100

    def test_skew_concentrates_mass(self):
        gen = ZipfianGenerator(1000, 0.99)
        counts = collections.Counter(gen.next() for _ in range(20_000))
        top_share = sum(count for _, count in counts.most_common(10)) / 20_000
        assert top_share > 0.25

    def test_low_skew_spreads_mass(self):
        import random
        hot = ZipfianGenerator(1000, 0.99, random.Random(1))
        mild = ZipfianGenerator(1000, 0.10, random.Random(1))
        hot_counts = collections.Counter(hot.next() for _ in range(20_000))
        mild_counts = collections.Counter(mild.next() for _ in range(20_000))
        assert (hot_counts.most_common(1)[0][1]
                > 2 * mild_counts.most_common(1)[0][1])

    def test_deterministic_with_seed(self):
        import random
        a = ZipfianGenerator(500, 0.9, random.Random(7))
        b = ZipfianGenerator(500, 0.9, random.Random(7))
        assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, 0.9)
        with pytest.raises(ValueError):
            ZipfianGenerator(10, 1.0)

    def test_scrambled_spreads_hot_keys(self):
        """The scrambled variant keeps Zipf popularity but moves the
        hot items away from ids 0,1,2..."""
        import random
        gen = ScrambledZipfianGenerator(10_000, 0.99, random.Random(3))
        counts = collections.Counter(gen.next() for _ in range(20_000))
        hottest = counts.most_common(3)
        assert all(item > 100 for item, _count in hottest)

    def test_fnv_hash_stable(self):
        assert fnv1a_64(12345) == fnv1a_64(12345)
        assert fnv1a_64(1) != fnv1a_64(2)

    def test_latest_tracks_inserts(self):
        import random
        gen = LatestGenerator(100, 0.99, random.Random(5))
        assert gen.max_id == 99
        gen.advance()
        assert gen.max_id == 100
        draws = [gen.next() for _ in range(2000)]
        assert all(0 <= d <= 100 for d in draws)
        # Skewed toward the newest records.
        recent_share = sum(1 for d in draws if d > 80) / len(draws)
        assert recent_share > 0.5

    def test_uniform(self):
        import random
        gen = UniformGenerator(50, random.Random(2))
        counts = collections.Counter(gen.next() for _ in range(10_000))
        assert len(counts) == 50
        assert max(counts.values()) < 3 * min(counts.values())


class TestYCSBMixes:
    @pytest.mark.parametrize("name,read_frac", [
        ("A", 0.50), ("B", 0.95), ("C", 1.00), ("F", 0.50), ("WR", 0.0)])
    def test_mix_ratios(self, name, read_frac):
        workload = YCSBWorkload(name, 500, value_size=64, seed=11)
        ops = [workload.next_operation() for _ in range(4000)]
        reads = sum(1 for op in ops if op.op == "get")
        assert reads / len(ops) == pytest.approx(read_frac, abs=0.03)

    def test_workload_d_inserts_extend_keyspace(self):
        workload = YCSBWorkload("D", 100, value_size=32, seed=3)
        inserts = [op for op in workload.operations(1000) if op.is_insert]
        assert inserts
        # Insert keys go beyond the loaded range.
        assert all(int(op.key[4:]) >= 100 for op in inserts)

    def test_f_mix_has_rmw(self):
        workload = YCSBWorkload("F", 100, value_size=32, seed=3)
        ops = list(workload.operations(500))
        assert any(op.op == "rmw" for op in ops)

    def test_value_sizes_exact(self):
        for size in (64, 256, 1024):
            workload = YCSBWorkload("WR", 10, value_size=size, seed=1)
            op = workload.next_operation()
            assert len(op.value) == size

    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 256, 1024])
    def test_make_value_matches_the_generator_expression(self, size):
        """``make_value`` draws with ``map``; the bytes and the stream
        state after it are what the per-byte generator gave."""
        import random
        for seed in range(24):
            ours, reference = random.Random(seed), random.Random(seed)
            value = make_value(ours, size)
            assert value == (bytes(reference.getrandbits(8)
                                   for _ in range(min(size, 16)))
                             + b"x" * max(size - 16, 0))
            assert len(value) == size
            assert ours.random() == reference.random()

    def test_load_pairs(self):
        workload = YCSBWorkload("A", 25, value_size=100, seed=4)
        pairs = list(workload.load_pairs())
        assert len(pairs) == 25
        assert all(len(value) == 100 for _key, value in pairs)
        assert len({key for key, _ in pairs}) == 25

    def test_key_prefix_namespacing(self):
        w1 = YCSBWorkload("A", 10, seed=1, key_prefix="left")
        w2 = YCSBWorkload("A", 10, seed=1, key_prefix="right")
        assert w1.next_operation().key.startswith(b"left")
        assert w2.next_operation().key.startswith(b"right")

    @staticmethod
    def _unmemoised(workload):
        """``workload`` drawing each key as it did before the rank and
        key memos: ``fnv1a_64`` and ``make_key`` on every draw."""
        chooser = workload._chooser
        if isinstance(chooser, ScrambledZipfianGenerator):
            def draw():
                return fnv1a_64(chooser._zipf.next()) % chooser.n
        else:
            draw = chooser.next
        workload._existing_key = lambda: make_key(draw(), workload.key_prefix)
        return workload

    @pytest.mark.parametrize("distribution,skew", [
        (None, 0.5), (None, 0.99), ("uniform", 0.99)])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_key_memos_leave_the_streams_alone(self, name, distribution,
                                               skew):
        """Same operations, and both random streams in the same state
        after them, as with every key generated afresh."""
        for seed in range(20):
            ours, reference = (
                YCSBWorkload(name, 300, value_size=8, skew=skew,
                             distribution=distribution, seed=seed)
                for _ in range(2))
            self._unmemoised(reference)
            assert (list(ours.operations(400))
                    == list(reference.operations(400)))
            assert ours.rng.random() == reference.rng.random()
            streams = [getattr(w._chooser, "_zipf", w._chooser).rng
                       for w in (ours, reference)]
            assert streams[0].random() == streams[1].random()
            assert len(ours._keys) <= 300
            assert len(getattr(ours._chooser, "_items", ())) <= 300

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            YCSBWorkload("Z", 10)

    def test_all_defined_workloads_spec_sums(self):
        for spec in WORKLOADS.values():
            total = (spec.read_fraction + spec.update_fraction
                     + spec.insert_fraction + spec.rmw_fraction)
            assert total == pytest.approx(1.0)


class TestDrivers:
    class EchoClient:
        """Minimal client: fixed-latency ops against a dict."""

        def __init__(self, sim, latency_us=10.0):
            self.sim = sim
            self.latency_us = latency_us
            self.data = {}

        def get(self, key):
            yield self.sim.timeout(self.latency_us)
            from repro.core.datastore import OpResult
            if key in self.data:
                return OpResult("ok", value=self.data[key])
            return OpResult("not_found")

        def put(self, key, value):
            yield self.sim.timeout(self.latency_us)
            from repro.core.datastore import OpResult
            self.data[key] = value
            return OpResult("ok")

        def delete(self, key):
            yield self.sim.timeout(self.latency_us)
            from repro.core.datastore import OpResult
            return OpResult("ok")

    def test_closed_loop_completes_exact_ops(self, sim):
        client = self.EchoClient(sim)
        workload = YCSBWorkload("A", 100, value_size=16, seed=1)
        driver = ClosedLoopDriver(sim, client, workload, num_ops=50,
                                  concurrency=4, history=History())
        stats = drive(sim, [driver])
        assert stats.completed >= 50  # rmw counts once, inserts once

    def test_closed_loop_throughput_scales_with_concurrency(self, sim):
        results = {}
        for concurrency in (1, 8):
            sim2 = type(sim)()
            client = self.EchoClient(sim2, latency_us=100.0)
            workload = YCSBWorkload("C", 100, value_size=16, seed=1)
            driver = ClosedLoopDriver(sim2, client, workload, num_ops=64,
                                      concurrency=concurrency,
                                      history=History())
            stats = drive(sim2, [driver])
            results[concurrency] = stats.throughput_qps
        assert results[8] > 5 * results[1]

    def test_latency_percentiles_ordered(self, sim):
        client = self.EchoClient(sim)
        workload = YCSBWorkload("B", 50, value_size=16, seed=2)
        driver = ClosedLoopDriver(sim, client, workload, num_ops=100,
                                  concurrency=4, history=History())
        stats = drive(sim, [driver])
        assert (stats.percentile_us(0.5) <= stats.percentile_us(0.99)
                <= stats.percentile_us(0.999))

    def test_open_loop_arrival_dispatches_no_start_event(self, sim):
        """An arrival runs its op's first step on the spot: the arrival
        and the client's latency are the only events."""
        client = self.EchoClient(sim, latency_us=10.0)
        workload = YCSBWorkload("C", 50, value_size=16, seed=1)
        history = History()
        driver = OpenLoopDriver(sim, client, workload, rate_qps=1.0,
                                duration_us=1.0, history=history)
        pending = []
        sim.timeout(5.0).callbacks.append(
            lambda _e: driver.arrive(workload, 4, pending))
        sim.run()
        op, = pending
        assert op.processed and history.invoke_us == [5.0]
        assert sim.events_dispatched == 2 and sim.now == 15.0

    def test_make_key_format(self):
        assert make_key(7) == b"user000000000007"
        assert make_key(7, "k") == b"k000000000007"
