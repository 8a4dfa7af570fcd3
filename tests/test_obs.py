"""Tests for the observability layer: spans, histograms, metrics,
and the cleaned-up cluster API they ride behind."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import ClientResult, ClientStats
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.protocol import ReadPolicy
from repro.obs.hist import (EDGES, GROWTH, MIN_US, NUM_BUCKETS,
                            LatencyHistogram)
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Tracer, span_coverage
from repro.sim.core import Simulator


# -- histogram -----------------------------------------------------------------

class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.count == 0
        assert hist.mean_us() == 0.0
        assert hist.p99 == 0.0

    def test_mean_is_exact(self):
        hist = LatencyHistogram()
        for v in (10.0, 20.0, 30.0):
            hist.record(v)
        assert hist.mean_us() == pytest.approx(20.0)

    def test_percentiles_within_one_bucket_of_raw(self):
        # The regression guard the API change promises: histogram
        # quantiles agree with the historical raw-list quantile
        # (index = min(int(q*n), n-1)) within one log bucket (~19%).
        samples = [17.0 + 3.1 * i + (i % 7) * 41.0 for i in range(500)]
        hist = LatencyHistogram()
        for v in samples:
            hist.record(v)
        ordered = sorted(samples)
        for q in (0.50, 0.95, 0.99):
            raw = ordered[min(int(q * len(ordered)), len(ordered) - 1)]
            approx = hist.percentile(q)
            assert raw / GROWTH <= approx <= raw * GROWTH

    def test_underflow_overflow_clamped(self):
        hist = LatencyHistogram()
        hist.record(0.001)
        hist.record(1e12)
        assert hist.count == 2
        assert hist.min_us == 0.001
        assert hist.max_us == 1e12
        # Reported percentiles stay within the observed range.
        assert 0.001 <= hist.p50 <= 1e12

    @staticmethod
    def _reference_bucket(value_us):
        """The binary search ``record`` ran before it used ``bisect``."""
        if value_us <= MIN_US:
            return 0
        lo, hi = 0, NUM_BUCKETS - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value_us <= EDGES[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    @staticmethod
    def _bucket(value_us):
        hist = LatencyHistogram()
        hist.record(value_us)
        assert sum(hist.counts) == 1
        return hist.counts.index(1)

    def test_bucket_matches_reference_at_every_edge(self):
        values = [0.0, -1.0, MIN_US, math.nextafter(MIN_US, 0.0),
                  math.nextafter(MIN_US, math.inf), 1e12, math.inf,
                  EDGES[-1] * GROWTH]
        for edge in EDGES:
            values += [edge, math.nextafter(edge, 0.0),
                       math.nextafter(edge, math.inf)]
        for value in values:
            assert self._bucket(value) == self._reference_bucket(value), value
        # An edge is its bucket's inclusive upper bound.
        assert self._bucket(EDGES[0]) == 0
        assert self._bucket(math.nextafter(EDGES[0], math.inf)) == 1
        assert self._bucket(EDGES[-2]) == NUM_BUCKETS - 2
        assert self._bucket(math.nextafter(EDGES[-2], math.inf)) \
            == self._bucket(math.inf) == NUM_BUCKETS - 1

    @settings(max_examples=500, deadline=None)
    @given(value=st.one_of(
        st.floats(allow_nan=False),
        st.floats(min_value=0.5, max_value=EDGES[-1] * 2)))
    def test_bucket_matches_reference(self, value):
        assert self._bucket(value) == self._reference_bucket(value)

    def test_to_dict_shape(self):
        hist = LatencyHistogram()
        hist.record(42.0)
        summary = hist.to_dict()
        for key in ("count", "mean_us", "p50_us", "p95_us", "p99_us",
                    "p999_us", "buckets"):
            assert key in summary
        assert summary["count"] == 1


# -- spans --------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_ordering(self):
        sim = Simulator()
        tracer = Tracer(sim)
        root = tracer.trace("op", track="client0")
        sim.run(until=10.0)
        child = root.child("phase", cat="net")
        sim.run(until=15.0)
        child.finish()
        sim.run(until=20.0)
        root.finish()
        spans = tracer.spans
        assert [s.name for s in spans] == ["op", "phase"]
        assert spans[1].parent_id == spans[0].span_id
        assert spans[1].trace_id == spans[0].trace_id
        assert spans[0].begin_us == 0.0
        assert spans[1].begin_us == 10.0
        assert spans[1].end_us == 15.0
        assert spans[0].end_us == 20.0

    def test_finish_idempotent(self):
        sim = Simulator()
        tracer = Tracer(sim)
        ctx = tracer.trace("op", track="t")
        sim.run(until=5.0)
        ctx.finish()
        sim.run(until=9.0)
        ctx.finish({"late": True})
        assert ctx.span.end_us == 5.0
        assert ctx.span.args["late"] is True

    def test_chrome_trace_skips_open_spans(self):
        sim = Simulator()
        tracer = Tracer(sim)
        done = tracer.trace("done", track="t")
        done.finish()
        tracer.trace("open", track="t")
        doc = tracer.chrome_trace()
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["done"]

    def test_coverage_union(self):
        sim = Simulator()
        tracer = Tracer(sim)
        root = tracer.trace("op", track="t")
        a = root.child("a")
        sim.run(until=4.0)
        a.finish()
        b = root.child("b")  # overlapping start at t=4
        sim.run(until=8.0)
        b.finish()
        sim.run(until=10.0)
        root.finish()
        assert span_coverage(tracer, root.span) == pytest.approx(0.8)


# -- metrics registry ---------------------------------------------------------

class TestMetricsRegistry:
    def test_sample_record_shape(self):
        sim = Simulator()
        registry = MetricsRegistry(sim, counters=lambda: {"ops": 3, "b": 1})
        registry.register_gauge("depth", lambda: 7)
        registry.register_histogram("lat").record(100.0)
        record = registry.sample_now()
        assert record["t_us"] == 0.0
        assert list(record["counters"].items()) == [("b", 1), ("ops", 3)]
        assert record["gauges"] == {"depth": 7.0}
        assert record["histograms"]["lat"]["count"] == 1

    def test_bench_records_flat(self):
        sim = Simulator()
        registry = MetricsRegistry(sim, counters=dict)
        registry.register_histogram("client0.latency").record(50.0)
        registry.sample_now()
        rows = registry.bench_records("smoke")
        assert rows[0]["label"] == "smoke"
        assert rows[0]["client0.latency.count"] == 1
        assert "client0.latency.p99_us" in rows[0]


# -- client stats -------------------------------------------------------------

class TestClientStats:
    def test_quantiles_served_from_histogram(self):
        stats = ClientStats()
        for i in range(100):
            stats.record(ClientResult("ok", latency_us=float(i + 1)))
        # Exact 99th-percentile sample of 1..100 is 100.0.
        assert (100.0 / GROWTH <= stats.percentile_latency_us(0.99)
                <= 100.0 * GROWTH)


# -- read policy --------------------------------------------------------------

class TestReadPolicy:
    def test_members_and_none_pass_through(self):
        assert ReadPolicy.coerce(None) is None
        assert ReadPolicy.coerce(ReadPolicy.ANY) is ReadPolicy.ANY

    def test_bare_string_rejected(self):
        with pytest.raises(ValueError):
            ReadPolicy.coerce("tail")

    def test_invalid_policy_lists_valid(self):
        with pytest.raises(ValueError, match="crrs, tail, any"):
            ReadPolicy.coerce("nearest")

    def test_str_compatibility(self):
        # Old string comparisons must keep working.
        assert ReadPolicy.TAIL == "tail"
        assert str(ReadPolicy.CRRS) == "crrs"


# -- cluster API --------------------------------------------------------------

class TestClusterApi:
    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError) as excinfo:
            ClusterConfig.from_overrides(num_jbofs=3, num_clientz=2)
        message = str(excinfo.value)
        assert "num_clientz" in message
        assert "num_clients" in message  # the valid fields are listed

    def test_cluster_ctor_validates_overrides(self):
        with pytest.raises(TypeError):
            LeedCluster(trace_interval=1)

    def test_membership_snapshot_public(self):
        cluster = LeedCluster(num_jbofs=2, num_clients=1)
        snap = cluster.control_plane.membership_snapshot()
        assert snap.replication == cluster.config.replication

    def test_context_manager_drains_heap(self):
        with LeedCluster(num_jbofs=2, num_clients=1) as cluster:
            cluster.start()

            def app(client):
                yield from client.put(b"k", b"v")
                result = yield from client.get(b"k")
                return result.value

            proc = cluster.sim.process(app(cluster.clients[0]))
            assert cluster.sim.run(until=proc) == b"v"
        # After shutdown the background loops exit: an open-ended run
        # terminates instead of ticking heartbeats forever.
        before = cluster.sim.now
        cluster.sim.run()
        assert cluster.sim.now < before + 10 * cluster.config.heartbeat_timeout_us
        # The cluster handed the registry its counter walk.
        assert cluster.metrics.sample_now()["counters"][
            "client.operations"] == 2


# -- end-to-end tracing -------------------------------------------------------

def run_traced_cluster(seed=0):
    with LeedCluster(num_jbofs=3, num_clients=1, seed=seed,
                     trace_sample_interval=1) as cluster:
        cluster.start()

        def app(client):
            for i in range(4):
                key = ("key%d" % i).encode()
                yield from client.put(key, b"v" * 64)
                yield from client.get(key)

        proc = cluster.sim.process(app(cluster.clients[0]))
        cluster.sim.run(until=proc)
        cluster.shutdown()
        cluster.sim.run()
    return cluster


class TestEndToEndTracing:
    def test_get_coverage_and_phases(self):
        cluster = run_traced_cluster()
        tracer = cluster.tracer
        gets = [s for s in tracer.roots()
                if s.name == "client.get" and s.finished]
        assert gets, "no traced GET roots"
        for root in gets:
            assert span_coverage(tracer, root) >= 0.90
        cats = {s.cat for s in tracer.spans}
        assert {"client", "net", "engine", "device"} <= cats

    def test_engine_spans_nest_under_dispatch(self):
        cluster = run_traced_cluster()
        tracer = cluster.tracer
        by_id = {s.span_id: s for s in tracer.spans}
        for span in tracer.spans:
            if span.cat == "engine":
                parent = by_id[span.parent_id]
                assert parent.cat in ("server", "engine")
                assert parent.begin_us <= span.begin_us

    def test_same_seed_byte_identical_export(self):
        first = run_traced_cluster(seed=3).tracer.to_json()
        second = run_traced_cluster(seed=3).tracer.to_json()
        assert first == second
        json.loads(first)  # and it is valid JSON

    def test_sampling_interval_skips_requests(self):
        with LeedCluster(num_jbofs=2, num_clients=1,
                         trace_sample_interval=2) as cluster:
            cluster.start()

            def app(client):
                for i in range(6):
                    yield from client.put(b"k%d" % i, b"v")

            proc = cluster.sim.process(app(cluster.clients[0]))
            cluster.sim.run(until=proc)
        assert len(cluster.tracer.roots()) == 3

    def test_untraced_requests_carry_no_spans(self):
        with LeedCluster(num_jbofs=2, num_clients=1) as cluster:
            cluster.start()

            def app(client):
                yield from client.put(b"k", b"v")

            proc = cluster.sim.process(app(cluster.clients[0]))
            cluster.sim.run(until=proc)
        assert cluster.tracer.spans == []
