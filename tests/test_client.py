"""Tests for the front-end client library (§3.1.2, §3.5, §3.7)."""

import hashlib
import inspect
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.client import ClientResult, FrontEndClient
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import OpResult, StoreConfig
from repro.core.flow_control import TargetView
from repro.core.hashring import HashRing, VNode
from repro.core.io_engine import KVCommand
from repro.core.jbof import RUNNING, LeedOptions
from repro.core.protocol import (KVReply, KVRequest, MembershipUpdate,
                                 ReadPolicy)

PY_VERSION = "%d.%d" % sys.version_info[:2]

from conftest import drive


def small_cluster(**overrides):
    defaults = dict(
        num_jbofs=3, ssds_per_jbof=1, num_clients=1, replication=2,
        store=StoreConfig(num_segments=32, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        seed=6)
    defaults.update(overrides)
    cluster = LeedCluster(ClusterConfig(**defaults))
    cluster.start()
    return cluster


class TestRouting:
    def test_writes_go_to_head(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        target = client._pick_target("put", b"any-key")
        chain = client.local_ring.chain_for_key(b"any-key")
        assert target == (0, chain[0])

    def test_deletes_go_to_head(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        hop, _vnode = client._pick_target("del", b"k")
        assert hop == 0

    def test_tail_policy(self):
        cluster = small_cluster(read_policy=ReadPolicy.TAIL)
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        hop, vnode = client._pick_target("get", b"k")
        assert vnode.vnode_id == chain[-1].vnode_id

    def test_any_policy_round_robins(self):
        cluster = small_cluster(read_policy=ReadPolicy.ANY)
        client = cluster.clients[0]
        picks = {client._pick_target("get", b"k")[1].vnode_id
                 for _ in range(10)}
        assert len(picks) == 2  # both replicas used

    def test_crrs_policy_prefers_tokens(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        client.flow.on_response(chain[0].vnode_id, 1)
        client.flow.on_response(chain[1].vnode_id, 50)
        hop, vnode = client._pick_target("get", b"k")
        assert vnode.vnode_id == chain[1].vnode_id

    def test_leaving_replica_avoided_for_reads(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        chain = client.local_ring.chain_for_key(b"k")
        client.vnode_states[chain[-1].vnode_id] = "LEAVING"
        for _ in range(5):
            _hop, vnode = client._pick_target("get", b"k")
            assert vnode.vnode_id != chain[-1].vnode_id


class TestMembershipHandling:
    def test_stale_update_ignored(self):
        cluster = small_cluster()
        client = cluster.clients[0]
        version = client.local_ring.version
        stale = MembershipUpdate(ring_version=version - 1, vnodes=[],
                                 states=[], replication=2)
        client.apply_membership(stale)
        assert len(client.local_ring) > 0
        assert client.local_ring.version == version

    def test_refresh_ring_pulls_from_control_plane(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        # Clobber the local view, then refresh.
        client.local_ring = HashRing([], replication=2, version=0)

        def proc():
            ok = yield from client.refresh_ring()
            return ok

        assert drive(sim, proc())
        assert len(client.local_ring) == 3


class TestRetries:
    def test_retry_after_nack_on_stale_ring(self):
        """A client with an outdated ring gets NACKed, refreshes, and
        succeeds."""
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        # Fabricate a wrong ring: swap two vnodes' positions by using
        # fake ids that do not exist.
        good_ring = client.local_ring
        wrong = [VNode(vid + "-stale", v.jbof_address)
                 for vid, v in good_ring.vnodes.items()]
        client.local_ring = HashRing(wrong, replication=2,
                                     version=good_ring.version)

        def proc():
            result = yield from client.put(b"key", b"value")
            return result

        result = drive(sim, proc())
        assert result.ok
        assert result.retries >= 1

    def test_stats_recorded(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"a", b"1")
            yield from client.get(b"a")
            yield from client.get(b"missing")

        drive(sim, proc())
        assert client.stats.operations == 3
        assert client.stats.ok == 2
        assert client.stats.not_found == 1
        assert client.stats.mean_latency_us() > 0

    def test_only_lost_replies_are_swallowed(self):
        """A timeout or transport error resolves the attempt as a lost
        reply; any other failure handed to the call's continuation is a
        bug and must surface from ``sim.run``, not be counted as a
        timeout."""
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        real_call = client.rpc.call
        hijacked = []

        def call(dst, method, body, nbytes, timeout_us=None, then=None):
            # The first KV attempt is answered by the test; anything
            # after it (a retry) goes to the cluster.
            if method == "kv" and not hijacked:
                hijacked.append(then)
                return None
            return real_call(dst, method, body, nbytes, timeout_us, then)

        client.rpc.call = call
        sim.schedule(5.0, lambda: hijacked[0](False, ValueError("boom")))
        with pytest.raises(ValueError, match="boom"):
            drive(sim, client.get(b"k"))
        assert client.stats.timeouts == 0

    def test_unavailable_after_total_outage(self, monkeypatch):
        monkeypatch.setattr(FrontEndClient, "MAX_RETRIES", 2)
        cluster = small_cluster(num_jbofs=2)
        sim = cluster.sim
        client = cluster.clients[0]
        client.request_timeout_us = 500.0
        for node in cluster.jbofs:
            node.crash()
        cluster.network.partition(cluster.control_plane.address)

        def proc():
            result = yield from client.put(b"k", b"v")
            return result

        result = drive(sim, proc())
        assert result.status in ("unavailable", "overloaded")
        assert client.stats.failures == 1
        assert client.stats.failed_by_status == {result.status: 1}


def reference_pick_target(client, op, key):
    """``_pick_target`` as it was: candidate list, then ``max`` with a
    ``flow.view`` key function for CRRS."""
    chain = client.local_ring.chain_for_key(key)
    if not chain:
        return None
    if op in ("put", "del"):
        return 0, chain[0]
    candidates = [
        (hop, vnode) for hop, vnode in enumerate(chain)
        if client.vnode_states.get(vnode.vnode_id, RUNNING) == RUNNING]
    if not candidates:
        return len(chain) - 1, chain[-1]
    policy = client.read_policy
    if policy == ReadPolicy.CRRS:
        return max(candidates,
                   key=lambda hv: client.flow.view(hv[1].vnode_id).tokens)
    if policy == ReadPolicy.ANY:
        client._read_rr += 1
        return candidates[client._read_rr % len(candidates)]
    return candidates[-1]


class TestPickTargetMatchesReference:
    """CRRS replica choice is one loop now; it must pick what
    ``max(candidates, key=...)`` picked (the first maximum on a token
    tie) and touch the flow controller's views the same way."""

    _cluster = None

    @classmethod
    def client(cls):
        if cls._cluster is None:
            cls._cluster = small_cluster(num_jbofs=4, replication=3)
        return cls._cluster.clients[0]

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.sampled_from([b"k%d" % i for i in range(12)]),
        op=st.sampled_from(["get", "get", "get", "put", "del"]),
        policy=st.sampled_from(list(ReadPolicy)),
        # Per chain position: the state pushed by the control plane
        # (None: never mentioned) and the token view (None: this
        # client has not heard from that partition yet).
        states=st.lists(st.sampled_from(
            [None, RUNNING, RUNNING, "LEAVING", "JOINING"]),
            min_size=3, max_size=3),
        tokens=st.lists(st.sampled_from([None, 0, 4, 4, 7]),
                        min_size=3, max_size=3),
        now=st.sampled_from([0.0, 12.5]))
    def test_same_choice_same_views(self, key, op, policy, states, tokens,
                                    now):
        client = self.client()
        chain = client.local_ring.chain_for_key(key)
        outcomes = []
        for pick in (client._pick_target,
                     lambda op, key: reference_pick_target(client, op, key)):
            client.read_policy = policy
            client._read_rr = 5
            client.vnode_states = {
                vnode.vnode_id: state
                for vnode, state in zip(chain, states) if state is not None}
            client.flow.targets = {
                vnode.vnode_id: TargetView(tokens=count, last_update_us=1.0)
                for vnode, count in zip(chain, tokens) if count is not None}
            client.sim.now = now
            choice = pick(op, key)
            outcomes.append((choice, client._read_rr,
                             list(client.flow.targets.items())))
        assert outcomes[0] == outcomes[1]
        hop, vnode = outcomes[0][0]
        assert chain[hop] is vnode

    def test_first_maximum_wins_a_token_tie(self):
        client = self.client()
        client.read_policy = ReadPolicy.CRRS
        chain = client.local_ring.chain_for_key(b"tie")
        client.vnode_states = {}
        client.flow.targets = {}
        for vnode, count in zip(chain, (3, 9, 9)):
            client.flow.on_response(vnode.vnode_id, count)
        assert client._pick_target("get", b"tie") == (1, chain[1])

    def test_all_non_running_falls_back_to_the_tail(self):
        client = self.client()
        client.read_policy = ReadPolicy.CRRS
        chain = client.local_ring.chain_for_key(b"gone")
        client.vnode_states = {vnode.vnode_id: "LEAVING" for vnode in chain}
        client.flow.targets = {}
        assert client._pick_target("get", b"gone") == (2, chain[2])
        assert client.flow.targets == {}    # no view was consulted


class TestOneGeneratorPerOperation:
    """``get`` / ``put`` / ``delete`` hand back the one ``_operate``
    generator; nothing runs — not even trace sampling — before its
    first step."""

    def test_operations_are_lazy_generators(self):
        cluster = small_cluster(trace_sample_interval=1)
        client = cluster.clients[0]
        pending = [client.get(b"a"), client.put(b"a", b"1"),
                   client.delete(b"a")]
        assert all(inspect.isgenerator(op) for op in pending)
        assert client._trace_seq == 0 and cluster.tracer.spans == []
        assert cluster.sim.events_dispatched == 0
        for op in pending:
            op.close()

    def test_trace_root_opens_at_the_first_step(self):
        cluster = small_cluster(trace_sample_interval=1)
        sim, client = cluster.sim, cluster.clients[0]
        operation = client.put(b"a", b"1")
        sim.run(until=25.0)
        result = drive(sim, operation)
        assert result.ok
        root, = [s for s in cluster.tracer.roots() if s.name == "client.put"]
        assert root.begin_us == 25.0 and root.finished
        assert root.args["status"] == "ok" and root.args["retries"] == 0
        names = [s.name for s in cluster.tracer.spans
                 if s.parent_id == root.span_id]
        assert names[:2] == ["client.flow", "rpc.kv"]

    def test_traced_run_keeps_its_span_tree_and_figures(self):
        """A sampled fused run (every 8th operation traced, so both the
        fused and the event-per-stage GET run): span export and
        per-operation figures, digested on the commit before the
        request-path pass."""
        if PY_VERSION != "3.11":
            pytest.skip("digests were taken under python 3.11")
        figures = []
        with LeedCluster(num_jbofs=3, num_clients=2, seed=5,
                         options=LeedOptions(fast_datapath=True),
                         trace_sample_interval=8) as cluster:
            cluster.start()

            def app(client, lane):
                for i in range(48):
                    key = b"key%02d" % ((i * 7 + lane) % 12)
                    if i % 3 == 0:
                        result = yield from client.put(key, b"v" * (32 + i))
                    elif i % 11 == 10:
                        result = yield from client.delete(key)
                    else:
                        result = yield from client.get(key)
                    figures.append((lane, i, result.status,
                                    result.latency_us, result.retries,
                                    result.served_by))

            procs = [cluster.sim.process(app(client, lane))
                     for lane, client in enumerate(cluster.clients)]
            cluster.sim.run(until=cluster.sim.all_of(procs))
            cluster.shutdown()
            cluster.sim.run()
        tracer = cluster.tracer
        assert (len(tracer.roots()), len(tracer.spans)) == (12, 150)
        assert hashlib.sha256(tracer.to_json().encode()).hexdigest()[:16] \
            == "58a7ff037c94562d"
        assert hashlib.sha256(repr(figures).encode()).hexdigest()[:16] \
            == "598edfd5ca1bfb70"


class TestSlottedRecords:
    """``KVRequest`` / ``KVReply`` / ``ClientResult`` / ``OpResult`` /
    ``KVCommand`` are ``__slots__`` classes; defaults, equality, repr
    and ``wire_bytes`` are what the dataclasses gave."""

    def test_kv_request(self):
        request = KVRequest("put", b"key", b"value")
        assert (request.vnode_id, request.ring_version, request.hop,
                request.tenant, request.trace, request.deadline_us) \
            == ("", 0, 0, "default", None, None)
        assert request.wire_bytes() == 24 + 3 + 5
        assert KVRequest("get", b"key").wire_bytes() == 24 + 3
        # Trace context and deadline are stamped after construction
        # and never ride the wire.
        request.trace = object()
        request.deadline_us = 1e5
        assert request.wire_bytes() == 24 + 3 + 5
        assert not hasattr(request, "__dict__")
        with pytest.raises(AttributeError):
            request.extra = 1
        with pytest.raises(TypeError, match="unhashable"):
            hash(request)
        assert KVRequest("get", b"k", None, "v0", 3, 1, "t") \
            == KVRequest(op="get", key=b"k", vnode_id="v0", ring_version=3,
                         hop=1, tenant="t")
        assert repr(KVRequest("get", b"k", hop=2)) == (
            "KVRequest(op='get', key=b'k', value=None, vnode_id='', "
            "ring_version=0, hop=2, tenant='default', trace=None, "
            "deadline_us=None)")

    def test_kv_reply(self):
        reply = KVReply("ok", b"abc", tokens=5, served_by="v1")
        assert reply.ring_version == 0 and reply.wire_bytes() == 27
        assert KVReply("nack", ring_version=4).wire_bytes() == 24
        assert reply == KVReply("ok", b"abc", 5, "v1", 0)
        assert reply != KVReply("ok", b"abc", 6, "v1", 0)
        assert repr(KVReply("nack")) == (
            "KVReply(status='nack', value=None, tokens=0, served_by='', "
            "ring_version=0)")
        assert not hasattr(reply, "__dict__")

    def test_results(self):
        result = ClientResult("ok", b"v", 12.5, 1, "v1")
        assert result.ok and not ClientResult("not_found").ok
        assert ClientResult("no_ring", latency_us=3.0, retries=2) \
            == ClientResult("no_ring", None, 3.0, 2, "")
        assert repr(ClientResult("ok")) == (
            "ClientResult(status='ok', value=None, latency_us=0.0, "
            "retries=0, served_by='')")
        outcome = OpResult("ok", value=b"v")
        assert outcome.ok and outcome.nvme_accesses == 0
        outcome.total_us = 4.0
        assert outcome == OpResult("ok", b"v", 4.0, 0.0, 0.0, 0)
        assert repr(OpResult("not_found")) == (
            "OpResult(status='not_found', value=None, total_us=0.0, "
            "ssd_us=0.0, cpu_us=0.0, nvme_accesses=0)")
        for record in (result, outcome):
            assert not hasattr(record, "__dict__")

    def test_kv_command_hashes_by_identity(self):
        first = KVCommand("get", b"k", tenant="t")
        twin = KVCommand("get", b"k", tenant="t")
        assert first != twin and first == first
        assert len({first, twin}) == 2      # as in ``engine.active``
        assert (first.value, first.enqueued_at, first.started_at,
                first.completion, first.trace, first.queue_span) \
            == (None, 0.0, 0.0, None, None, None)
        assert first.token_cost == 2
        assert repr(first).startswith(
            "KVCommand(op='get', key=b'k', value=None, tenant='t', ")
        assert not hasattr(first, "__dict__")

    def test_command_sits_in_the_active_set_while_it_runs(self):
        cluster = small_cluster()
        sim, client = cluster.sim, cluster.clients[0]
        drive(sim, client.put(b"k", b"v"))
        engines = [runtime.engine for node in cluster.jbofs
                   for runtime in node.vnodes.values()]
        seen = []
        process = sim.process(client.get(b"k"))
        while not process.triggered:
            sim.step()
            seen += [command for engine in engines
                     for command in engine.active]
        assert seen and all(type(c) is KVCommand for c in seen)
        assert all(not engine.active for engine in engines)
