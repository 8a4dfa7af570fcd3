"""Tests for the JBOF node and CRRS chain replication (§3.7)."""

import pytest

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.core.io_engine import TOKEN_COST, KVCommand
from repro.core.jbof import JBOFNode, LeedOptions
from repro.core.protocol import KVRequest, ReadPolicy
from repro.hw.cpu import CYCLE_COSTS

from conftest import drive


def small_cluster(num_jbofs=3, replication=3,
                  read_policy=ReadPolicy.CRRS, num_clients=1,
                  seed=0, replication_protocol="chain", **options_kwargs):
    options = LeedOptions(**options_kwargs) if options_kwargs else LeedOptions()
    config = ClusterConfig(
        num_jbofs=num_jbofs, ssds_per_jbof=2, num_clients=num_clients,
        replication=replication,
        store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        options=options, read_policy=read_policy, seed=seed,
        replication_protocol=replication_protocol)
    cluster = LeedCluster(config)
    cluster.start()
    return cluster


class TestWritePath:
    def test_write_replicated_to_all_chain_members(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            result = yield from client.put(b"replicated-key", b"the-value")
            assert result.ok
            # Let backward acks drain.
            yield sim.timeout(1000)

        drive(sim, proc())
        chain = client.local_ring.chain_ids_for_key(b"replicated-key")
        assert len(chain) == 3
        holders = 0
        for node in cluster.jbofs:
            for vnode_id, runtime in node.vnodes.items():
                if vnode_id in chain:
                    def check(runtime=runtime):
                        got = yield from runtime.store.get(b"replicated-key")
                        return got

                    got = drive(sim, check())
                    assert got.ok and got.value == b"the-value"
                    holders += 1
        assert holders == 3

    def test_dirty_bits_cleared_after_commit(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for index in range(20):
                result = yield from client.put(b"k%02d" % index, b"v")
                assert result.ok
            yield sim.timeout(2000)  # acks propagate backward

        drive(sim, proc())
        residue = sum(len(rt.dirty) for node in cluster.jbofs
                      for rt in node.vnodes.values())
        assert residue == 0

    def test_tail_commits_and_counts(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for index in range(10):
                yield from client.put(b"w%d" % index, b"v")
            yield sim.timeout(500)

        drive(sim, proc())
        commits = sum(rt.stats.writes_committed for node in cluster.jbofs
                      for rt in node.vnodes.values())
        forwards = sum(rt.stats.writes_forwarded for node in cluster.jbofs
                       for rt in node.vnodes.values())
        assert commits == 10
        assert forwards == 20  # two non-tail hops per write


class TestReadPath:
    def test_read_any_clean_replica(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"key", b"value")
            yield sim.timeout(1000)
            # Read repeatedly; CRRS may serve from any replica.
            for _ in range(12):
                result = yield from client.get(b"key")
                assert result.ok and result.value == b"value"

        drive(sim, proc())
        served = [rt.stats.reads_served for node in cluster.jbofs
                  for rt in node.vnodes.values()]
        assert sum(served) == 12

    def test_dirty_read_ships_to_tail(self):
        """A GET hitting a replica with the dirty bit set must be
        shipped to the tail, never served stale."""
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"hot", b"v0")
            yield sim.timeout(1000)
            chain = client.local_ring.chain_ids_for_key(b"hot")
            # Manually dirty the head replica (as if a write were in
            # flight) and force a read at it.
            head_id = chain[0]
            for node in cluster.jbofs:
                if head_id in node.vnodes:
                    node.vnodes[head_id].mark_dirty(b"hot")
                    head_node, head_runtime = node, node.vnodes[head_id]
            reply = yield client.rpc.call(
                head_node.address, "kv",
                KVRequest("get", b"hot", None, head_id,
                          client.local_ring.version, 0, "t"),
                32)
            return reply, head_runtime.stats.reads_shipped

        reply, shipped = drive(sim, proc())
        assert reply.status == "ok"
        assert reply.value == b"v0"
        assert shipped == 1
        # The reply came from the tail, not the dirty head.
        chain = cluster.clients[0].local_ring.chain_ids_for_key(b"hot")
        assert reply.served_by == chain[-1]

    def test_read_without_crrs_goes_to_tail(self):
        cluster = small_cluster(read_policy=ReadPolicy.TAIL)
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"k", b"v")
            yield sim.timeout(500)
            for _ in range(8):
                result = yield from client.get(b"k")
                assert result.ok

        drive(sim, proc())
        chain = client.local_ring.chain_ids_for_key(b"k")
        tail_id = chain[-1]
        for node in cluster.jbofs:
            for vnode_id, runtime in node.vnodes.items():
                if vnode_id == tail_id:
                    assert runtime.stats.reads_served == 8
                elif vnode_id in chain:
                    assert runtime.stats.reads_served == 0


class TestViewValidation:
    def test_stale_hop_nacked(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            chain = client.local_ring.chain_for_key(b"key")
            wrong_hop = 2  # head vnode addressed as if it were the tail
            reply = yield client.rpc.call(
                chain[0].jbof_address, "kv",
                KVRequest("put", b"key", b"v", chain[0].vnode_id,
                          client.local_ring.version, wrong_hop, "t"),
                64)
            return reply

        reply = drive(sim, proc())
        assert reply.status == "nack"

    def test_unknown_vnode_unavailable(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            reply = yield client.rpc.call(
                cluster.jbofs[0].address, "kv",
                KVRequest("get", b"key", None, "jbof0/p999",
                          client.local_ring.version, 0, "t"),
                32)
            return reply

        assert drive(sim, proc()).status == "unavailable"


class TestTokenPiggyback:
    def test_replies_carry_tokens(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            yield from client.put(b"k", b"v")
            result = yield from client.get(b"k")
            return result

        result = drive(sim, proc())
        assert result.ok
        served = result.served_by
        assert client.flow.view(served).tokens > 0


class TestSwapInCluster:
    def test_swap_disabled_never_redirects(self):
        cluster = small_cluster(enable_swap=False)
        sim = cluster.sim
        client = cluster.clients[0]

        def proc():
            for index in range(40):
                yield from client.put(b"s%02d" % index, b"v" * 256)

        drive(sim, proc())
        assert sum(node.swap_redirects for node in cluster.jbofs) == 0

    def test_crash_makes_node_silent(self):
        cluster = small_cluster()
        sim = cluster.sim
        client = cluster.clients[0]
        cluster.jbofs[1].crash()

        def proc():
            result = yield from client.put(b"k", b"v")
            return result

        result = drive(sim, proc())
        # The write either succeeded via a chain that avoids jbof1, or
        # exhausted retries; it must not hang or corrupt.
        assert result.status in ("ok", "unavailable", "overloaded")


class TestWritePathEventBudget:
    """Every event a replicated write dispatches is a modelled delay — a
    CPU slice, a device completion or a wire delivery (plus one submit
    hop per group-commit flush).  Pin the exact count so zero-delay
    hops and helper processes cannot creep back: a 3-replica chain PUT
    used to take 65 events and 15 processes, a DEL 50 and 9."""

    #: Overwrite, per replica: delivery, rpc_receive, hash_lookup,
    #: value-log flush submit hop, value write, segment read,
    #: bucket_update, segment append, replication_forward (not the
    #: tail) = 26; client reply delivery 1 (the call's continuation,
    #: the flow-control round and the worker's resume run inside it);
    #: two backward acks x (delivery + dirty_map_op) = 4; the test
    #: process itself 3.  A waiter woken by a retiring flush or a lock
    #: hand-off resumes inside that dispatch.
    PUT_EVENTS = 34
    #: A first PUT of a key whose segment does not exist yet: no
    #: segment read, 1 event fewer per replica.
    PUT_NEW_EVENTS = 31
    #: An existing key's DEL: no value write, 2 events fewer per
    #: replica than the overwrite.
    DEL_EVENTS = 28
    #: one handler process per replica.
    PROCESSES = 3

    @staticmethod
    def _measure(cluster, make_op):
        sim = cluster.sim
        spawned = []
        original = sim.process
        original_inline = sim.process_inline

        def counting(generator, name=None, **kwargs):
            spawned.append(name)
            return original(generator, name=name, **kwargs)

        def counting_inline(generator, name=None):
            spawned.append(name)
            return original_inline(generator, name=name)

        def proc():
            assert (yield from make_op()).ok
            yield sim.timeout(1000)      # backward acks drain

        before = sim.events_dispatched
        process = original(proc(), name="test")
        sim.process = counting
        sim.process_inline = counting_inline
        try:
            sim.run(until=process)
        finally:
            del sim.process
            del sim.process_inline
        return sim.events_dispatched - before, spawned

    def test_put_and_delete_stay_inside_their_budget(self):
        cluster = small_cluster(heartbeat_period_us=1e9)
        client = cluster.clients[0]
        key = b"budget-key"
        # Unmeasured warm-up: start-of-run membership pushes drain.
        self._measure(cluster, lambda: client.put(b"warm-up", b"x"))
        for make_op, budget in (
                (lambda: client.put(key, b"v" * 64), self.PUT_NEW_EVENTS),
                (lambda: client.put(key, b"w" * 64), self.PUT_EVENTS),
                (lambda: client.delete(key), self.DEL_EVENTS)):
            events, spawned = self._measure(cluster, make_op)
            assert events == budget, (events, spawned)
            assert len(spawned) <= self.PROCESSES, spawned
            assert not [name for name in spawned
                        if "exec" in name or "flush" in name
                        or "vwrite" in name or "chain_ack" in name]


class TestGetEventBudget:
    """The same exact count for a GET on an idle cluster, the test
    process's own 3 events included.  Reference: request delivery,
    rpc_receive, hash_lookup, segment read, bucket scan, value read,
    reply delivery = 7.  Fused: request delivery, retire (the reply is
    sent from it), reply delivery = 3.  The worker resumes inside the
    reply's delivery."""

    REFERENCE_EVENTS = 10
    FUSED_EVENTS = 6

    @pytest.mark.parametrize("fused", [False, True])
    def test_get_stays_inside_its_budget(self, fused):
        options = {"fast_datapath": True} if fused else {}
        cluster = small_cluster(heartbeat_period_us=1e9, **options)
        client = cluster.clients[0]
        key = b"budget-key"
        TestWritePathEventBudget._measure(
            cluster, lambda: client.put(key, b"v" * 64))
        budget = self.FUSED_EVENTS if fused else self.REFERENCE_EVENTS
        for _ in range(2):
            events, spawned = TestWritePathEventBudget._measure(
                cluster, lambda: client.get(key))
            assert events == budget, (events, spawned)
            assert len(spawned) == (0 if fused else 1), spawned


class TestAbdEventBudget:
    """The exact count for one ABD GET and one overwrite PUT on an
    idle 3-JBOF cluster, the test process's own 3 events included.
    The coordinator's quorum rounds take their replies as continuations:
    no event per reply, and the coordinator resumes inside the dispatch
    of the reply that ends the round.  Every event is a modelled delay
    but the log flusher's submit hop.

    GET: request delivery, rpc_receive, and the local read overlapping
    the query round (hash_lookup, segment read, bucket scan, value
    read) = 6; per peer, query delivery, dirty_map_op, the value probe
    (hash_lookup, segment read, bucket scan, value read) and vote
    delivery = 7, x 2; client reply delivery 1.

    PUT: request delivery, rpc_receive = 2; per peer, query delivery,
    dirty_map_op and vote delivery = 3, x 2; the coordinator's local
    write (hash_lookup, value-log flush submit hop, value write, segment
    read, bucket_update, segment append) = 6; per peer, commit
    delivery, replication_forward, the same six write events and ack
    delivery = 9, x 2; client reply delivery 1."""

    GET_EVENTS = 24
    PUT_EVENTS = 36
    #: one handler process per coordinator and per peer it asks.
    GET_PROCESSES = 3
    PUT_PROCESSES = 5

    def test_get_and_put_stay_inside_their_budget(self):
        cluster = small_cluster(heartbeat_period_us=1e9,
                                replication_protocol="abd")
        client = cluster.clients[0]
        key = b"budget-key"
        measure = TestWritePathEventBudget._measure
        measure(cluster, lambda: client.put(b"warm-up", b"x"))
        measure(cluster, lambda: client.put(key, b"v" * 64))
        for make_op, budget, processes in (
                (lambda: client.put(key, b"w" * 64), self.PUT_EVENTS,
                 self.PUT_PROCESSES),
                (lambda: client.get(key), self.GET_EVENTS,
                 self.GET_PROCESSES)):
            events, spawned = measure(cluster, make_op)
            assert events == budget, (events, spawned)
            assert len(spawned) == processes, spawned


class TestFusedReplyAfterWokenCommand:
    """A fused GET whose retirement wakes a command queued for tokens
    replies one event later, once that command is admitted — the rule
    ``PartitionIOEngine._execute`` follows — so its grant does not
    advertise the tokens the woken command already holds."""

    def test_grant_counts_the_admitted_command(self):
        capacity = 4
        cluster = small_cluster(heartbeat_period_us=1e9, fast_datapath=True,
                                token_capacity=capacity)
        sim = cluster.sim
        client = cluster.clients[0]
        key = b"woken"
        queued = []

        def proc():
            assert (yield from client.put(key, b"v" * 64)).ok
            yield sim.timeout(1000)      # backward acks drain
            chain = client.local_ring.chain_for_key(key)
            tail = chain[-1]
            engine = next(node.vnodes[tail.vnode_id].engine
                          for node in cluster.jbofs
                          if tail.vnode_id in node.vnodes)
            # Mid-GET (its 2 tokens pinned) a PUT needs 3 of the 2 left:
            # it waits at the scheduler for the GET's retirement.
            sim.schedule(20.0, lambda: queued.append((engine, engine.submit(
                KVCommand("put", b"behind", b"w" * 64)))))
            reply = yield client.rpc.call(
                tail.jbof_address, "kv",
                KVRequest("get", key, None, tail.vnode_id,
                          client.local_ring.version, len(chain) - 1,
                          client.tenant), 64)
            return reply

        reply = drive(sim, proc())
        engine, put_done = queued[0]
        assert reply.status == "ok" and reply.value == b"v" * 64
        assert engine.stats.total_wait_us > 0       # the PUT did wait
        sim.run(until=put_done)
        assert reply.tokens == (TOKEN_COST["get"]
                                + capacity - TOKEN_COST["put"])


_HANDLE_KV = JBOFNode._handle_kv


def _reference_serve_kv(node, request, body, ctx):
    """The handler process ``JBOFNode._handle_kv`` used to start from
    the end of a request's ``rpc_receive`` slice: dispatch as its
    first step, the policy generator inside it, the dispatch span
    closed in its ``finally``."""
    try:
        serve = node._dispatch_kv(request, body)
        if serve is not None:
            yield from serve
    finally:
        if ctx is not None:
            ctx.finish()


def _reference_handle_kv(node, src, request):
    """``JBOFNode._handle_kv`` with that process made at arrival and
    started ``after=`` the slice (the fused GET as it is)."""
    body = request.body
    if (node.options.fast_datapath and body.op == "get"
            and body.trace is None):
        return _HANDLE_KV(node, src, request)
    ctx = None
    if body.trace is not None:
        ctx = body.trace.child("jbof.dispatch", track=node.address,
                               cat="server",
                               args={"op": body.op, "vnode": body.vnode_id,
                                     "hop": body.hop})
        body.trace = ctx
    received = node._net_core().execute_event(CYCLE_COSTS["rpc_receive"])
    node.sim.process(_reference_serve_kv(node, request, body, ctx),
                     name="rpc-raw-kv@" + node.address, after=received)


class TestServeInsideTheDispatch:
    """A KV request's handler runs inside the dispatch that ends its
    ``rpc_receive`` slice (``Simulator.process_inline``) instead of as a
    process made at arrival and started ``after=`` the slice: same
    schedule, figures and spans, refused requests included."""

    @staticmethod
    def _run(reference, monkeypatch, trace_every=0, **options):
        if reference:
            monkeypatch.setattr(JBOFNode, "_handle_kv", _reference_handle_kv)
        config = ClusterConfig(
            num_jbofs=3, ssds_per_jbof=2, num_clients=2, replication=3,
            store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                              value_log_bytes=4 << 20),
            options=LeedOptions(**options), seed=4,
            trace_sample_interval=trace_every)
        cluster = LeedCluster(config)
        sim = cluster.sim
        sim.enable_schedule_digest()
        cluster.start()
        figures = []

        def app(client, lane):
            for i in range(40):
                key = b"key%02d" % ((i * 5 + lane) % 14)
                if i % 9 == 4:
                    # Refused on arrival: a stale hop (NACK) or a vnode
                    # the node does not host (UNAVAILABLE).
                    chain = client.local_ring.chain_for_key(key)
                    vnode, hop = ((chain[0].vnode_id, 2) if lane
                                  else ("jbof0/p999", 0))
                    reply = yield client.rpc.call(
                        chain[0].jbof_address, "kv",
                        KVRequest("put", key, b"z", vnode,
                                  client.local_ring.version, hop, "t"), 64)
                    figures.append((lane, i, reply.status, sim.now))
                    continue
                if i % 3 == 0:
                    result = yield from client.put(key, b"v" * (16 + i))
                elif i % 7 == 6:
                    result = yield from client.delete(key)
                else:
                    result = yield from client.get(key)
                figures.append((lane, i, result.status, result.latency_us,
                                result.served_by))

        procs = [sim.process(app(client, lane))
                 for lane, client in enumerate(cluster.clients)]
        sim.run(until=sim.all_of(procs))
        cluster.shutdown()
        sim.run()
        monkeypatch.undo()
        return (figures, sim.schedule_digest, sim._sequence,
                sim.events_dispatched, cluster.tracer.to_json())

    @pytest.mark.parametrize("trace_every,options", [
        (0, {}), (8, {}), (8, {"fast_datapath": True})])
    def test_same_schedule_as_a_process_started_after_the_slice(
            self, monkeypatch, trace_every, options):
        ours = self._run(False, monkeypatch, trace_every, **options)
        reference = self._run(True, monkeypatch, trace_every, **options)
        figures = ours[0]
        assert {entry[2] for entry in figures} >= {
            "ok", "nack", "unavailable"}
        if trace_every:
            assert '"jbof.dispatch"' in ours[4]
        assert ours == reference
