"""Tests for the intra-JBOF token I/O engine (§3.4)."""

import pytest

from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.io_engine import (
    TOKEN_COST,
    KVCommand,
    OverloadError,
    PartitionIOEngine,
)
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.rng import RngRegistry

from conftest import drive


@pytest.fixture
def store(sim):
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                  jitter=0.0), rng=RngRegistry(5))
    return LeedDataStore(sim, ssd, StoreConfig(
        num_segments=32, key_log_bytes=1 << 20, value_log_bytes=4 << 20))


@pytest.fixture
def engine(sim, store):
    return PartitionIOEngine(sim, store, token_capacity=12,
                             waiting_capacity=8, name="eng")


class TestTokenCosts:
    def test_costs_match_nvme_accesses(self):
        """Token cost == device accesses per command (§3.3)."""
        assert TOKEN_COST["get"] == 2
        assert TOKEN_COST["put"] == 3
        assert TOKEN_COST["del"] == 2


class TestExecution:
    def test_submit_executes_command(self, sim, engine):
        def proc():
            put = yield engine.submit(KVCommand("put", b"k", b"v"))
            got = yield engine.submit(KVCommand("get", b"k"))
            return put, got

        put, got = drive(sim, proc())
        assert put.ok and got.ok
        assert got.value == b"v"
        assert engine.stats.completed == 2

    def test_delete_through_engine(self, sim, engine):
        def proc():
            yield engine.submit(KVCommand("put", b"k", b"v"))
            yield engine.submit(KVCommand("del", b"k"))
            got = yield engine.submit(KVCommand("get", b"k"))
            return got

        assert drive(sim, proc()).status == "not_found"

    def test_unknown_op_fails_event(self, sim, engine):
        def proc():
            try:
                yield engine.submit(KVCommand("scan", b"k"))
            except ValueError:
                return "rejected"

        assert drive(sim, proc()) == "rejected"

    def test_tokens_bound_concurrency(self, sim, store):
        """With 12 tokens, at most 4 PUTs (3 tokens each) run at once;
        the other six each reach the head of the queue short of tokens,
        and their tenants' counters count them."""
        engine = PartitionIOEngine(sim, store, token_capacity=12,
                                   waiting_capacity=64, name="wide")
        peak = []

        def submit_many():
            events = [engine.submit(KVCommand("put", b"k%d" % i, b"v",
                                              tenant="ab"[i % 2]))
                      for i in range(10)]
            yield sim.all_of(events)

        def monitor():
            while engine.stats.completed < 10:
                peak.append(engine.active_occupancy)
                yield sim.timeout(5)

        sim.process(monitor())
        drive(sim, submit_many())
        assert max(peak) <= 4
        assert engine.stats.starved_by_tenant == {"a": 3, "b": 3}

    def test_fcfs_start_order(self, sim, engine):
        starts = []
        original = engine._execute

        def traced(command):
            starts.append(command.key)
            return original(command)

        engine._execute = traced

        def proc():
            events = [engine.submit(KVCommand("get", b"g%d" % i))
                      for i in range(6)]
            yield sim.all_of(events)

        drive(sim, proc())
        assert starts == [b"g%d" % i for i in range(6)]


class TestOverload:
    def test_waiting_queue_overflow_rejects(self, sim, engine):
        outcomes = []

        def proc():
            events = [engine.submit(KVCommand("put", b"k%02d" % i, b"v"))
                      for i in range(30)]
            for event in events:
                try:
                    result = yield event
                    outcomes.append(result.status)
                except OverloadError:
                    outcomes.append("overload")

        drive(sim, proc())
        assert "overload" in outcomes
        assert engine.stats.rejected > 0
        assert outcomes.count("ok") >= 8

    def test_overload_signal(self, sim, engine):
        assert engine.waiting_occupancy == 0
        for index in range(6):
            engine.submit(KVCommand("put", b"w%d" % index, b"v"))
        assert engine.waiting_occupancy > 0 or engine.active_occupancy > 0


class TestTokenAllocation:
    def test_idle_allocation_positive(self, sim, engine):
        assert engine.allocation_for("tenant") > 0

    def test_retiring_credit_included(self, sim, engine):
        base = engine.allocation_for("tenant")
        with_credit = engine.allocation_for("tenant", retiring_cost=3)
        assert with_credit == base + 3

    def test_weighted_split(self, sim, engine):
        engine.set_tenant_weight("gold", 3.0)
        engine.set_tenant_weight("bronze", 1.0)
        assert engine.allocation_for("gold") > engine.allocation_for("bronze")

    def test_backlog_shrinks_allocation(self, sim, engine):
        idle = engine.allocation_for("t")
        for index in range(8):
            engine.submit(KVCommand("put", b"b%d" % index, b"v"))
        assert engine.allocation_for("t") < idle

    def test_never_negative(self, sim, engine):
        for index in range(8):
            engine.submit(KVCommand("put", b"n%d" % index, b"v"))
        assert engine.allocation_for("t") >= 0


class TestStoreFullRetry:
    def test_put_waits_for_compaction_headroom(self, sim):
        """A PUT arriving at a full value log retries after backoff
        instead of failing (the paper: PUTs 'served slowly'), and the
        engine counts the time it backed off."""
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20,
                                      block_size=512, jitter=0.0),
                      rng=RngRegistry(9))
        store = LeedDataStore(sim, ssd, StoreConfig(
            num_segments=32, key_log_bytes=1 << 20,
            value_log_bytes=128 << 10))
        engine = PartitionIOEngine(sim, store, token_capacity=100,
                                   waiting_capacity=100)

        def filler():
            index = 0
            while True:
                result = yield from store.put(b"f%05d" % index, b"x" * 900)
                if not result.ok:
                    return index
                index += 1

        process = sim.process(filler())
        count = sim.run(until=process)
        assert count > 0

        # Free space asynchronously while the engine retries the put.
        def free_later():
            yield sim.timeout(300)
            store.value_log.advance_head(store.value_log.head + 16384)

        sim.process(free_later())

        def proc():
            result = yield engine.submit(KVCommand("put", b"late", b"y" * 900))
            return result

        result = sim.run(until=sim.process(proc()))
        assert result.ok
        assert (engine.stats.store_full_stall_us
                == 2 * engine.STORE_FULL_BACKOFF_US)


class TestInProcessAdmission:
    """One admission rule: a command with nothing ahead of it and enough
    tokens runs in its caller's process (``execute``); anything else
    queues.  Both ways must keep FCFS order and the same accounting."""

    @staticmethod
    def _twin(tokens=12):
        from repro.sim.core import Simulator
        sim = Simulator()
        ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=32 << 20, block_size=512,
                                      jitter=0.0), rng=RngRegistry(5))
        store = LeedDataStore(sim, ssd, StoreConfig(
            num_segments=32, key_log_bytes=1 << 20, value_log_bytes=4 << 20))
        return sim, PartitionIOEngine(sim, store, token_capacity=tokens,
                                      waiting_capacity=8, name="eng")

    @staticmethod
    def _record_starts(engine):
        starts = []
        original = engine._execute

        def traced(command):
            starts.append((command.key, engine.sim.now))
            return original(command)

        engine._execute = traced
        return starts

    def test_idle_engine_runs_the_command_in_the_callers_process(self):
        sim, engine = self._twin()
        spawned = []
        original = sim.process

        def counting(generator, name=None, **kwargs):
            spawned.append(name)
            return original(generator, name=name, **kwargs)

        sim.process = counting

        def proc():
            put = yield from engine.execute(KVCommand("put", b"k", b"v"))
            assert engine.active_occupancy == 0 and engine.tokens == 12
            got = yield from engine.execute(KVCommand("get", b"k"))
            return put, got

        put, got = drive(sim, proc())
        assert put.ok and got.value == b"v"
        assert spawned == ["test"]        # no .exec process
        assert engine.stats.completed == engine.stats.submitted == 2
        assert engine.stats.peak_waiting == 0
        assert engine.stats.total_wait_us == 0.0

    def test_same_result_and_accounting_as_the_queued_path(self):
        """The same commands, one at a time: ``execute`` on one twin,
        ``submit`` (always through queue, scheduler and executor
        process) on the other."""
        commands = [("put", b"a", b"1"), ("put", b"b", b"2"), ("get", b"a", None),
                    ("del", b"a", None), ("get", b"a", None), ("put", b"a", b"3")]
        outcomes = []
        for in_process in (True, False):
            sim, engine = self._twin()

            def proc():
                results = []
                for slot, (op, key, value) in enumerate(commands):
                    yield sim.timeout(1000.0 * (slot + 1) - sim.now)
                    command = KVCommand(op, key, value)
                    if in_process:
                        result = yield from engine.execute(command)
                    else:
                        result = yield engine.submit(command)
                    assert engine.active_occupancy == 0
                    results.append((result, sim.now))
                return results

            results = drive(sim, proc())
            outcomes.append((results, engine.stats, engine.tokens,
                             engine.store.stats, engine.store.ssd.stats))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1].completed == len(commands)
        assert outcomes[0][1].total_service_us > 0

    def test_arrival_behind_a_queued_command_queues_behind_it(self):
        """Tokens for one PUT only: the second waits in the scheduler
        (mid-admission), so a third arriving later — even a GET that
        would fit no better — must not overtake it."""
        sim, engine = self._twin(tokens=3)
        starts = self._record_starts(engine)

        def proc():
            first = sim.process(engine.execute(KVCommand("put", b"1", b"v")))
            second = sim.process(engine.execute(KVCommand("put", b"2", b"v")))
            yield sim.timeout(1)
            assert engine.active_occupancy == 1 and engine._unadmitted == 1
            third = sim.process(engine.execute(KVCommand("get", b"1")))
            yield sim.all_of([first, second, third])
            return third.value

        assert drive(sim, proc()).value == b"v"
        assert [key for key, _when in starts] == [b"1", b"2", b"1"]
        assert starts[1][1] > 0 and starts[2][1] > starts[1][1]
        assert engine.stats.peak_waiting >= 1
        assert engine.stats.total_wait_us > 0
        assert engine.stats.completed == 3 and engine.tokens == 3

    def test_same_instant_arrival_cannot_overtake_one_just_queued(self):
        """A PUT that finds too few tokens is handed to the scheduler,
        which only resumes an event later; a GET arriving in that very
        instant would fit, and must still queue behind the PUT."""
        sim, engine = self._twin(tokens=5)
        starts = self._record_starts(engine)

        def proc():
            first = sim.process(engine.execute(KVCommand("put", b"1", b"v")))
            yield sim.timeout(1)          # tokens: 2 left
            put = sim.process(engine.execute(KVCommand("put", b"2", b"v")))
            get = sim.process(engine.execute(KVCommand("get", b"1")))
            yield sim.all_of([first, put, get])

        drive(sim, proc())
        assert [key for key, _when in starts] == [b"1", b"2", b"1"]
        assert starts[1][1] > 1.0

    def test_tokens_exhausted_queues_and_token_accounting_balances(self):
        sim, engine = self._twin(tokens=6)
        peak = []

        def one(index):
            result = yield from engine.execute(
                KVCommand("put", b"k%d" % index, b"v"))
            assert result.ok

        def monitor():
            while engine.stats.completed < 7:
                peak.append((engine.active_occupancy, engine.tokens))
                yield sim.timeout(5)

        sim.process(monitor())
        drive(sim, (lambda: (yield sim.all_of(
            [sim.process(one(i)) for i in range(7)])))())
        assert max(active for active, _tokens in peak) == 2
        assert min(tokens for _active, tokens in peak) == 0
        assert engine.tokens == 6 and engine.active_occupancy == 0
        assert engine.stats.completed == 7

    def test_store_error_propagates_to_the_caller_and_retires(self):
        sim, engine = self._twin()

        def proc():
            with pytest.raises(ValueError):
                yield from engine.execute(KVCommand("put", b"k", b""))
            with pytest.raises(ValueError):
                yield from engine.execute(KVCommand("scan", b"k"))
            return engine.tokens, engine.active_occupancy

        assert drive(sim, proc()) == (12, 0)

    def test_traced_command_emits_queue_then_exec_spans(self):
        from repro.obs.spans import Tracer
        sim, engine = self._twin()
        root = Tracer(sim).trace("put", track="test")
        drive(sim, engine.execute(KVCommand("put", b"k", b"v", trace=root)))
        names = [span.name for span in root.tracer.spans]
        assert names.index("engine.queue") < names.index("engine.exec.put")
        queue = next(s for s in root.tracer.spans if s.name == "engine.queue")
        assert queue.end_us == queue.begin_us       # zero-length, present
        assert {"log.commit", "ssd.write"} <= set(names)

    def test_traced_token_wait_is_its_own_span_after_the_queue_span(self):
        from repro.obs.spans import Tracer
        sim, engine = self._twin(tokens=3)
        root = Tracer(sim).trace("put", track="test")

        def proc():
            first = sim.process(engine.execute(KVCommand("put", b"1", b"v")))
            second = sim.process(engine.execute(
                KVCommand("put", b"2", b"v", trace=root)))
            yield sim.all_of([first, second])

        drive(sim, proc())
        spans = {span.name: span for span in root.tracer.spans}
        queue, tokens = spans["engine.queue"], spans["engine.tokens"]
        assert queue.end_us == tokens.begin_us < tokens.end_us
        assert tokens.end_us == spans["engine.exec.put"].begin_us
