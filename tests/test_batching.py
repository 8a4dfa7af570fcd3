"""Fast-datapath semantics: engine admission, token accounting, determinism.

``fast_datapath`` must change how GETs are *simulated* only: results,
ordering, token accounting, and (with the flag off) the event-schedule
digest all have to match the reference pipeline.  (That a workload
without GETs is the same program either way is case (c) of
``tests/test_figure_gate.py``.)
"""

import pytest

from repro.bench.harness import build_cluster, load_cluster, run_closed_loop
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.io_engine import KVCommand, PartitionIOEngine
from repro.core.jbof import LeedOptions
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.workloads.driver import ClosedLoopDriver
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload

from conftest import drive


def make_store(sim, jitter=0.0):
    profile = SSDProfile(capacity_bytes=32 << 20, block_size=512,
                         jitter=jitter)
    ssd = NVMeSSD(sim, profile, rng=RngRegistry(5))
    store = LeedDataStore(sim, ssd, StoreConfig(
        num_segments=64, key_log_bytes=2 << 20, value_log_bytes=8 << 20))
    return store, ssd


class TestEngineBatchedAdmission:
    def _run_burst(self):
        sim = Simulator()
        store, _ssd = make_store(sim)
        engine = PartitionIOEngine(sim, store, token_capacity=6,
                                   waiting_capacity=64, name="eng")

        def proc():
            results = []
            for i in range(16):
                results.append(
                    (yield engine.submit(KVCommand("put", b"k%d" % i,
                                                   b"v%d" % i))))
            gets = []
            for i in range(16):
                gets.append(
                    (yield engine.submit(KVCommand("get", b"k%d" % i))))
            return results, gets

        results, gets = drive(sim, proc())
        return engine, results, gets

    def test_all_commands_complete(self):
        engine, results, gets = self._run_burst()
        assert all(r.ok for r in results)
        assert all(g.ok for g in gets)
        assert [g.value for g in gets] == [b"v%d" % i for i in range(16)]
        assert engine.stats.completed == 32
        # Token pool fully returned once the burst drains.
        assert engine.tokens == engine.token_capacity
        assert engine.active_occupancy == 0


class TestCoalescedRpc:
    def _drive_cluster(self, options):
        cluster = build_cluster("leed", scale="quick", value_size=128,
                                seed=7, options=options)
        workload = YCSBWorkload("B", num_records=80, seed=7, value_size=128)
        load_cluster(cluster, workload, parallelism=16)
        stats = run_closed_loop(cluster, workload, 200, 16)
        cluster.shutdown()
        cluster.sim.run()
        return cluster, stats

    def test_coalescing_batches_and_token_accounting(self):
        """Flow-control token accounting drains cleanly under both
        datapaths: nothing left outstanding or queued once the run
        completes.  (The name predates the removal of RPC coalescing;
        kept so the test id stays stable.)"""
        for options in (None, LeedOptions(fast_datapath=True)):
            cluster, stats = self._drive_cluster(options)
            assert stats.failed == 0
            for client in cluster.clients:
                assert client.flow.queued() == 0
                for view in client.flow.targets.values():
                    assert view.outstanding == 0

    def test_fast_datapath_matches_reference_results(self):
        _off_cluster, off = self._drive_cluster(None)
        _on_cluster, on = self._drive_cluster(
            LeedOptions(fast_datapath=True))
        assert off.failed == 0 and on.failed == 0
        assert on.completed == off.completed


class TestRemovedKnobs:
    def test_coalesce_limit_is_gone_and_admission_batch_is_inert(self):
        with pytest.raises(TypeError):
            LeedOptions(rpc_coalesce_limit=8)
        # Still accepted (the frozen leedbench passes it); nothing reads it.
        LeedOptions(fast_datapath=True, admission_batch=8)


class TestBatchingDeterminism:
    RECORDS = 60
    OPS = 120

    def _model(self, runner, options=None, seed=3, digest=True):
        """Build, load, and drive a small cluster entirely through
        ``runner(sim, until)`` (a callable advancing the simulator),
        so the whole schedule — not just the tail — goes through the
        dispatcher under test.  Returns ``(schedule digest, digest
        events, figures)``; ``figures`` — every op's latency, every
        process resume in dispatch order (instant, process, kind of
        event), and the dispatch count, sequence counter and clock at
        the end — is what a run without the digest can be compared
        by."""
        resumes = []
        resume = Process._resume

        def logged(process, event):
            resumes.append((process.sim.now, process.name,
                            type(event).__name__))
            resume(process, event)

        Process._resume = logged
        try:
            return self._drive(runner, options, seed, digest, resumes)
        finally:
            Process._resume = resume

    def _drive(self, runner, options, seed, digest, resumes):
        cluster = build_cluster("leed", scale="quick", value_size=96,
                                seed=seed, options=options)
        sim = cluster.sim
        if digest:
            sim.enable_schedule_digest()
        workload = YCSBWorkload("B", num_records=self.RECORDS, seed=seed,
                                value_size=96)
        cluster.start()
        loaded = sim.process(
            cluster.load(workload.load_pairs(), parallelism=16),
            name="load")
        runner(sim, loaded)
        share = max(self.OPS // len(cluster.clients), 1)
        history = History()
        drivers = [ClosedLoopDriver(sim, client, workload, share,
                                    concurrency=4, history=history)
                   for client in cluster.clients]
        stats = history.open(sim.now)
        procs = [sim.process(driver.run(), name="drive")
                 for driver in drivers]
        runner(sim, sim.all_of(procs))
        stats.close(sim.now)
        cluster.shutdown()
        runner(sim, None)
        assert stats.completed >= self.OPS and stats.failed == 0
        figures = (tuple(stats.latencies_us), tuple(resumes),
                   sim.events_dispatched, sim._sequence, sim.now)
        return sim.schedule_digest, sim.schedule_digest_events, figures

    def _digest(self, runner, options=None):
        return self._model(runner, options)[:2]

    @staticmethod
    def _run(sim, until):
        sim.run(until=until)

    @staticmethod
    def _step(sim, until):
        """Event-by-event replay through ``step()``.

        Like ``run(until=event)`` it registers as a waiter on the stop
        event and steps until that event has been *processed*, so the
        replay and ``run`` agree on whether a finishing process emits a
        completion event (an unwaited one does not).
        """
        if until is None:
            while True:
                try:
                    sim.step()
                except IndexError:
                    return
        if until.callbacks is not None:
            until.callbacks.append(lambda _event: None)
        while not until.processed:
            sim.step()

    def test_knobs_off_same_seed_digest_stable(self):
        assert self._digest(self._run) == self._digest(self._run)

    def test_run_batch_matches_step_loop_digest(self):
        """``run`` against an event-by-event ``step()`` replay.

        Both call the one dispatch loop, ``step()`` one dispatch at a
        time: ``run`` with the digest off must reproduce the figures,
        dispatch count and sequence numbers of the replay with the
        digest on — and ``run`` with the digest on the replay's
        digest."""
        _none, _zero, ran = self._model(self._run, digest=False)
        digest, events, stepped = self._model(self._step)
        assert ran == stepped
        assert ran[2] == events
        assert self._digest(self._run) == (digest, events)

    def test_knobs_on_same_seed_digest_stable(self):
        """The fast datapath may *differ* from the reference schedule,
        but it must still be deterministic for a fixed seed."""
        options = LeedOptions(fast_datapath=True)
        first = self._digest(self._run, options=options)
        second = self._digest(self._run, options=options)
        assert first == second
