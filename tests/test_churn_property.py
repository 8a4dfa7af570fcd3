"""Property-based churn tests: store + compaction never lose data.

Hypothesis drives random operation sequences against a small store
whose writes keep starting compaction rounds that repack both logs; after the
dust settles, the store must agree exactly with a dict reference.
This is the invariant everything else (replication, COPY, recovery)
builds on.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.compaction import CompactionConfig, Compactor, Trigger
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.hw.ssd import NVMeSSD, SSDProfile
from repro.scenarios import (Phase, Scenario, Segment, inject,
                             run_scenario)
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry


def build(seed, subcompactions=2):
    sim = Simulator()
    ssd = NVMeSSD(sim, SSDProfile(capacity_bytes=16 << 20, block_size=512,
                                  jitter=0.1), rng=RngRegistry(seed))
    store = LeedDataStore(sim, ssd, StoreConfig(
        num_segments=24,
        key_log_bytes=32 << 10,
        value_log_bytes=12 << 10,
        compact_high_watermark=0.6,
        compact_low_watermark=0.3))
    compactor = Compactor(store, CompactionConfig(
        subcompactions=subcompactions))
    store.on_pressure = Trigger(sim, lambda _store: compactor.maintenance())
    return sim, store, compactor


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       key_space=st.integers(min_value=5, max_value=40),
       steps=st.integers(min_value=50, max_value=250))
def test_store_equals_dict_under_compaction_churn(seed, key_space, steps):
    sim, store, compactor = build(seed)
    rng = random.Random(seed)

    def proc():
        shadow = {}
        for step in range(steps):
            key = b"k%03d" % rng.randrange(key_space)
            roll = rng.random()
            if roll < 0.55:
                value = bytes([step % 256]) * rng.randrange(20, 180)
                result = yield from store.put(key, value)
                if result.ok:
                    shadow[key] = value
                else:
                    # Full store: give compaction room and move on.
                    yield sim.timeout(500)
            elif roll < 0.85:
                result = yield from store.get(key)
                if key in shadow:
                    assert result.ok, (step, key, result.status)
                    assert result.value == shadow[key]
                else:
                    assert result.status == "not_found"
            else:
                result = yield from store.delete(key)
                if result.status == "store_full":
                    # As for a PUT: the key stays, compaction gets room.
                    yield sim.timeout(500)
                elif key in shadow:
                    assert result.ok, (step, key, result.status)
                    del shadow[key]
                else:
                    assert result.status == "not_found"
        # Final sweep after churn.
        for key, value in shadow.items():
            result = yield from store.get(key)
            assert result.ok and result.value == value, key
        assert store.live_objects == len(shadow)

    process = sim.process(proc())
    sim.run(until=process)
    # Long runs repack both logs at least once.
    if steps >= 200:
        assert compactor.stats.key_rounds >= 1, compactor.stats
        assert compactor.stats.value_rounds >= 1, compactor.stats


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_concurrent_writers_with_compaction(seed):
    """Several writer processes race the compactor; every key ends up
    holding the value of *some* writer, never garbage."""
    sim, store, _compactor = build(seed, subcompactions=4)
    writers = 4
    rounds = 25
    legal = {b"k%02d" % k: set() for k in range(8)}

    def writer(writer_id):
        rng = random.Random(seed * 10 + writer_id)
        for round_index in range(rounds):
            key = b"k%02d" % rng.randrange(8)
            value = b"w%d-r%d" % (writer_id, round_index)
            legal[key].add(value)
            result = yield from store.put(key, value)
            if not result.ok:
                yield sim.timeout(300)

    procs = [sim.process(writer(w)) for w in range(writers)]
    sim.run(until=sim.all_of(procs))

    def check():
        for key, candidates in legal.items():
            if not candidates:
                continue
            result = yield from store.get(key)
            if result.ok:
                assert result.value in candidates, (key, result.value)

    process = sim.process(check())
    sim.run(until=process)


# -- randomized scenario composition ------------------------------------------
#
# The same property one level up: hypothesis composes whole cluster
# scenarios from the production DSL — random load curves, skew shifts,
# and crash / blackout injections — and every composition must keep
# the acked-write ledger clean.  Compositions are constrained to be
# *recoverable* (a crash is always paired with a later rejoin of the
# same JBOF; blackouts stay below the heartbeat timeout's detection
# horizon only by luck, both paths are legal) so zero lost acked
# writes is the correct expectation, not just a hopeful one.

FAULTS = st.sampled_from(["none", "crash_rejoin", "power_blackout"])


@st.composite
def scenario_compositions(draw):
    """A small, always-recoverable random scenario."""
    rate = draw(st.sampled_from([0.5, 1.0, 1.5]))
    storm_skew = draw(st.one_of(st.none(), st.sampled_from([0.6, 0.95])))
    segments = [Segment(0.0, rate)]
    if storm_skew is not None:
        segments.append(Segment(0.5, rate * 1.5, skew=storm_skew))
    fault = draw(FAULTS)
    jbof = draw(st.integers(min_value=1, max_value=2))
    injections = ()
    if fault == "crash_rejoin":
        crash_at = draw(st.sampled_from([0.1, 0.25]))
        injections = (inject(crash_at, "crash", index=jbof),
                      inject(crash_at + 0.5, "rejoin", index=jbof))
    elif fault == "power_blackout":
        injections = (inject(0.25, "power_blackout", index=jbof,
                             outage_us=draw(st.sampled_from(
                                 [4_000.0, 12_000.0]))),)
    return Scenario(
        name="composed",
        description="hypothesis-composed churn episode",
        workload=draw(st.sampled_from(["A", "B"])),
        phases=(
            Phase("warm", 0.5),
            Phase("churn", 1.5, segments=tuple(segments),
                  injections=injections),
            Phase("cool", 0.5),
        ))


@settings(max_examples=5, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(composed=scenario_compositions(),
       seed=st.integers(min_value=0, max_value=3))
def test_composed_scenarios_never_lose_acked_writes(composed, seed):
    record = run_scenario(scenario=composed, seed=seed)
    invariants = record["invariants"]
    assert invariants["lost_acked_writes"] == 0, invariants["lost_keys"]
    assert invariants["membership_balanced"]
    assert invariants["unrecovered_failures"] == 0
    assert record["totals"]["availability"] > 0.5
