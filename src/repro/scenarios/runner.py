"""Scenario execution: build a cluster, play the phases, emit a record.

:func:`run_scenario` is the single entry point the CLI, the examples,
and the golden-run tests all share.  It deterministically:

1. builds a :class:`~repro.core.cluster.LeedCluster` from the
   :class:`~repro.scenarios.dsl.ScenarioScale` (tight scenario
   heartbeats, schedule digests on),
2. preloads the keyspace,
3. runs every phase — per-client :class:`CurveDriver` traffic plus the
   phase's scheduled injections, with
   :meth:`~repro.obs.metrics.MetricsRegistry.set_phase` tagging the
   metrics stream,
4. settles, then reads back every acked key and judges the reads
   with :func:`~repro.scenarios.load.judge` to count lost acked
   writes (the headline invariant: must be zero) — traffic and sweep
   are rows of one :class:`~repro.workloads.history.History`,
5. emits one ``BENCH_scenarios.json``-style record with availability,
   p99-under-churn, recovery timings (failover + power-loss WAL
   replay), energy/op, membership-event accounting, a metrics row per
   phase end (gauges, latency histograms and every
   :func:`repro.telemetry.counters` name), and figure / schedule
   digests.

Determinism contract: the same (scenario, scale, seed, protocol)
tuple produces a byte-identical record — asserted by
``tests/test_scenarios.py`` against committed goldens.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple, Union

from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.jbof import LeedOptions
from repro.core.protocol import ReadPolicy
from repro.scenarios.autoscaler import Autoscaler
from repro.scenarios.dsl import (SCALES, Scenario, ScenarioScale,
                                 build_scenario)
from repro.scenarios.injectors import ACTIONS
from repro.scenarios.load import (CurveDriver, WriteLedger, judge,
                                  key_writes)
from repro.sim.rng import RngRegistry
from repro.workloads.driver import Driver
from repro.workloads.history import SUCCESS, History, Window, percentile
from repro.workloads.ycsb import YCSBWorkload

#: Sweep reads retry transient failures this many times before the
#: key is judged (the cluster has settled by then; retries
#: only paper over a mid-sweep stray timeout, not real data loss).
SWEEP_RETRIES = 3


def canonical_json(payload) -> str:
    """Stable serialization used for figure digests and artifacts."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class ScenarioRuntime:
    """Mutable state shared by drivers, injectors, and the autoscaler
    during one scenario run."""

    def __init__(self, cluster: LeedCluster, scenario: Scenario,
                 scale: ScenarioScale, seed: int):
        self.cluster = cluster
        self.sim = cluster.sim
        self.scenario = scenario
        self.scale = scale
        self.seed = seed
        self.rng = RngRegistry(seed)
        self.ledger = WriteLedger(scale.value_size)
        self.history = History()
        self.notes: List[dict] = []
        self.power_recoveries: List[dict] = []
        self.phases: List[Tuple[str, Window]] = []
        self.traffic: Optional[Window] = None
        self.autoscaler: Optional[Autoscaler] = None
        self.stopping = False
        self.verdicts: Dict[bytes, str] = {}

    # -- services for injectors / the autoscaler ---------------------------

    def note(self, kind: str, **fields) -> None:
        """Log one scenario event into the record's ``events`` list."""
        entry = {"t_us": self.sim.now, "event": kind}
        entry.update(fields)
        self.notes.append(entry)

    def record_power_recovery(self, index: int, started_us: float,
                              outage_us: float, report: dict) -> None:
        """File a power-blackout recovery report (from the injector)."""
        self.power_recoveries.append({
            "jbof": index,
            "failed_at_us": started_us,
            "outage_us": outage_us,
            "report": report,
        })

    def recent_p99(self) -> Optional[float]:
        """p99 over the last 1 024 rows (None before 32)."""
        if len(self.history) < 32:
            return None
        return percentile([response - invoke for invoke, response in zip(
            self.history.invoke_us[-1024:], self.history.response_us[-1024:])],
            0.99)

    # -- execution ---------------------------------------------------------

    def execute(self) -> dict:
        sim, cluster, scale, scenario = (self.sim, self.cluster,
                                         self.scale, self.scenario)
        metrics = cluster.metrics
        metrics.register_gauge(
            "ring_version", lambda: cluster.control_plane.ring_version)
        # Scale-in retires a node's vnodes but keeps the husk in
        # cluster.jbofs (injector indices stay stable), so "active"
        # means hosting at least one vnode.
        metrics.register_gauge(
            "num_jbofs",
            lambda: sum(1 for node in cluster.jbofs if node.vnodes))
        metrics.register_gauge("energy_joules", cluster.energy_joules)
        cluster.start()

        preload = YCSBWorkload(
            scenario.workload, scale.num_records,
            value_size=scale.value_size, skew=scenario.skew, seed=self.seed)
        done = sim.process(cluster.load(list(preload.load_pairs())),
                           name="scenario.preload")
        sim.run(until=done)

        if scenario.autoscaler is not None:
            self.autoscaler = Autoscaler(self, scenario.autoscaler)
            sim.process(self.autoscaler.run(), name="scenario.autoscaler")

        self.traffic = self.history.open(sim.now)
        for phase_index, phase in enumerate(scenario.phases):
            metrics.set_phase(phase.name)
            window = self.history.open(sim.now)
            duration = phase.duration * scale.phase_unit_us
            procs = []
            for client_index in range(len(cluster.clients)):
                driver = CurveDriver(self, phase, phase_index, client_index)
                procs.append(sim.process(
                    driver.run(),
                    name="scenario.%s.c%d" % (phase.name, client_index)))
            for inj_index, injection in enumerate(phase.injections):
                procs.append(sim.process(
                    self._inject(injection, duration),
                    name="scenario.%s.inject%d" % (phase.name, inj_index)))
            sim.run(until=sim.all_of(procs))
            self.phases.append((phase.name, window.close(sim.now)))
            metrics.sample_now()
        self.traffic.close(sim.now)
        metrics.set_phase(None)
        # Traffic is over: stop the autoscaler *before* the settle
        # window, or it reacts to its own scale-in churn (leave-COPY
        # latency spikes) with a pointless last-second scale-out.
        self.stopping = True

        if scale.settle_us > 0:
            sim.run(until=sim.now + scale.settle_us)

        sweep = sim.process(self._sweep(), name="scenario.sweep")
        sim.run(until=sweep)

        record = self._assemble_record()
        cluster.shutdown()
        sim.run()   # drain the heap so the digest covers everything
        record["digests"] = {
            "figure": hashlib.sha256(
                canonical_json(record).encode("ascii")).hexdigest(),
            "schedule": sim.schedule_digest,
        }
        return record

    def _inject(self, injection, duration_us: float):
        yield self.sim.timeout(injection.frac * duration_us)
        action = ACTIONS.get(injection.action)
        if action is None:
            raise KeyError("unknown injection action %r (have: %s)"
                           % (injection.action, ", ".join(sorted(ACTIONS))))
        yield from action(self, **injection.kwargs())

    def _sweep(self):
        """Generator: read back every acked key and judge the reads."""
        sweeper = Driver(self.sim, self.cluster.clients[0], self.history)
        start = len(self.history)
        for key, (_, acked, _) in sorted(
                key_writes(self.history, start).items()):
            if acked is None:
                continue
            for _ in range(SWEEP_RETRIES):
                result = yield from sweeper.execute("get", key)
                if result.status in SUCCESS:
                    break
        self.verdicts = judge(self.history, start)

    # -- record assembly ---------------------------------------------------

    def _assemble_record(self) -> dict:
        cluster, scale, scenario = self.cluster, self.scale, self.scenario
        events = list(cluster.control_plane.membership_events)
        event_counts: Dict[str, int] = {}
        for _, kind, _ in events:
            event_counts[kind] = event_counts.get(kind, 0) + 1

        failover = []
        pending: Dict[str, List[float]] = {}
        for t_us, kind, ident in events:
            if kind == "failure":
                pending.setdefault(ident, []).append(t_us)
            elif kind == "recovered" and pending.get(ident):
                started = pending[ident].pop(0)
                failover.append({
                    "address": ident,
                    "detected_at_us": started,
                    "recovered_at_us": t_us,
                    "recovery_us": t_us - started,
                })
        unrecovered = sum(len(v) for v in pending.values())

        totals = self.traffic.summary()
        energy = cluster.energy_joules()
        completed = cluster.total_completed_requests()
        history, traffic_end = self.history, self.traffic.stop
        verdicts = list(self.verdicts.values())

        record = {
            "scenario": scenario.name,
            "description": scenario.description,
            "scale": scale.name,
            "seed": self.seed,
            "protocol": cluster.config.replication_protocol,
            "workload": scenario.workload,
            "phases": [dict(window.summary(), name=name)
                       for name, window in self.phases],
            "totals": {
                **{field: totals[field] for field in (
                    "issued", "ok", "failed", "dropped", "availability",
                    "p50_us", "p99_us")},
                "elapsed_us": totals["duration_us"],
                "energy_joules": round(energy, 6),
                "energy_per_op_uj": round(energy / completed * 1e6, 3)
                if completed else 0.0,
                "requests_per_joule": round(completed / energy, 3)
                if energy > 0 else 0.0,
            },
            "invariants": {
                "lost_acked_writes": verdicts.count("lost"),
                "lost_keys": [key.decode("ascii") for key, verdict
                              in self.verdicts.items() if verdict == "lost"],
                "acked_keys_checked": len(verdicts),
                "indeterminate_reads": verdicts.count("indeterminate"),
                "racy_keys": sum(racy for _, _, racy in
                                 key_writes(history, traffic_end).values()),
                "acked_writes": sum(
                    1 for row in range(traffic_end)
                    if history.op[row] == "put"
                    and history.status[row] == "ok"),
                "membership_balanced":
                    event_counts.get("join_start", 0)
                    == event_counts.get("join_end", 0)
                    and event_counts.get("leave_start", 0)
                    == event_counts.get("leave_end", 0),
                "unrecovered_failures": unrecovered,
                "ring_version": cluster.control_plane.ring_version,
            },
            "recovery": {
                "failover": failover,
                "power": self.power_recoveries,
            },
            "membership_event_counts": event_counts,
            "events": self.notes,
            "metrics": cluster.metrics.bench_records(scenario.name),
        }
        if self.autoscaler is not None:
            record["autoscaler"] = {
                "decisions": self.autoscaler.decisions,
                "final_num_jbofs": sum(
                    1 for node in cluster.jbofs if node.vnodes),
            }
        return record


def run_scenario(name: Optional[str] = None, scale: Union[str, ScenarioScale] = "smoke",
                 seed: int = 0, replication_protocol: Optional[str] = None,
                 read_policy: Optional[ReadPolicy] = None,
                 trace_sample_interval: int = 0,
                 scenario: Optional[Scenario] = None) -> dict:
    """Run one scenario end to end; returns its BENCH record.

    ``scenario`` lets callers (property tests) pass an ad-hoc
    :class:`Scenario` instead of a catalog name.  ``read_policy`` / ``scale``
    / ``replication_protocol`` override the scenario's defaults.
    """
    if scenario is None:
        if name is None:
            raise ValueError("pass a scenario name or a Scenario object")
        scenario = build_scenario(name)
    if isinstance(scale, str):
        if scale not in SCALES:
            raise KeyError("unknown scale %r (have: %s)"
                           % (scale, ", ".join(sorted(SCALES))))
        scale = SCALES[scale]
    protocol = (replication_protocol or scenario.replication_protocol
                or "chain")
    overrides = dict(
        num_jbofs=scale.num_jbofs,
        ssds_per_jbof=scale.ssds_per_jbof,
        vnodes_per_ssd=scale.vnodes_per_ssd,
        num_clients=scale.num_clients,
        replication=min(3, scale.num_jbofs * scale.ssds_per_jbof
                        * scale.vnodes_per_ssd),
        options=LeedOptions(heartbeat_period_us=scale.heartbeat_period_us),
        replication_protocol=protocol,
        seed=seed,
        heartbeat_timeout_us=scale.heartbeat_timeout_us,
        trace_sample_interval=trace_sample_interval,
    )
    if read_policy is not None:
        overrides["read_policy"] = read_policy
    overrides.update(dict(scenario.config_overrides))
    config = ClusterConfig.from_overrides(**overrides)
    cluster = LeedCluster(config)
    cluster.sim.enable_schedule_digest()
    for client in cluster.clients:
        client.request_timeout_us = scale.request_timeout_us
    runtime = ScenarioRuntime(cluster, scenario, scale, seed)
    record = runtime.execute()
    if trace_sample_interval:
        record["trace_spans"] = len(cluster.tracer.spans)
        record["_tracer"] = cluster.tracer
    return record
