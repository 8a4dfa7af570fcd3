"""Ablation: chain replication vs CRAQ-style queries vs ABD quorums.

The pluggable protocol layer (:mod:`repro.core.replication`) makes the
paper's chain/CRRS design directly comparable to two classic
alternatives on identical hardware and workloads:

* ``chain`` — LEED's chain with CRRS request shipping (§3.7);
* ``craq``  — the same chain, dirty reads resolved by version query;
* ``abd``   — ABD majority quorums (no chain, two-phase writes,
  quorum reads with read repair).

Two measurements per protocol:

1. *Steady state* — YCSB-B closed loop: throughput, tail latency, and
   energy per operation (the JBOF power models run regardless of
   protocol, so µJ/op exposes ABD's extra quorum round trips).
2. *Recovery* — a fig9-style churn run (a vnode joins mid-stream)
   during which one JBOF fail-stops and later heals; the WAL replay
   that re-establishes its unacknowledged writes is timed via
   ``node.wal_recovery``.

Run it with ``python -m repro.bench run ablation_replication``.
"""

from __future__ import annotations

from repro import telemetry
from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    run_metered,
    scale_profile,
)
from repro.core.replication import protocol_names
from repro.workloads.driver import OpenLoopDriver
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload

SEED = 23


def _steady_state(protocol: str, scale: str) -> dict:
    """Closed-loop YCSB-B: kqps, p99, and energy per op."""
    profile = scale_profile(scale)
    workload = YCSBWorkload("B", profile.num_records, value_size=1024,
                            seed=SEED)
    cluster = build_cluster("leed", scale=scale, seed=SEED,
                            replication_protocol=protocol)
    load_cluster(cluster, workload)
    stats, energy = run_metered(cluster, workload, profile.num_ops,
                                profile.concurrency)
    counters = telemetry.counters(cluster)
    return {
        "kqps": stats.throughput_qps / 1e3,
        "p99_ms": stats.percentile_us(0.99) / 1e3,
        "uj_per_op": energy / max(stats.completed, 1) * 1e6,
        "extra_bytes": (counters["vnode.quorum_bytes"]
                        + counters["vnode.version_query_bytes"]),
    }


def _recovery(protocol: str, scale: str) -> dict:
    """Fig9-style churn with a crash: WAL replay time and counts.

    While an open-loop YCSB-A stream runs, a new vnode joins (COPY
    traffic and view churn, as in Figure 9), one JBOF fail-stops
    mid-churn, and heals a phase later.  Any write the crashed node
    had journaled but not yet retired is replayed on :meth:`recover`;
    the report row times that replay.
    """
    profile = scale_profile(scale)
    phase_us = 60_000.0 if scale == QUICK else 400_000.0
    workload = YCSBWorkload("A", profile.num_records, value_size=1024,
                            seed=SEED)
    cluster = build_cluster("leed", scale=scale, seed=SEED,
                            num_clients=2,
                            replication_protocol=protocol)
    load_cluster(cluster, workload)
    sim = cluster.sim
    victim = cluster.jbofs[1]
    history = History()
    drivers = [OpenLoopDriver(sim, client, workload,
                              45_000.0 / len(cluster.clients),
                              duration_us=3.0 * phase_us,
                              seed=SEED + i, history=history)
               for i, client in enumerate(cluster.clients)]
    procs = [sim.process(d.run(), name="ablation.driver")
             for d in drivers]

    def orchestrate():
        yield sim.timeout(phase_us)
        host = cluster.jbofs[0]
        new_vnode_id = host.address + "/pjoin"
        host.add_vnode(new_vnode_id, len(host.ssds) - 1, 1, 100)
        joining = sim.process(
            cluster.control_plane.join_vnode(new_vnode_id, host.address),
            name="ablation.join")
        yield sim.timeout(phase_us * 0.25)
        victim.crash()
        yield sim.timeout(phase_us)
        victim.recover()
        yield joining

    sim.process(orchestrate(), name="ablation.orchestrate")
    sim.run(until=sim.all_of(procs))
    # Let replay (and any trailing repair traffic) drain.
    sim.run(until=sim.now + 2.0 * phase_us)
    row = {"recovery_ms": 0.0, "replayed": 0, "skipped": 0, "failed": 0,
           "dropped": history.dropped}
    report = victim.wal_recovery
    if report is not None and report["completed_at_us"] is not None:
        row.update(recovery_ms=(report["completed_at_us"]
                                - report["started_at_us"]) / 1e3,
                   replayed=report["replayed"], skipped=report["skipped"],
                   failed=report["failed"])
    return row


def run(scale: str = QUICK) -> ExperimentResult:
    result = ExperimentResult(
        name="Ablation: replication protocol — chain vs craq vs abd",
        columns=["protocol", "kqps", "p99_ms", "uj_per_op",
                 "extra_bytes", "recovery_ms", "replayed", "skipped",
                 "dropped"])
    for protocol in protocol_names():
        row = {"protocol": protocol}
        row.update(_steady_state(protocol, scale))
        row.update(_recovery(protocol, scale))
        row.pop("failed", None)
        result.add(**row)
    result.notes = ("extra_bytes counts quorum/version-query wire "
                    "traffic; recovery_ms times WAL replay after a "
                    "mid-churn fail-stop; dropped counts its open-loop "
                    "arrivals refused at the in-flight cap.")
    return result

