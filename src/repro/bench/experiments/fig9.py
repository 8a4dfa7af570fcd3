"""Figure 9: throughput variation during a node join and leave.

A LEED cluster (replication 3) runs YCSB-A and YCSB-B (1 KB) at a
steady offered load while the control plane first *joins* a new
virtual node and later *leaves* one.  Completed requests are bucketed
into time windows to trace the throughput timeline.

The paper observes 49.1%/15.9% (A/B) throughput drops after join
start and 66.0%/43.9% after leave start — the cost of COPY traffic
competing for tokens and of view-inconsistency NACK retries — with
recovery after each membership operation completes.
"""

from __future__ import annotations

from collections import Counter
from typing import List

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_cluster,
    load_cluster,
    scale_profile,
)
from repro.workloads.driver import OpenLoopDriver
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload


def run(scale: str = QUICK) -> ExperimentResult:
    profile = scale_profile(scale)
    phase_us = 60_000.0 if scale == QUICK else 400_000.0
    bucket_us = phase_us / 8.0
    #: Offered rates near each mix's measured capacity, so COPY
    #: traffic and view-inconsistency NACKs visibly dent throughput.
    rates = {"A": 90_000.0, "B": 540_000.0}
    num_records = profile.num_records * 4
    result = ExperimentResult(
        name="Figure 9: throughput during node join/leave",
        columns=["workload", "bucket_ms", "kqps", "phase"])
    dropped: List[str] = []

    for workload_name in ("A", "B"):
        rate = rates.get(workload_name, 100_000.0)
        workload = YCSBWorkload(workload_name, num_records,
                                value_size=1024, seed=9)
        cluster = build_cluster("leed", scale=scale, seed=9,
                                num_clients=2)
        load_cluster(cluster, workload)
        sim = cluster.sim
        start = sim.now
        history = History()
        # Steady offered load across three phases: baseline, join, leave.
        drivers = [OpenLoopDriver(sim, client, workload,
                                  rate / len(cluster.clients),
                                  duration_us=3.2 * phase_us,
                                  seed=90 + i, history=history)
                   for i, client in enumerate(cluster.clients)]
        procs = [sim.process(d.run(), name="fig9.driver") for d in drivers]

        # Membership operations at phase boundaries.
        def orchestrate():
            yield sim.timeout(phase_us)
            # Join: a new virtual node on an existing JBOF.
            host = cluster.jbofs[0]
            new_vnode_id = host.address + "/pjoin"
            runtime = host._make_vnode(new_vnode_id, host.ssds[-1],
                                       len(host.ssds) - 1,
                                       1, 100)
            host.install_vnode(runtime)
            yield from cluster.control_plane.join_vnode(new_vnode_id,
                                                        host.address)
            yield sim.timeout(phase_us)
            # Leave: the node we just joined departs voluntarily.
            yield from cluster.control_plane.leave_vnode(new_vnode_id)

        sim.process(orchestrate(), name="fig9.orchestrate")
        sim.run(until=sim.all_of(procs))
        dropped.append("YCSB-%s %d" % (workload_name, history.dropped))
        events = {kind: t for t, kind, _ in
                  cluster.control_plane.membership_events}

        # Bucket completions into the timeline.
        buckets = Counter(int((when - start) // bucket_us)
                          for when in history.response_us)
        for bucket_index in sorted(buckets):
            mid = start + (bucket_index + 0.5) * bucket_us
            phase = "steady"
            if events.get("join_start", 1e18) <= mid <= events.get(
                    "join_end", 1e18):
                phase = "joining"
            elif events.get("leave_start", 1e18) <= mid <= events.get(
                    "leave_end", 1e18):
                phase = "leaving"
            elif mid > events.get("leave_end", 1e18):
                phase = "after"
            elif mid > events.get("join_end", 1e18):
                phase = "between"
            result.add(workload="YCSB-" + workload_name,
                       bucket_ms=(bucket_index + 0.5) * bucket_us / 1e3,
                       kqps=buckets[bucket_index] / bucket_us * 1e3,
                       phase=phase)
    result.notes = ("arrivals dropped at the in-flight cap: %s"
                    % ", ".join(dropped))
    return result
