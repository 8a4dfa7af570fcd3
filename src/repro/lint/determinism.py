"""Runtime determinism verifier.

The static rules catch the leak *patterns*; this harness checks the
property itself: a seeded cluster workload, run twice, must execute
the exact same event schedule.  The schedule is captured as a SHA-256
over ``(time, priority, sequence, event-kind)`` of every event the
simulator pops (:meth:`repro.sim.core.Simulator.enable_schedule_digest`),
alongside the rendered telemetry snapshot.  Identical seeds must give
byte-identical digests and telemetry; distinct seeds must diverge.

Run it directly::

    python -m repro.lint.determinism [--seed N] [--alt-seed M]
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import telemetry
from repro.core.cluster import ClusterConfig, LeedCluster
from repro.core.datastore import StoreConfig
from repro.workloads.driver import ClosedLoopDriver, drive
from repro.workloads.history import History
from repro.workloads.ycsb import YCSBWorkload


@dataclass(frozen=True)
class ProbeResult:
    """One instrumented cluster run."""

    seed: int
    digest: str
    events: int
    final_time_us: float
    telemetry_report: str


def run_probe(seed: int = 0, workload: str = "A", num_records: int = 120,
              num_ops: int = 240, value_size: int = 128) -> ProbeResult:
    """Build a small LEED cluster, load it, drive it, digest it."""
    cluster = LeedCluster(ClusterConfig(
        num_jbofs=2, ssds_per_jbof=2, num_clients=2, replication=2,
        store=StoreConfig(num_segments=64, key_log_bytes=1 << 20,
                          value_log_bytes=4 << 20),
        seed=seed))
    cluster.sim.enable_schedule_digest()
    mix = YCSBWorkload(workload, num_records, value_size=value_size,
                       seed=seed)
    cluster.start()
    loaded = cluster.sim.process(
        cluster.load(mix.load_pairs(), parallelism=16),
        name="determinism.load")
    cluster.sim.run(until=loaded)
    history = History()
    drive(cluster.sim, [
        ClosedLoopDriver(cluster.sim, client, mix,
                         max(num_ops // len(cluster.clients), 1),
                         concurrency=8, history=history)
        for client in cluster.clients
    ], name="determinism.drive")
    return ProbeResult(
        seed=seed,
        digest=cluster.sim.schedule_digest,
        events=cluster.sim.schedule_digest_events,
        final_time_us=cluster.sim.now,
        telemetry_report=telemetry.render(cluster),
    )


@dataclass(frozen=True)
class DeterminismReport:
    """Same-seed replay and cross-seed divergence, in one verdict."""

    first: ProbeResult
    replay: ProbeResult
    alternate: ProbeResult

    @property
    def replay_identical(self) -> bool:
        return (self.first.digest == self.replay.digest
                and self.first.events == self.replay.events
                and self.first.telemetry_report == self.replay.telemetry_report)

    @property
    def seeds_diverge(self) -> bool:
        return self.first.digest != self.alternate.digest

    @property
    def ok(self) -> bool:
        return self.replay_identical and self.seeds_diverge

    def format(self) -> str:
        lines = [
            "determinism probe: seed=%d events=%d t=%.1fus"
            % (self.first.seed, self.first.events, self.first.final_time_us),
            "  run A digest: %s" % self.first.digest,
            "  run B digest: %s" % self.replay.digest,
            "  seed=%d digest: %s" % (self.alternate.seed,
                                      self.alternate.digest),
            "  same-seed replay identical: %s" % self.replay_identical,
            "  distinct seeds diverge:     %s" % self.seeds_diverge,
            "verdict: %s" % ("deterministic" if self.ok
                             else "NONDETERMINISTIC"),
        ]
        return "\n".join(lines)


def verify(seed: int = 0, alt_seed: int = 1,
           **probe_kwargs) -> DeterminismReport:
    """Run the probe twice at ``seed`` and once at ``alt_seed``."""
    if seed == alt_seed:
        raise ValueError("seed and alt_seed must differ")
    return DeterminismReport(
        first=run_probe(seed=seed, **probe_kwargs),
        replay=run_probe(seed=seed, **probe_kwargs),
        alternate=run_probe(seed=alt_seed, **probe_kwargs),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.determinism",
        description="Verify same-seed replay determinism of the "
                    "simulated cluster.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--alt-seed", type=int, default=1)
    parser.add_argument("--ops", type=int, default=240)
    parser.add_argument("--records", type=int, default=120)
    args = parser.parse_args(argv)
    if args.seed == args.alt_seed:
        parser.error("--seed and --alt-seed must differ")
    report = verify(seed=args.seed, alt_seed=args.alt_seed,
                    num_ops=args.ops, num_records=args.records)
    print(report.format())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
