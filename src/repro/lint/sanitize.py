"""Dynamic order-dependence sanitizer.

The model claims that handlers are atomic between scheduling points
and that no code depends on the *accidental* FIFO order of
same-timestamp ties.  This module checks the claim TSan-style: run
the same seeded YCSB workload several times with
``Simulator.enable_tie_permutation(N)`` drawing each next zero-delay
event (process wakeups, ``Event.succeed``) from a named RNG stream
(``sim.sanitize``) instead of FIFO order, and assert that the
**figure digest** — a hash of the run's functional outcome — is
byte-identical across permutations while the *schedule* digests
differ (proving the permutations actually reordered events).

What the figure digest covers, and what it deliberately does not:

* covered — operations completed and failed, and a post-run
  verification sweep: every key the workload ever wrote must read
  back with one of the values actually written to it.  A lost update
  of the CircularLog class (PR 1) or any cross-handler atomicity
  violation shows up here as a mismatch or a digest change.
* excluded — timing aggregates (sim elapsed, latency percentiles).
  The simulated NIC and SSD are stateful FCFS resources, and the SSD
  jitter stream is drawn in dispatch order, so *timing* legitimately
  depends on tie order (measured: YCSB-WR sim-elapsed moves ~24%
  across permutations on the smoke shape) — exactly as two legal
  schedules of a real system finish at different times.  Functional
  results must not.

The permutation covers only that FIFO: same-instant timeouts with a
delay keep their creation order and deliveries their record order, so
an order dependence among those is not driven here (see
``Simulator.enable_tie_permutation``).

Usage::

    python -m repro.lint.sanitize                # YCSB-B, the smoke run shape
    python -m repro.lint.sanitize -w B -w WR     # FIFO + 3 orderings each
    python -m repro.lint.sanitize -w WR --ops 12000   # a compacting run

Exit codes: 0 invariant, 1 order dependence detected.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bench.harness import (RUN_SEED, RUN_SHAPES, RUN_VALUE_SIZE,
                                 build_cluster, load_cluster,
                                 run_closed_loop)
from repro.workloads.ycsb import YCSBWorkload

#: The figure gate's smoke shape, so a sanitized run is a gated run.
SMOKE = RUN_SHAPES["smoke"]


class RecordingWorkload:
    """Wraps a YCSB workload, remembering every value written per key.

    The verification sweep checks membership, not equality: concurrent
    updates to one key may legally land in any order, so the final
    value must be *one of* the written values — any other byte string
    means corruption or a lost/phantom write.  Delete ops drop the
    key (none of the shipped mixes delete, but the wrapper should not
    silently mis-verify one that does).
    """

    def __init__(self, inner):
        self._inner = inner
        self.written: Dict[bytes, Set[bytes]] = {}

    def load_pairs(self):
        for key, value in self._inner.load_pairs():
            self.written.setdefault(key, set()).add(value)
            yield key, value

    def next_operation(self):
        operation = self._inner.next_operation()
        if operation.op == "del":
            self.written.pop(operation.key, None)
        elif operation.value is not None:
            self.written.setdefault(operation.key, set()).add(operation.value)
        return operation

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class SanitizeProbe:
    """One sanitized (or FIFO-baseline) run of the workload."""

    workload: str
    sanitize_seed: Optional[int]     #: None = FIFO baseline order
    ops_completed: int
    ops_failed: int
    keys_checked: int
    keys_verified: int
    mismatches: List[str]            #: keys that read back wrong
    figure_digest: str               #: hash of the functional outcome
    schedule_digest: Optional[str]   #: hash of the dispatch order
    #: Informational only — excluded from the figure digest because
    #: FCFS resource timing legitimately depends on tie order.
    sim_elapsed_us: float = 0.0
    events_dispatched: int = 0

    def format(self) -> str:
        label = ("fifo" if self.sanitize_seed is None
                 else "perm[%d]" % self.sanitize_seed)
        return ("%s %-8s ops=%d failed=%d verified=%d/%d "
                "figure=%s schedule=%s elapsed=%.0fus" % (
                    self.workload, label, self.ops_completed,
                    self.ops_failed, self.keys_verified, self.keys_checked,
                    self.figure_digest[:12],
                    (self.schedule_digest or "-")[:12],
                    self.sim_elapsed_us))


@dataclass
class SanitizeReport:
    """Invariance verdict over one workload's probe set."""

    workload: str
    probes: List[SanitizeProbe] = field(default_factory=list)

    @property
    def figure_invariant(self) -> bool:
        return len({probe.figure_digest for probe in self.probes}) == 1

    @property
    def schedules_permuted(self) -> bool:
        """True when every probe saw a distinct dispatch order."""
        digests = [probe.schedule_digest for probe in self.probes]
        return len(set(digests)) == len(digests)

    @property
    def clean(self) -> bool:
        return (bool(self.probes) and self.figure_invariant
                and self.schedules_permuted
                and all(not probe.mismatches for probe in self.probes))

    def format(self) -> str:
        lines = [probe.format() for probe in self.probes]
        if not self.figure_invariant:
            lines.append("%s: ORDER DEPENDENCE: figure digests differ "
                         "across permutations" % self.workload)
        elif not self.schedules_permuted:
            lines.append("%s: sanitizer ineffective: schedule digests "
                         "collide (ties were not actually permuted)"
                         % self.workload)
        else:
            lines.append("%s: functional outcome invariant across %d "
                         "orderings" % (self.workload, len(self.probes)))
        return "\n".join(lines)


def _figure_digest(payload: Dict[str, object]) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _verification_sweep(cluster, written: Dict[bytes, Set[bytes]]):
    """Generator: read back every written key on client 0."""
    client = cluster.clients[0]
    verified: List[bytes] = []
    mismatches: List[Tuple[bytes, str]] = []
    for key in sorted(written):
        result = yield from client.get(key)
        if not result.ok:
            mismatches.append((key, "status=%s" % result.status))
        elif result.value not in written[key]:
            mismatches.append((key, "value not among %d written values"
                               % len(written[key])))
        else:
            verified.append(key)
    return verified, mismatches


def run_probe(workload_name: str, sanitize_seed: Optional[int],
              records: int = SMOKE["records"], ops: int = SMOKE["ops"],
              concurrency: int = SMOKE["concurrency"],
              num_jbofs: int = SMOKE["num_jbofs"],
              num_clients: int = SMOKE["num_clients"],
              value_size: int = RUN_VALUE_SIZE,
              seed: int = RUN_SEED) -> SanitizeProbe:
    """One seeded run under the given tie order; returns its probe."""
    cluster = build_cluster(
        "leed", scale="quick", value_size=value_size, seed=seed,
        num_nodes=num_jbofs, num_clients=num_clients)
    if sanitize_seed is not None:
        cluster.sim.enable_tie_permutation(sanitize_seed)
    cluster.sim.enable_schedule_digest()
    workload = RecordingWorkload(YCSBWorkload(
        workload_name, num_records=records, seed=seed,
        value_size=value_size))
    load_cluster(cluster, workload, parallelism=16)
    stats = run_closed_loop(cluster, workload, ops, concurrency)
    sweep = cluster.sim.process(
        _verification_sweep(cluster, workload.written), name="sanitize.sweep")
    cluster.sim.run(until=sweep)
    verified, mismatches = sweep.value
    cluster.shutdown()
    cluster.sim.run()
    mismatch_keys = sorted("%s (%s)" % (key.decode("ascii", "replace"),
                                        reason)
                           for key, reason in mismatches)
    figure = {
        "workload": workload_name,
        "records": records,
        "ops_requested": ops,
        "value_size": value_size,
        "seed": seed,
        "ops_completed": stats.completed,
        "ops_failed": stats.failed,
        "keys_checked": len(workload.written),
        "keys_verified": len(verified),
        "mismatches": mismatch_keys,
    }
    return SanitizeProbe(
        workload=workload_name,
        sanitize_seed=sanitize_seed,
        ops_completed=stats.completed,
        ops_failed=stats.failed,
        keys_checked=len(workload.written),
        keys_verified=len(verified),
        mismatches=mismatch_keys,
        figure_digest=_figure_digest(figure),
        schedule_digest=cluster.sim.schedule_digest,
        sim_elapsed_us=stats.elapsed_us,
        events_dispatched=cluster.sim.events_dispatched,
    )


def verify(workload: str = "B", permutations: int = 3,
           include_fifo: bool = True, **shape) -> SanitizeReport:
    """Probe one workload under FIFO plus ``permutations`` tie orders.

    The report is clean when every run produced the same figure
    digest, no verification mismatches, and pairwise-distinct
    schedule digests (the permutation actually happened).
    """
    report = SanitizeReport(workload)
    if include_fifo:
        report.probes.append(run_probe(workload, None, **shape))
    for sanitize_seed in range(1, permutations + 1):
        report.probes.append(run_probe(workload, sanitize_seed, **shape))
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint.sanitize",
        description="Order-dependence sanitizer: permute same-timestamp "
                    "scheduling ties and check figure digests stay put.")
    parser.add_argument("-w", "--workload", action="append",
                        dest="workloads", metavar="NAME",
                        help="YCSB mix to probe (repeatable; default: B)")
    parser.add_argument("--ops", type=int, default=SMOKE["ops"],
                        help="run-phase operations (default: the smoke "
                             "shape's)")
    args = parser.parse_args(argv)

    failures = 0
    for workload in (args.workloads or ["B"]):
        report = verify(workload, ops=args.ops)
        print(report.format())
        if not report.clean:
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
