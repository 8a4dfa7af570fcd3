#!/usr/bin/env python3
"""Failure handling demo: crash a JBOF mid-workload and keep serving.

A thin wrapper over the production-scenario library
(:mod:`repro.scenarios`).  The episode — fail-stop crash, heartbeat
detection, COPY re-replication from surviving chain tails (§3.8), and
the eventual rejoin — is a declarative :class:`Scenario`; the
availability and lost-acked-write accounting are the library's reads
of the run history instead of demo-local bookkeeping.

Run:  python examples/failover_demo.py
"""

from repro.scenarios import Phase, Scenario, inject, run_scenario


def build() -> Scenario:
    """Crash JBOF 1 under write-heavy load, then bring it back."""
    return Scenario(
        name="failover_demo",
        description="Fail-stop crash, detection, re-replication, rejoin",
        workload="A",
        phases=(
            Phase("warm", 0.5),
            Phase("crash_and_recover", 1.5, injections=(
                inject(0.15, "crash", index=1),
                inject(0.70, "rejoin", index=1))),
            Phase("steady_state", 0.5),
        ))


def main():
    record = run_scenario(scenario=build())
    totals, invariants = record["totals"], record["invariants"]
    print("availability under churn: %.4f (p99 %.1f us)"
          % (totals["availability"], totals["p99_us"]))
    for event in record["recovery"]["failover"]:
        print("failover of %s: detected t=%.1f ms, re-replicated in %.1f ms"
              % (event["address"], event["detected_at_us"] / 1e3,
                 event["recovery_us"] / 1e3))
    print("lost acked writes: %d (checked %d acked keys)"
          % (invariants["lost_acked_writes"],
             invariants["acked_keys_checked"]))
    assert invariants["lost_acked_writes"] == 0, "data loss!"

    print("\nscenario timeline:")
    for note in record["events"]:
        detail = {k: v for k, v in note.items() if k not in ("t_us", "event")}
        print("  t=%8.1f ms  %-18s %s" % (note["t_us"] / 1e3, note["event"],
                                          detail or ""))
    print("final ring version: %d" % invariants["ring_version"])
    return record


if __name__ == "__main__":
    main()
