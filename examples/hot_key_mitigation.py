#!/usr/bin/env python3
"""Hot-key mitigation: CRRS request shipping under a hot-key storm.

A thin wrapper over the production-scenario library
(:mod:`repro.scenarios`): the catalog's ``hot_key_storm`` — a
write-heavy workload whose Zipf skew deepens mid-run — runs twice on
identical clusters, once with plain chain replication (every dirty
read ships to the chain tail and stays there) and once with CRRS
(§3.7: any *clean* replica serves, token-aware selection spreads the
celebrity keys across the chain).

Run:  python examples/hot_key_mitigation.py
"""

from repro.core.protocol import ReadPolicy
from repro.scenarios import run_scenario


def main():
    print("hot_key_storm scenario, plain chain vs CRRS\n")
    print("%-22s %10s %10s %10s %8s" % ("mode", "storm KQPS", "p50 us",
                                        "p99 us", "avail"))
    records = {}
    for crrs in (False, True):
        record = run_scenario(
            "hot_key_storm",
            read_policy=ReadPolicy.CRRS if crrs else ReadPolicy.TAIL)
        assert record["invariants"]["lost_acked_writes"] == 0
        storm = next(p for p in record["phases"] if p["name"] == "storm")
        label = "CRRS (ship + tokens)" if crrs else "plain chain (tail)"
        print("%-22s %10.1f %10.1f %10.1f %8.4f"
              % (label, storm["throughput_qps"] / 1e3, storm["p50_us"],
                 storm["p99_us"], record["totals"]["availability"]))
        records[crrs] = record
    print("\nCRRS spreads a hot key's reads over every clean replica "
          "instead of its tail")
    return records


if __name__ == "__main__":
    main()
