#!/usr/bin/env python3
"""Energy-efficiency shoot-out: the paper's three deployments.

Runs YCSB-B (95% read, Zipf 0.99) against:

* **SmartNIC-LEED** — 3 Stingray JBOFs, the full LEED stack;
* **Server-KVell**  — 3 Xeon server JBOFs running our KVell
  reimplementation (share-nothing workers, B-tree index);
* **Embedded-FAWN** — 10 Raspberry Pi 3B+ nodes running FAWN-KV.

and prints throughput, mean power, and KQueries/Joule side by side —
a miniature of the paper's Figure 5.

Run:  python examples/ycsb_energy_comparison.py
"""

from repro.bench.harness import build_cluster, load_cluster, run_metered
from repro.workloads.ycsb import YCSBWorkload

NUM_RECORDS = 600
NUM_OPS = 1500
VALUE_SIZE = 1024

LABELS = {
    "leed": "SmartNIC-LEED (3x Stingray)",
    "kvell": "Server-KVell  (3x Xeon JBOF)",
    "fawn": "Embedded-FAWN (10x RasPi 3B+)",
}


def main():
    print("YCSB-B, %d B objects, %d preloaded records, R=3" %
          (VALUE_SIZE, NUM_RECORDS))
    print("%-32s %10s %9s %14s" % ("deployment", "KQPS", "watts",
                                   "KQueries/J"))
    rows = []
    for system in ("leed", "kvell", "fawn"):
        workload = YCSBWorkload("B", NUM_RECORDS, value_size=VALUE_SIZE,
                                seed=42)
        cluster = build_cluster(system, value_size=VALUE_SIZE, seed=42)
        load_cluster(cluster, workload)
        time_before = cluster.sim.now
        ops = NUM_OPS if system != "fawn" else NUM_OPS // 6
        stats, energy = run_metered(
            cluster, workload, ops,
            concurrency=144 if system != "fawn" else 24)
        watts = energy / ((cluster.sim.now - time_before) * 1e-6)
        kqpj = stats.completed / energy / 1e3
        rows.append((system, stats.throughput_qps / 1e3, watts, kqpj))
        print("%-32s %10.1f %9.1f %14.3f"
              % (LABELS[system], stats.throughput_qps / 1e3, watts, kqpj))

    leed = next(r for r in rows if r[0] == "leed")
    for system, _kqps, _watts, kqpj in rows:
        if system != "leed":
            print("LEED vs %-6s: %.1fx more queries per Joule"
                  % (system, leed[3] / kqpj))


if __name__ == "__main__":
    main()
