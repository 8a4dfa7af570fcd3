#!/usr/bin/env python3
"""Quickstart: a 3-JBOF LEED cluster serving GET/PUT/DEL.

Builds the paper's testbed topology — three Stingray PS1100R SmartNIC
JBOFs behind a 100 GbE ToR switch, replication factor 3 — loads a few
keys through the front-end library, and exercises reads, overwrites,
and deletes while printing latency and energy figures.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, LeedCluster, StoreConfig
from repro.telemetry import counters, render


def main():
    cluster = LeedCluster(ClusterConfig(
        num_jbofs=3,
        ssds_per_jbof=2,
        num_clients=1,
        replication=3,
        store=StoreConfig(num_segments=128,
                          key_log_bytes=2 << 20,
                          value_log_bytes=8 << 20),
    ))
    cluster.start()
    sim = cluster.sim
    client = cluster.clients[0]

    def application():
        # Write a handful of objects (each PUT traverses a 3-node
        # chain and is committed by the tail before the reply).
        for index in range(10):
            result = yield from client.put(b"user%04d" % index,
                                           b"profile-data-%04d" % index)
            assert result.ok, result.status
        print("wrote 10 objects, last PUT latency %.1f us"
              % result.latency_us)

        # Read them back — CRRS may serve each read from any clean
        # replica, chosen by available tokens.
        for index in range(10):
            result = yield from client.get(b"user%04d" % index)
            assert result.ok
            assert result.value == b"profile-data-%04d" % index
        print("read 10 objects, last GET latency %.1f us (served by %s)"
              % (result.latency_us, result.served_by))

        # Overwrite and delete.
        yield from client.put(b"user0000", b"updated")
        updated = yield from client.get(b"user0000")
        assert updated.value == b"updated"
        yield from client.delete(b"user0001")
        missing = yield from client.get(b"user0001")
        assert missing.status == "not_found"
        print("overwrite + delete verified")
        return client.stats

    process = sim.process(application(), name="quickstart")
    stats = sim.run(until=process)

    print()
    print("operations: %d ok, %d not_found, mean latency %.1f us, "
          "p99 %.1f us"
          % (stats.ok, stats.not_found, stats.mean_latency_us(),
             stats.percentile_latency_us(0.99)))
    report = cluster.energy_report("quickstart")
    print("cluster energy: %.3f J over %.1f ms (%.1f W mean)"
          % (report.energy_joules, report.elapsed_us / 1e3,
             report.mean_power_w))

    print()
    print("telemetry:")
    print(render(cluster))
    totals = counters(cluster)
    print()
    print("replication counters: %s"
          % ", ".join("%s=%d" % (name, totals[name]) for name in (
              "vnode.writes_forwarded", "vnode.writes_committed",
              "vnode.reads_shipped", "wal.appended", "wal.acked")))


if __name__ == "__main__":
    main()
