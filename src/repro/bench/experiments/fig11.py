"""Figure 11: GET/PUT/DEL latency breakdown (SSD vs CPU+MEM).

The appendix figure: per-command mean latency split into device time
and everything else, for 256 B and 1 KB objects, on an unloaded LEED
store.  The paper finds SSD accesses dominate (~97 %), and PUT adds
only ~10 µs over GET despite its third NVMe access because the first
two accesses overlap.
"""

from __future__ import annotations

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_single_store,
    preload_store,
)
from repro.sim.rng import derive_stream
from repro.workloads.ycsb import make_key, make_value


def run(scale: str = QUICK) -> ExperimentResult:
    num_records = 300 if scale == QUICK else 1500
    ops_per_kind = 150 if scale == QUICK else 1000
    result = ExperimentResult(
        name="Figure 11: command latency breakdown (unloaded LEED store)",
        columns=["command", "value_size", "total_us", "ssd_us",
                 "cpu_mem_us", "ssd_pct"])

    for value_size in (1024, 256):
        single = build_single_store("leed", value_size=value_size, seed=11)
        preload_store(single, num_records, value_size)
        rng = derive_stream(99, "bench.fig11")
        sums = {op: [0.0, 0.0, 0.0, 0] for op in ("GET", "PUT", "DEL")}

        def bench():
            for index in range(ops_per_kind):
                key = make_key(rng.randrange(num_records))
                get = yield from single.store.get(key)
                _tally(sums["GET"], get)
                put = yield from single.store.put(
                    key, make_value(rng, value_size))
                _tally(sums["PUT"], put)
            # Deletions last (fresh keys so DELs always hit).
            for index in range(ops_per_kind):
                key = make_key(index % num_records)
                dele = yield from single.store.delete(key)
                if dele.status == "ok":
                    _tally(sums["DEL"], dele)

        process = single.sim.process(bench(), name="fig11")
        single.sim.run(until=process)

        for command in ("GET", "PUT", "DEL"):
            total, ssd, cpu, count = sums[command]
            if not count:
                continue
            result.add(command=command, value_size=value_size,
                       total_us=total / count, ssd_us=ssd / count,
                       cpu_mem_us=cpu / count,
                       ssd_pct=100.0 * ssd / total if total else 0.0)
    result.notes = ("Paper: SSD accesses dominate (97.4%/97.6% for "
                    "256B/1KB); PUT adds ~10.5us over GET.")
    return result


def _tally(accumulator, op_result) -> None:
    accumulator[0] += op_result.total_us
    accumulator[1] += op_result.ssd_us
    accumulator[2] += op_result.cpu_us
    accumulator[3] += 1
