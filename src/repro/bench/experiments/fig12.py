"""Figure 12: throughput varying with the PUT percentage.

Single-node throughput as the PUT fraction sweeps 0% → 100%, for
LEED (on Stingray hardware) and the FAWN datastore (on Raspberry Pi
hardware, as deployed).  The paper's observation: LEED drops mildly
as PUTs rise (~3% per +10% PUT); FAWN *rises*, because its
log-structured design makes PUTs (sequential appends) faster than
GETs on its SD-card medium.
"""

from __future__ import annotations

from repro.bench.harness import (
    QUICK,
    ExperimentResult,
    build_single_store,
    drive_store,
    preload_store,
)
from repro.workloads.ycsb import YCSBWorkload

PUT_FRACTIONS = (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0)


class MixWorkload(YCSBWorkload):
    """A custom read/update mix at an arbitrary PUT fraction."""

    def __init__(self, put_fraction: float, num_records: int,
                 value_size: int, seed: int = 0):
        super().__init__("A", num_records, value_size=value_size,
                         distribution="uniform", seed=seed)
        self.put_fraction = put_fraction

    def next_operation(self):
        from repro.workloads.ycsb import Operation, make_value
        if self.rng.random() < self.put_fraction:
            return Operation("put", self._existing_key(),
                             make_value(self.rng, self.value_size))
        return Operation("get", self._existing_key())


def run(scale: str = QUICK) -> ExperimentResult:
    num_records = 250 if scale == QUICK else 1200
    num_ops = 800 if scale == QUICK else 5000
    result = ExperimentResult(
        name="Figure 12: throughput vs PUT fraction",
        columns=["system", "put_pct", "kqps"])

    for system, platform, value_size_list in (
            ("leed", "stingray", (1024, 256)),
            ("fawn", "pi", (1024, 256))):
        for value_size in value_size_list:
            for put_fraction in PUT_FRACTIONS:
                single = build_single_store(system, value_size=value_size,
                                            platform=platform, seed=12,
                                            block_size=(4096 if platform == "pi"
                                                        else 512))
                preload_store(single, num_records, value_size)
                workload = MixWorkload(put_fraction, num_records,
                                       value_size, seed=21)
                ops = num_ops if platform != "pi" else max(num_ops // 8, 100)
                stats = drive_store(single, workload, ops,
                                    concurrency=32 if platform != "pi" else 4)
                result.add(system="%s-%s-%dB" % (system.upper(), platform,
                                                 value_size),
                           put_pct=int(put_fraction * 100),
                           kqps=stats.throughput_qps / 1e3)
    result.notes = ("Paper: LEED throughput drops ~3% per +10% PUT; "
                    "FAWN (on Pi) speeds up with PUTs since appends beat "
                    "random reads on its medium.")
    return result
