"""Figure 1: raw-device energy efficiency vs storage capacity.

The paper's motivation figure: KIOPS/Joule for 4 KB random reads and
4 KB sequential writes on the three platforms as capacity grows from
32 GB to 16 TB (maxing out a node's drive bays before adding nodes).

We *measure* one node's IOPS by driving its devices at saturation in
the simulator, then sweep capacity analytically exactly as the paper
describes (per-node numbers scale linearly with node count; power is
node count x active power plus the per-node switch share).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.bench.harness import QUICK, ExperimentResult
from repro.hw.platforms import (
    RASPBERRY_PI,
    SERVER_JBOF,
    STINGRAY,
    SWITCH_SHARE_W,
    PlatformSpec,
)
from repro.hw.ssd import NVMeSSD
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry

IO_BYTES = 4096

#: Capacity sweep points (bytes), as in Figure 1's x-axis.
CAPACITY_POINTS = [32 * 10**9, 256 * 10**9, 2048 * 10**9, 16384 * 10**9]


def measure_node_iops(spec: PlatformSpec, num_ssds: int, pattern: str,
                      num_ios: int = 2000, seed: int = 0) -> float:
    """Saturating IOPS of one node with ``num_ssds`` drives."""
    sim = Simulator()
    rng = RngRegistry(seed)
    ssds = [NVMeSSD(sim, spec.ssd_profile, rng=rng, name="n%d" % i)
            for i in range(num_ssds)]
    per_ssd = num_ios // num_ssds
    stream = rng.stream("fig1")

    def driver(ssd, count):
        blocks = ssd.capacity_bytes // IO_BYTES
        write_cursor = 0
        for index in range(count):
            if pattern == "read":
                offset = stream.randrange(max(blocks // 4, 1)) * IO_BYTES
                yield from ssd.read(offset, IO_BYTES)
            else:
                offset = (write_cursor % max(blocks // 4, 1)) * IO_BYTES
                write_cursor += 1
                yield from ssd.write(offset, b"\xAB" * IO_BYTES)

    # Enough concurrent streams per device to saturate its channels.
    streams_per_ssd = max(spec.ssd_profile.channels, 2)
    procs = []
    for ssd in ssds:
        share = max(per_ssd // streams_per_ssd, 1)
        for _ in range(streams_per_ssd):
            procs.append(sim.process(driver(ssd, share)))
    sim.run(until=sim.all_of(procs))
    total_ios = sum(s.stats.reads_completed + s.stats.writes_completed
                    for s in ssds)
    return total_ios / (sim.now * 1e-6)


def run(scale: str = QUICK) -> ExperimentResult:
    num_ios = 1200 if scale == QUICK else 8000
    result = ExperimentResult(
        name="Figure 1: energy efficiency (KIOPS/J) vs capacity",
        columns=["pattern", "capacity_gb", "platform", "nodes", "ssds",
                 "kiops", "watts", "kiops_per_joule"])
    platforms = [("raspberry-pi", RASPBERRY_PI, "embedded"),
                 ("server-jbof", SERVER_JBOF, "jbof"),
                 ("smartnic-jbof", STINGRAY, "jbof")]
    # Measure per-(platform, ssd count) IOPS once.
    measured: Dict[Tuple[str, int, str], float] = {}
    for label, spec, _kind in platforms:
        for num_ssds in sorted({1, spec.max_ssds}):
            for pattern in ("read", "write"):
                measured[(label, num_ssds, pattern)] = measure_node_iops(
                    spec, num_ssds, pattern, num_ios)

    for pattern in ("read", "write"):
        for capacity in CAPACITY_POINTS:
            for label, spec, kind in platforms:
                per_ssd_capacity = spec.ssd_profile.capacity_bytes
                # Fill a node's bays first, then add nodes (Figure 1).
                if capacity <= per_ssd_capacity * spec.max_ssds:
                    nodes = 1
                    ssds = max(-(-capacity // per_ssd_capacity), 1)
                    ssds = min(ssds, spec.max_ssds)
                else:
                    ssds = spec.max_ssds
                    nodes = -(-capacity // (per_ssd_capacity * ssds))
                per_node_ssds = min(ssds, spec.max_ssds)
                key = (label, per_node_ssds, pattern)
                if key not in measured:
                    measured[key] = measure_node_iops(spec, per_node_ssds,
                                                      pattern, num_ios)
                node_iops = measured[key]
                total_iops = node_iops * nodes
                watts = nodes * (spec.max_power_w + SWITCH_SHARE_W[kind])
                result.add(pattern=pattern, capacity_gb=capacity / 1e9,
                           platform=label, nodes=nodes, ssds=per_node_ssds,
                           kiops=total_iops / 1e3, watts=watts,
                           kiops_per_joule=total_iops / 1e3 / watts)
    return result
