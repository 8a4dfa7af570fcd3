"""Shared experiment harness for the paper's tables and figures.

Every experiment module under :mod:`repro.bench.experiments` builds on
these helpers: scaled-down cluster construction, load phases, drivers,
and an :class:`ExperimentResult` table that prints like the paper's
rows and that the claims of :mod:`repro.bench.paper` read.

Scales
------
Experiments accept ``scale="quick"`` (seconds to minutes of wall time;
the scale the claims' bounds were set on) or ``scale="full"`` (longer;
closer statistics).  Both are scaled-down relative to the paper's 1.6 B
objects — see DESIGN.md §4 for why the shapes survive scaling.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro import telemetry
from repro.baselines import make_cluster
from repro.baselines.fawn.datastore import FawnConfig, FawnDataStore
from repro.baselines.kvell.datastore import KVellConfig, KVellDataStore
from repro.core.cluster import LeedCluster
from repro.core.datastore import LeedDataStore, StoreConfig
from repro.core.jbof import LeedOptions
from repro.core.protocol import ReadPolicy
from repro.hw.cpu import Core
from repro.hw.platforms import RASPBERRY_PI, STINGRAY
from repro.hw.ssd import SDCARD_PROFILE, NVMeSSD, SSDProfile
from repro.sim.core import Simulator
from repro.sim.rng import RngRegistry, derive_stream
from repro.workloads.driver import ClosedLoopDriver, OpenLoopDriver, drive
from repro.workloads.history import History, Window
from repro.workloads.ycsb import YCSBWorkload, make_key, make_value

QUICK = "quick"
FULL = "full"


@dataclass
class ScaleProfile:
    """Knobs that shrink an experiment to simulation-friendly size."""

    num_records: int
    num_ops: int
    concurrency: int
    key_log_bytes: int
    value_log_bytes: int
    num_jbofs: int = 3
    ssds_per_jbof: int = 2
    num_clients: int = 2
    num_segments: int = 256


def scale_profile(scale: str = QUICK) -> ScaleProfile:
    """A consistent scaled-down geometry for cluster experiments."""
    if scale == QUICK:
        return ScaleProfile(
            num_records=600,
            num_ops=1500,
            concurrency=24,
            key_log_bytes=4 << 20,
            value_log_bytes=24 << 20,
        )
    return ScaleProfile(
        num_records=4000,
        num_ops=12000,
        concurrency=48,
        key_log_bytes=16 << 20,
        value_log_bytes=96 << 20,
    )


#: The closed-loop run shapes of :func:`measure_run_phase`, on the
#: quick-scale store geometry: the figure gate's
#: (``tests/test_figure_gate.py``); ``smoke`` is also the
#: order-dependence sanitizer's.
RUN_SHAPES = {
    "smoke": {"records": 300, "ops": 600, "concurrency": 24,
              "num_jbofs": 3, "num_clients": 2},
    "default": {"records": 600, "ops": 3000, "concurrency": 24,
                "num_jbofs": 3, "num_clients": 2},
}

#: Seed and value size the figure gate's golden rows were taken at.
RUN_SEED = 11
RUN_VALUE_SIZE = 256


@dataclass
class ExperimentResult:
    """A named table of result rows, printable like the paper's."""

    name: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add(self, **cells) -> None:
        self.rows.append(cells)

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def row_for(self, **match) -> Optional[Dict[str, object]]:
        for row in self.rows:
            if all(row.get(k) == v for k, v in match.items()):
                return row
        return None

    def format(self) -> str:
        widths = {c: max(len(c), *(len(_fmt(r.get(c))) for r in self.rows))
                  if self.rows else len(c) for c in self.columns}
        lines = ["== %s ==" % self.name]
        lines.append("  ".join(c.ljust(widths[c]) for c in self.columns))
        lines.append("  ".join("-" * widths[c] for c in self.columns))
        for row in self.rows:
            lines.append("  ".join(_fmt(row.get(c)).ljust(widths[c])
                                   for c in self.columns))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def __str__(self):
        return self.format()


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if abs(value) >= 1000:
            return "%.0f" % value
        if abs(value) >= 10:
            return "%.1f" % value
        return "%.3f" % value
    return str(value)


# -- scaled cluster builders ------------------------------------------------------------

def build_cluster(system: str, scale: str = QUICK, value_size: int = 1024,
                  options: Optional[LeedOptions] = None,
                  flow_control: Optional[bool] = None,
                  read_policy: Optional[ReadPolicy] = None, seed: int = 0,
                  num_nodes: Optional[int] = None,
                  num_clients: Optional[int] = None,
                  replication: int = 3,
                  replication_protocol: str = "chain") -> LeedCluster:
    """A scaled-down deployment of one of the three systems.

    Platforms keep their stock hardware models (full-speed SSDs, real
    power draws); only the *store geometry* is shrunk so runs finish
    in seconds.  The functional flash is sparse, so unused capacity
    costs nothing.

    ``flow_control`` / ``read_policy`` override the system's defaults
    (the Fig. 8 / Fig. 7 ablations); ``None`` keeps them.
    ``replication_protocol`` picks the write/read protocol
    (``"chain"`` | ``"craq"`` | ``"abd"``, see ``repro.core.replication``).
    """
    profile = scale_profile(scale)
    if system == "leed":
        store = StoreConfig(num_segments=profile.num_segments,
                            key_log_bytes=profile.key_log_bytes,
                            value_log_bytes=profile.value_log_bytes)
    elif system == "fawn":
        store = FawnConfig(log_bytes=profile.key_log_bytes
                           + profile.value_log_bytes)
    elif system == "kvell":
        # Page cache shrunk in proportion to the scaled-down working
        # set: at the paper's 1.6B-object scale the cache covers a
        # negligible fraction of the keys.
        store = KVellConfig(slab_bytes=profile.key_log_bytes
                            + profile.value_log_bytes,
                            slot_bytes=value_size + 64,
                            page_cache_slots=8)
    else:
        raise ValueError("unknown system %r" % system)

    return make_cluster(
        system,
        num_nodes=(num_nodes if num_nodes is not None
                   else (10 if system == "fawn" else profile.num_jbofs)),
        ssds_per_node=1 if system == "fawn" else profile.ssds_per_jbof,
        num_clients=(num_clients if num_clients is not None
                     else profile.num_clients),
        replication=replication,
        replication_protocol=replication_protocol,
        store_config=store, options=options, seed=seed,
        flow_control=flow_control, read_policy=read_policy)


def load_cluster(cluster: LeedCluster, workload: YCSBWorkload,
                 parallelism: int = 32) -> None:
    """Run the YCSB load phase to completion."""
    cluster.start()
    done = cluster.sim.process(
        cluster.load(workload.load_pairs(), parallelism=parallelism),
        name="load")
    cluster.sim.run(until=done)


def run_closed_loop(cluster: LeedCluster, workload: YCSBWorkload,
                    num_ops: int, concurrency: int) -> Window:
    """Drive the cluster closed-loop across all its clients."""
    history = History()
    share = max(num_ops // len(cluster.clients), 1)
    drivers = [ClosedLoopDriver(cluster.sim, client, workload, share,
                                concurrency=max(
                                    concurrency // len(cluster.clients), 1),
                                history=history)
               for client in cluster.clients]
    return drive(cluster.sim, drivers, name="bench.driver")


def run_metered(cluster: LeedCluster, workload: YCSBWorkload,
                num_ops: int, concurrency: int) -> Tuple[Window, float]:
    """:func:`run_closed_loop` plus the Joules that run drew.

    Call it after :func:`load_cluster`: the back-end energy
    (``cluster.energy_joules()``, a pure read) is taken around the run
    phase only, so the load is not billed (as the paper measures).
    """
    energy_before = cluster.energy_joules()
    stats = run_closed_loop(cluster, workload, num_ops, concurrency)
    return stats, cluster.energy_joules() - energy_before


def figure_digest(row: dict) -> str:
    """Hash of the sim-derived metrics of a run row.

    Covers only simulated-time results (never wall-clock), so equal
    digests mean the runs produced the same figures regardless of
    engine or machine speed.
    """
    figure = {key: row[key] for key in
              ("ops", "failed", "sim_elapsed_us", "sim_ops_per_sec",
               "mean_latency_us", "p99_latency_us")}
    blob = json.dumps(figure, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


#: The counters :func:`measure_run_phase` lifts into ``failed_by_status``.
FAILED_BY_STATUS = "client.failed_by_status."


def measure_run_phase(cluster: LeedCluster, workload: YCSBWorkload,
                      num_ops: int, concurrency: int,
                      load_parallelism: int = 16) -> dict:
    """Load ``workload``, run one closed-loop run phase, shut the
    cluster down; returns the result row.

    The figure gate (``tests/test_figure_gate.py``) is this row: the
    YCSB load is setup, and ``events`` and ``failed_by_status`` are
    run-phase deltas.  ``failed_by_status`` is the
    ``client.failed_by_status.*`` part of
    :func:`repro.telemetry.counters`' run-phase delta (the reason
    behind each ``failed`` op, e.g. ``store_full`` back-pressure); it
    and ``events`` stay out of ``figure_digest``.
    """
    load_cluster(cluster, workload, parallelism=load_parallelism)
    events_before = cluster.sim.events_dispatched
    counters_before = telemetry.counters(cluster)
    stats = run_closed_loop(cluster, workload, num_ops, concurrency)
    events = cluster.sim.events_dispatched - events_before
    counters = telemetry.delta(counters_before, telemetry.counters(cluster))
    cluster.shutdown()
    cluster.sim.run()
    row = {
        "ops": stats.completed,
        "failed": stats.failed,
        "sim_elapsed_us": round(stats.elapsed_us, 3),
        "sim_ops_per_sec": round(stats.throughput_qps, 1),
        "mean_latency_us": round(stats.mean_latency_us(), 3),
        "p99_latency_us": round(stats.percentile_us(0.99), 3),
        "events": events,
        "failed_by_status": {
            name[len(FAILED_BY_STATUS):]: count
            for name, count in counters.items()
            if name.startswith(FAILED_BY_STATUS) and count},
    }
    row["figure_digest"] = figure_digest(row)
    return row


def run_open_loop(cluster: LeedCluster, workload: YCSBWorkload,
                  rate_qps: float, duration_us: float,
                  seed: int = 0) -> Window:
    """Offered-load run split evenly across clients."""
    history = History()
    per_client_rate = rate_qps / len(cluster.clients)
    drivers = [OpenLoopDriver(cluster.sim, client, workload,
                              per_client_rate, duration_us,
                              seed=seed + index, history=history)
               for index, client in enumerate(cluster.clients)]
    return drive(cluster.sim, drivers, name="bench.odriver")


# -- single-store (no network) harness: Table 3, Figs 11-13 ----------------------------------

@dataclass
class SingleStore:
    """A bare store on one simulated Stingray SSD + A72 core."""

    sim: Simulator
    store: object
    ssd: NVMeSSD
    core: Core


def build_single_store(system: str, value_size: int = 1024,
                       capacity_bytes: int = 128 << 20,
                       block_size: int = 512, seed: int = 0,
                       platform: str = "stingray",
                       store_kwargs: Optional[dict] = None,
                       sim: Optional[Simulator] = None,
                       ssd: Optional[NVMeSSD] = None,
                       core: Optional[Core] = None,
                       name: str = "bench") -> SingleStore:
    """One store instance on platform hardware, no network.

    ``platform`` picks the SSD/core models: "stingray" (NVMe + 3 GHz
    A72) or "pi" (SD card + 1.4 GHz A53, for the FAWN comparisons of
    Fig. 12).  Pass ``sim``/``ssd``/``core`` to co-locate several
    stores on shared hardware (the Table 3 four-SSD node).
    """
    sim = sim or Simulator()
    rng = RngRegistry(seed)
    if ssd is None:
        if platform == "pi":
            profile = replace(SDCARD_PROFILE,
                              capacity_bytes=capacity_bytes,
                              block_size=block_size)
        else:
            profile = SSDProfile(capacity_bytes=capacity_bytes,
                                 block_size=block_size)
        ssd = NVMeSSD(sim, profile, rng=rng, name=name + "-nvme")
    if core is None:
        freq = RASPBERRY_PI.freq_ghz if platform == "pi" else STINGRAY.freq_ghz
        core = Core(sim, freq)
    kwargs = store_kwargs or {}
    if system == "leed":
        config = kwargs.pop("config", StoreConfig(
            num_segments=512,
            key_log_bytes=min(capacity_bytes // 8, 16 << 20),
            value_log_bytes=min(capacity_bytes // 2, 64 << 20)))
        store = LeedDataStore(sim, ssd, config, core=core, name=name,
                              **kwargs)
    elif system == "fawn":
        config = kwargs.pop("config", FawnConfig(
            log_bytes=min(capacity_bytes // 2, 64 << 20)))
        store = FawnDataStore(sim, ssd, config, core=core, name=name,
                              **kwargs)
    elif system == "kvell":
        config = kwargs.pop("config", KVellConfig(
            slab_bytes=min(capacity_bytes // 2, 64 << 20),
            slot_bytes=max(value_size + 64, block_size),
            modeled_index_objects=129_000_000))
        store = KVellDataStore(sim, ssd, config, core=core, name=name,
                              **kwargs)
    else:
        raise ValueError("unknown system %r" % system)
    return SingleStore(sim, store, ssd, core)


def preload_store(single: SingleStore, num_records: int, value_size: int,
                  key_prefix: str = "user", seed: int = 7) -> None:
    """Synchronously fill a bare store with records."""
    rng = derive_stream(seed, "bench.preload")

    def loader():
        for record_id in range(num_records):
            key = make_key(record_id, key_prefix)
            value = make_value(rng, value_size)
            result = yield from single.store.put(key, value)
            if result.status != "ok":
                return record_id
        return num_records

    process = single.sim.process(loader(), name="preload")
    loaded = single.sim.run(until=process)
    if loaded != num_records:
        raise RuntimeError("preload stopped at %s/%d records"
                           % (loaded, num_records))


def drive_store(single: SingleStore, workload: YCSBWorkload, num_ops: int,
                concurrency: int = 16) -> Window:
    """Closed-loop driver directly against a bare store."""
    sim = single.sim
    history = History()
    driver = ClosedLoopDriver(sim, single.store, workload, num_ops,
                              concurrency=concurrency, history=history)
    window = history.open(sim.now)
    sim.run(until=sim.process(driver.run(), name="bench.store"))
    return window.close(sim.now)
