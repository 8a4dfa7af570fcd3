"""Trial-level process-pool execution of fixed-seed explorer trials.

One *trial* is one deterministic simulation: build a LEED cluster from
a design point, load a fixed-seed YCSB keyspace, drive a closed loop,
and report sim-derived metrics (throughput, latency, energy) plus
wall-clock diagnostics.  Trials are independent, so the
:class:`FleetRunner` fans them out over a ``fork``-context process
pool.

Results are memoized in a JSON cache keyed by
``config_digest(point + seed + run shape)``: a resumed or overlapping
search re-proposes the same trials but never re-runs them, and its
trajectory is identical to an uncached run's.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from repro.baselines import make_cluster
from repro.bench.harness import (figure_digest, measure_run_phase,
                                 scale_profile)
from repro.bench.perf import SCALES as PERF_SCALES
from repro.core.datastore import StoreConfig
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import YCSBWorkload

from .space import canonical_json, config_digest

#: scale -> trial run shape.  ``tiny``/``small`` are explorer-native
#: (search loops run dozens of trials, so each must finish in
#: seconds); ``smoke`` is the perf harness's tier, so explorer rows and
#: perf rows with matching configs digest identically.
TRIAL_SCALES = {
    "tiny": {"records": 200, "ops": 480, "concurrency": 16,
             "num_jbofs": 3, "num_clients": 2},
    "small": {"records": 400, "ops": 1600, "concurrency": 24,
              "num_jbofs": 3, "num_clients": 2},
    "smoke": PERF_SCALES["smoke"],
}

#: Least ops a reduced-fidelity rung may run (successive halving
#: shrinks ``ops`` by ``ops_fraction``; below this the closed loop
#: barely leaves warm-up).
MIN_TRIAL_OPS = 120


def trial_key(payload: dict) -> str:
    """Memo-cache key: everything that determines the trial's result."""
    return config_digest({
        "point": payload["point"],
        "seed": payload["seed"],
        "scale": payload["scale"],
        "workload": payload["workload"],
        "value_size": payload["value_size"],
        "ops_fraction": payload["ops_fraction"],
        "scenario": payload.get("scenario"),
    })


def make_trial(point: dict, overrides, scale: str, workload: str,
               value_size: int, seed: int,
               ops_fraction: float = 1.0,
               scenario: Optional[str] = None) -> dict:
    """Assemble one picklable trial payload.

    ``overrides`` is the ``(cluster, options, run)`` triple from
    :meth:`ConfigSpace.overrides`.  ``scenario`` switches the trial
    from the closed-loop YCSB driver to a :mod:`repro.scenarios`
    episode of that name — fitness then
    scores the config under churn/faults instead of steady state
    (``scale`` must name a scenario scale, and ``workload`` /
    ``value_size`` / ``ops_fraction`` are owned by the scenario).
    """
    if scenario is not None:
        from repro.scenarios.dsl import SCALES as SCENARIO_SCALES
        if scale not in SCENARIO_SCALES:
            raise ValueError(
                "unknown scenario scale %r (have %s)"
                % (scale, ", ".join(sorted(SCENARIO_SCALES))))
    elif scale not in TRIAL_SCALES:
        raise ValueError("unknown trial scale %r (have %s)"
                         % (scale, ", ".join(sorted(TRIAL_SCALES))))
    cluster, options, run = overrides
    return {
        "point": point,
        "cluster": cluster,
        "options": options,
        "run": run,
        "scale": scale,
        "workload": workload,
        "value_size": value_size,
        "seed": seed,
        "ops_fraction": ops_fraction,
        "scenario": scenario,
    }


def run_trial(payload: dict) -> dict:
    """Execute one trial (module-level, hence pool-picklable).

    The row is :func:`repro.bench.harness.measure_run_phase`'s — the
    same run-phase protocol as :func:`repro.bench.perf.run_once`, so
    explorer rows and perf rows with matching configs digest
    identically.
    """
    if payload.get("scenario"):
        return _run_scenario_trial(payload)
    spec = TRIAL_SCALES[payload["scale"]]
    value_size = payload["value_size"]
    profile = scale_profile("quick", value_size)
    store = StoreConfig(num_segments=profile.num_segments,
                        key_log_bytes=profile.key_log_bytes,
                        value_log_bytes=profile.value_log_bytes)
    options = LeedOptions(**payload["options"])
    cluster_kwargs = dict(payload["cluster"])
    platform = cluster_kwargs.pop("platform", "auto")
    ssds = cluster_kwargs.pop("ssds_per_jbof", profile.ssds_per_jbof)
    cluster = make_cluster(
        "leed", platform=platform, num_nodes=spec["num_jbofs"],
        ssds_per_node=ssds, num_clients=spec["num_clients"],
        store_config=store, options=options, seed=payload["seed"],
        **cluster_kwargs)

    workload = YCSBWorkload(payload["workload"],
                            num_records=spec["records"],
                            seed=payload["seed"], value_size=value_size)
    num_ops = max(int(spec["ops"] * payload["ops_fraction"]), MIN_TRIAL_OPS)
    concurrency = int(payload["run"].get("concurrency", spec["concurrency"]))
    try:
        return measure_run_phase(cluster, workload, num_ops, concurrency)
    except Exception as exc:
        # Some design points are simply broken deployments (e.g. a
        # protocol that deterministically times out on a too-slow
        # platform).  An explorer must score those worst-feasible and
        # move on, not abort the search — and since the failure is
        # sim-deterministic, the row (and its digest) still replays
        # identically.
        return _failure_row(payload, exc)


def _run_scenario_trial(payload: dict) -> dict:
    """Score a design point under a :mod:`repro.scenarios` episode.

    The point's cluster overrides are appended to the scenario's
    ``config_overrides`` tuple — the runner applies that tuple *last*,
    so the point wins over both the scale's defaults and the
    scenario's own overrides.  Options are merged *into* the
    scenario's options (scale-tuned heartbeat first, then any
    scenario-override options, then the point), because an ``options``
    entry in ``config_overrides`` replaces the whole ``LeedOptions``.

    The scenario owns workload, value size, and run shape, so the
    payload's ``workload`` / ``value_size`` / ``run`` / ``ops_fraction``
    are inert — pair scenario fitness with ``grid`` or ``random``
    rather than successive halving.
    """
    import dataclasses

    from repro.hw.platforms import platform_by_name
    from repro.scenarios.dsl import SCALES as SCENARIO_SCALES
    from repro.scenarios.dsl import build_scenario
    from repro.scenarios.runner import run_scenario

    scale = SCENARIO_SCALES[payload["scale"]]
    try:
        scenario = build_scenario(payload["scenario"])
        extra = dict(payload["cluster"])
        if "platform" in extra:
            extra["platform"] = platform_by_name(extra["platform"])
        merged = {"heartbeat_period_us": scale.heartbeat_period_us}
        existing = dict(scenario.config_overrides).get("options")
        if existing is not None:
            merged.update({field.name: getattr(existing, field.name)
                           for field in dataclasses.fields(existing)})
        merged.update(payload["options"])
        extra["options"] = LeedOptions(**merged)
        scenario = dataclasses.replace(
            scenario,
            config_overrides=(tuple(scenario.config_overrides)
                              + tuple(extra.items())))
        started = time.perf_counter()
        record = run_scenario(scenario=scenario, scale=payload["scale"],
                              seed=payload["seed"])
        wall_s = time.perf_counter() - started
    except Exception as exc:
        # Same contract as the closed-loop path: broken deployments
        # (protocol timeouts) are worst-case infeasible
        # rows, and the failure is sim-deterministic.
        return _failure_row(payload, exc)

    totals = record["totals"]
    elapsed_us = totals["elapsed_us"]
    lost = record["invariants"]["lost_acked_writes"]
    row = {
        "ops": totals["ok"],
        # "failed" carries the *hard* failure count so the standard
        # feasibility gate (failed == 0) means "no lost acked writes";
        # soft failures under churn are judged via availability.
        "failed": lost,
        "sim_elapsed_us": round(elapsed_us, 3),
        "sim_ops_per_sec": round(totals["ok"] / elapsed_us * 1e6, 1)
        if elapsed_us else 0.0,
        "mean_latency_us": totals["p50_us"],
        "p99_latency_us": totals["p99_us"],
        "energy_joules": totals["energy_joules"],
        "requests_per_joule": totals["requests_per_joule"],
        "availability": totals["availability"],
        "issued": totals["issued"],
        "soft_failed": totals["failed"],
        "dropped": totals["dropped"],
        "wall_s": round(wall_s, 4),
        "wall_ops_per_sec": round(totals["ok"] / wall_s, 1)
        if wall_s else 0.0,
        "events": 0,
        "events_per_sec": 0.0,
        "scenario": payload["scenario"],
        "scenario_digest": record["digests"]["figure"],
    }
    row["figure_digest"] = figure_digest(row)
    return row


#: p99 sentinel for failed trials: far above any plausible SLO, but
#: still a finite JSON number (``inf`` would not round-trip strictly).
FAILED_P99_US = 1e12


def _failure_row(payload: dict, exc: Exception) -> dict:
    row = {
        "ops": 0,
        "failed": 1,
        "sim_elapsed_us": 0.0,
        "sim_ops_per_sec": 0.0,
        "mean_latency_us": 0.0,
        "p99_latency_us": FAILED_P99_US,
        "energy_joules": 0.0,
        "requests_per_joule": 0.0,
        "wall_s": 0.0,
        "wall_ops_per_sec": 0.0,
        "events": 0,
        "events_per_sec": 0.0,
        "error": "%s: %s" % (type(exc).__name__, exc),
    }
    if payload.get("scenario"):
        row["availability"] = 0.0
        row["scenario"] = payload["scenario"]
    row["figure_digest"] = figure_digest(row)
    return row


class FleetRunner:
    """Memoized, optionally process-pooled trial execution.

    ``fleet`` is the pool width; 0 or 1 runs every trial in the parent
    process (the right call on 1-CPU boxes).
    """

    def __init__(self, cache_path: Optional[str] = None, fleet: int = 0):
        self.cache_path = cache_path
        self.fleet = max(int(fleet), 0)
        self.live_trials = 0
        self.cache_hits = 0
        self._cache: Dict[str, dict] = {}
        if cache_path and os.path.exists(cache_path):
            with open(cache_path) as handle:
                self._cache = json.load(handle)

    def _save_cache(self) -> None:
        if not self.cache_path:
            return
        tmp = self.cache_path + ".tmp"
        with open(tmp, "w") as handle:
            handle.write(canonical_json(self._cache))
            handle.write("\n")
        os.replace(tmp, self.cache_path)

    def run(self, payloads: List[dict]) -> List[dict]:
        """Run a batch; results in submission order, cache-augmented.

        Each result row gains ``cached`` (bool) and ``trial_key``.
        """
        results: List[Optional[dict]] = [None] * len(payloads)
        live = []
        for index, payload in enumerate(payloads):
            key = trial_key(payload)
            hit = self._cache.get(key)
            if hit is not None:
                self.cache_hits += 1
                row = dict(hit)
                row["cached"] = True
                row["trial_key"] = key
                results[index] = row
            else:
                live.append((index, key, payload))

        if live and self.fleet >= 2:
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(self.fleet,
                                     mp_context=context) as pool:
                rows = list(pool.map(run_trial, [p for _, _, p in live]))
        else:
            rows = [run_trial(payload) for _, _, payload in live]
        for (index, key, _payload), row in zip(live, rows):
            self.live_trials += 1
            self._cache[key] = row
            row = dict(row)
            row["cached"] = False
            row["trial_key"] = key
            results[index] = row
        self._save_cache()
        return results  # type: ignore[return-value]
