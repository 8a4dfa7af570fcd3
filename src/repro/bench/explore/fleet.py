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
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional

from repro.bench.harness import (RUN_SHAPES, build_cluster, figure_digest,
                                 measure_run_phase)
from repro.core.jbof import LeedOptions
from repro.workloads.ycsb import YCSBWorkload

from .space import canonical_json, config_digest

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
    })


def make_trial(point: dict, overrides, scale: str, workload: str,
               value_size: int, seed: int,
               ops_fraction: float = 1.0) -> dict:
    """Assemble one picklable trial payload.

    ``overrides`` is the ``(cluster, options, run)`` triple from
    :meth:`ConfigSpace.overrides`.
    """
    if scale not in RUN_SHAPES:
        raise ValueError("unknown trial scale %r (have %s)"
                         % (scale, ", ".join(sorted(RUN_SHAPES))))
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
    }


def run_trial(payload: dict) -> dict:
    """Execute one trial (module-level, hence pool-picklable).

    The row is :func:`repro.bench.harness.measure_run_phase`'s on a
    :func:`~repro.bench.harness.build_cluster` cluster, so an explorer
    row and a figure-gate row with matching configs digest identically.
    """
    spec = RUN_SHAPES[payload["scale"]]
    value_size = payload["value_size"]
    cluster_kwargs = dict(payload["cluster"])
    cluster = build_cluster(
        "leed", value_size=value_size, seed=payload["seed"],
        options=LeedOptions(**payload["options"]),
        num_nodes=spec["num_jbofs"], num_clients=spec["num_clients"],
        ssds_per_node=cluster_kwargs.pop("ssds_per_jbof", None),
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
        return _failure_row(exc)


#: p99 sentinel for failed trials: far above any plausible SLO, but
#: still a finite JSON number (``inf`` would not round-trip strictly).
FAILED_P99_US = 1e12


def _failure_row(exc: Exception) -> dict:
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
