"""One repeat of one workload, in this process: set-up, timed phase, checks.

``run.py`` launches this file once per repeat (``timing.launch_repeat``)
with a JSON request ``{"workload", "seed", "mode", "quick",
"reference"}`` and reads the JSON result from the last line of stdout.

Modes:

* ``timed`` — tracing off, serial engine, timed phase sliced and
  calibrated; also reads the model counters (``probes``).
* ``host_trace`` — the timed phase under ``cProfile`` in one unsliced
  ``Simulator.run``, folded into layers.  Its digest must equal the
  sliced runs' digest.
* ``sim_trace`` — ``trace_sample_interval=8``; spans of the timed phase
  folded into self time per span name.
* ``sharded`` — the in-process sharded engine (``workers=1``).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))

import layers  # noqa: E402
import probes  # noqa: E402
import timing  # noqa: E402
import workloads  # noqa: E402

MODES = ("timed", "host_trace", "sim_trace", "sharded")
SIM_TRACE_INTERVAL = 8


def run_repeat(request: dict) -> dict:
    """Execute one repeat and return its full result record."""
    spec = workloads.SPECS[request["workload"]]
    if request.get("reference"):
        spec = spec.reference_twin()
    if request.get("quick"):
        spec = spec.quick()
    mode = request["mode"]
    if mode not in MODES:
        raise ValueError("unknown mode %r (have %s)" % (mode, MODES))
    seed = request["seed"]
    serial = mode != "sharded"

    clock = timing.Calibrator()
    ledger = workloads.Ledger()
    cluster, workload = clock.segment("setup", lambda: workloads.build(
        spec, seed, workers=0 if serial else 1,
        trace_sample_interval=SIM_TRACE_INTERVAL if mode == "sim_trace"
        else 0))
    sim = cluster.sim
    loaded = clock.segment("setup",
                           lambda: workloads.load(cluster, workload, ledger))
    clock.run_sliced("setup", sim, loaded, workloads.LOAD_SLICE_US)

    # Counters live in the shard that owns them; only the serial engine
    # lets this process read them at shard 0's clock.
    before = probes.read(cluster) if serial else None
    events_before = cluster.total_events_dispatched()
    finish = {}

    def on_finish():
        finish["probes"] = probes.read(cluster)

    driver = workloads.ClosedLoop(cluster, workload, spec, ledger,
                                  on_finish if serial else None)
    exchange_before = cluster.exchange_stats()
    pending_samples = []
    done = driver.start()
    fold = None
    if mode == "host_trace":
        profiler = cProfile.Profile()
        clock.segment("timed", lambda: profiler.runcall(sim.run, until=done))
        fold = layers.fold_profile(pstats.Stats(profiler).stats)
    else:
        clock.run_sliced("timed", sim, done, spec.slice_us,
                         lambda: pending_samples.append(sim.pending_events))
    exchange_after = cluster.exchange_stats()
    # The simulator publishes its dispatch count when run() returns, so
    # this includes the last slice's sub-slice overrun of background
    # events: the same few events on every sliced repeat.
    events = cluster.total_events_dispatched() - events_before

    observed = workloads.read_back(cluster, ledger, seed)
    problems = ledger.mismatches(observed)
    if driver.attempted != len(driver.statuses):
        problems.append("attempted %d != completed + failed %d"
                        % (driver.attempted, len(driver.statuses)))
    if "not_found" in driver.statuses:
        problems.append("not_found on a loaded key")
    cluster.shutdown()
    cluster.stop_workers()

    ordered = sorted(driver.latencies_us)
    elapsed_us = driver.finished_at_us - driver.started_at_us
    result = {
        "request": request,
        "ops": spec.ops,
        "attempted": driver.attempted,
        "completed": driver.completed,
        "failed": driver.failed,
        "failed_by_status": driver.failed_by_status(),
        "problems": problems,
        "digest": driver.digest(),
        "events": events,
        "sim": {
            "elapsed_us": elapsed_us,
            "kqps": driver.completed / elapsed_us * 1e3,
            "mean_us": sum(ordered) / len(ordered),
            "p50_us": workloads.percentile(ordered, 0.50),
            "p99_us": workloads.percentile(ordered, 0.99),
            "p999_us": workloads.percentile(ordered, 0.999),
        },
        "client": {},
        "puts": driver.kinds.count("put"),
        "put_bytes": driver.put_bytes,
        "clock": clock.report(),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    for kind in ("get", "put"):
        samples = driver.latencies_of(kind)
        if samples:
            result["client"][kind + "_p50_us"] = workloads.percentile(
                samples, 0.50)
            result["client"][kind + "_p99_us"] = workloads.percentile(
                samples, 0.99)
    if pending_samples:
        result["pending_events_mean"] = (sum(pending_samples)
                                         / len(pending_samples))
    if serial:
        result["counters"] = probes.delta(before, finish["probes"])
    if fold is not None:
        result["fold"] = fold
    if mode == "sim_trace":
        result["spans"] = layers.fold_spans(cluster.tracer.spans,
                                            driver.started_at_us)
    if exchange_after is not None:
        result["exchange"] = {key: exchange_after[key] - exchange_before[key]
                              for key in exchange_after}
    return result


if __name__ == "__main__":
    print(json.dumps(run_repeat(json.loads(sys.argv[1]))))
