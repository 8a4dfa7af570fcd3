"""leedbench: calibrated end-to-end + per-layer benchmark of the LEED simulator.

Usage (from the repository root)::

    python3 leedbench/run.py                       # all workloads, both traces
    python3 leedbench/run.py --workload ycsb_b_ref --seed 11 --seconds 8 --trace 0
    python3 leedbench/run.py --quick               # smoke: 1 repeat, ops/5

Each (workload, trace) pair prints its metrics by name with units and
ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` makes the traced runs that give the
per-layer metrics.  The exit code is non-zero when any correctness
check fails.  See README.md beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path.insert(0, _SRC)

import layers  # noqa: E402
import timing  # noqa: E402

#: Repeats per ``--trace 0`` invocation: at least MIN, then more until
#: the timed phases add up to ``--seconds``, never past MAX (the
#: contract caps an invocation at 180 s).
MIN_REPEATS = 3
MAX_REPEATS = 7

#: (name, unit, better, bound).  Bounds are shares of the parent's
#: median; README.md says how each was chosen.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("host_us_per_op", "us", "lower", 0.25),
    ("events_per_op", "events/op", "lower", 0.12),
    ("host_peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
    ("sim_kqps", "kop/s", "higher", 0.05),
    ("sim_p50_us", "us", "lower", 0.01),
    ("sim_p99_us", "us", "lower", 0.15),
    ("sim_req_per_joule", "op/J", "higher", 0.05),
)

#: Span-name prefixes whose simulated self time each layer metric sums.
SPAN_METRICS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("net.sim_self_us_per_op", ("rpc.",)),
    ("hw.ssd_sim_self_us_per_op", ("ssd.",)),
    ("core.io_engine.queue_sim_self_us_per_op",
     ("engine.queue", "engine.tokens")),
    ("core.datastore.log_commit_sim_self_us_per_op", ("log.commit",)),
    ("core.jbof.dispatch_sim_self_us_per_op", ("jbof.dispatch",)),
)


#: (name, unit, better) of every per-layer metric, in print order.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = tuple(
    entry for layer in layers.LAYERS for entry in (
        (layer + ".host_us_per_op", "us", "lower"),
        (layer + ".calls_per_op", "calls/op", "lower"))) + (
    ("host.py_calls_per_op", "calls/op", "lower"),
    ("sim.host_ns_per_event", "ns", "lower"),
    ("sim.pending_events_mean", "count", "lower"),
    ("sim.parallel.sharded_overhead_pct", "%", "lower"),
    ("sim.parallel.windows_per_op", "count", "lower"),
    ("sim.parallel.elided_window_pct", "%", "higher"),
    ("net.rpcs_per_op", "count", "lower"),
    ("net.wire_bytes_per_op", "B", "lower"),
    ("net.sim_self_us_per_op", "us", "lower"),
    ("hw.ssd_reads_per_op", "count", "lower"),
    ("hw.ssd_writes_per_op", "count", "lower"),
    ("hw.ssd_write_bytes_per_user_byte", "B/B", "lower"),
    ("hw.ssd_busy_pct", "%", "lower"),
    ("hw.ssd_queue_wait_us_per_io", "us", "lower"),
    ("hw.ssd_sim_self_us_per_op", "us", "lower"),
    ("hw.cpu_util_pct", "%", "lower"),
    ("core.io_engine.wait_us_per_cmd", "us", "lower"),
    ("core.io_engine.peak_waiting", "count", "lower"),
    ("core.io_engine.rejected_per_kop", "1/kop", "lower"),
    ("core.io_engine.queue_sim_self_us_per_op", "us", "lower"),
    ("core.client.get_p50_us", "us", "lower"),
    ("core.client.get_p99_us", "us", "lower"),
    ("core.client.put_p50_us", "us", "lower"),
    ("core.client.put_p99_us", "us", "lower"),
    ("core.client.p999_us", "us", "lower"),
    ("core.client.flow_deferred_per_kop", "1/kop", "lower"),
    ("core.client.flow_wait_mean_us", "us", "lower"),
    ("core.client.retries_per_kop", "1/kop", "lower"),
    ("core.client.timeouts_per_kop", "1/kop", "lower"),
    ("core.client.failed_per_kop", "1/kop", "lower"),
    ("core.datastore.get_retries_per_kop", "1/kop", "lower"),
    ("core.datastore.key_log_fill_pct", "%", "lower"),
    ("core.datastore.value_log_fill_pct", "%", "lower"),
    ("core.datastore.compaction_rounds", "count", "lower"),
    ("core.datastore.compaction_busy_pct", "%", "lower"),
    ("core.datastore.segments_relocated", "count", "lower"),
    ("core.datastore.bytes_reclaimed", "B", "higher"),
    ("core.datastore.log_commit_sim_self_us_per_op", "us", "lower"),
    ("core.replication.writes_forwarded_per_put", "count", "lower"),
    ("core.replication.reads_shipped_pct", "%", "lower"),
    ("core.replication.nacks_per_kop", "1/kop", "lower"),
    ("core.replication.wal_appends_per_put", "count", "lower"),
    ("core.jbof.swap_redirects_per_kop", "1/kop", "lower"),
    ("core.jbof.dispatch_sim_self_us_per_op", "us", "lower"),
    ("power.joules_per_kop", "J/kop", "lower"),
    ("power.mean_watts", "W", "lower"),
    ("obs.sim_trace_overhead_pct", "%", "lower"),
    ("obs.host_trace_overhead_pct", "%", "lower"),
    ("obs.sim_trace_kqps_drift_pct", "%", "lower"),
    ("parity.mean_err_pct", "%", "lower"),
    ("parity.p99_err_pct", "%", "lower"),
)


class Invocation:
    """The child repeats of one (workload, trace) run and their checks."""

    def __init__(self, spec, seed: int, quick: bool):
        self.spec = spec
        self.seed = seed
        self.quick = quick
        self.children: List[dict] = []
        self.problems: List[str] = []

    def repeat(self, mode: str, reference: bool = False) -> dict:
        result = timing.launch_repeat({
            "workload": self.spec.name, "seed": self.seed, "mode": mode,
            "quick": self.quick, "reference": reference})
        self.children.append(result)
        self.problems += ["%s repeat: %s" % (mode, problem)
                          for problem in result["problems"]]
        return result

    def require_same_figures(self, first: dict, other: dict, what: str):
        if first["digest"] != other["digest"]:
            self.problems.append(
                "%s: figure digest %s differs from %s"
                % (what, other["digest"], first["digest"]))

    @staticmethod
    def calibrated_s(children: List[dict], phase: str) -> float:
        """Calibrated seconds of ``phase`` over repeats of the same run."""
        return timing.KERNEL_NOMINAL_S * timing.steady_units(
            [child["clock"]["phases"][phase]["units"] for child in children])

    def host_us_per_op(self, children: List[dict]) -> float:
        return self.calibrated_s(children, "timed") / children[0]["ops"] * 1e6

    def generator(self) -> dict:
        """Diagnostics that make a noisy invocation visible."""
        kernel = [child["clock"] for child in self.children]
        calibrated = [self.calibrated_s([child], "timed")
                      for child in self.children]
        return {
            "children": len(self.children),
            "kernel_nominal_ms": timing.KERNEL_NOMINAL_S * 1e3,
            "kernel_min_ms": min(clock["kernel_min_s"]
                                 for clock in kernel) * 1e3,
            "kernel_median_ms": statistics.median(
                [clock["kernel_median_s"] for clock in kernel]) * 1e3,
            "timed_slices": [len(clock["phases"]["timed"]["units"])
                             for clock in kernel],
            "timed_raw_s": [clock["phases"]["timed"]["raw_s"]
                            for clock in kernel],
            "timed_calibrated_s": calibrated,
            "timed_calibrated_spread_pct":
                100.0 * timing.quartile_spread(calibrated),
        }

    def result_line(self, metrics: Dict[str, Tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": sum(child["attempted"] for child in self.children),
            "failed": sum(child["failed"] for child in self.children),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def measure_end_to_end(run: Invocation, seconds: float) -> Dict[str, tuple]:
    """``--trace 0``: repeat the untraced run; report medians."""
    repeats: List[dict] = []
    timed_s = 0.0
    while True:
        repeats.append(run.repeat("timed"))
        timed_s += repeats[-1]["clock"]["phases"]["timed"]["raw_s"]
        if run.quick or len(repeats) >= MAX_REPEATS:
            break
        if len(repeats) >= MIN_REPEATS and timed_s >= seconds:
            break
    first = repeats[0]
    for index, other in enumerate(repeats[1:], start=2):
        run.require_same_figures(first, other, "repeat %d" % index)
        if other["events"] != first["events"]:
            run.problems.append("repeat %d: %d events, repeat 1 had %d"
                                % (index, other["events"], first["events"]))
    sim = first["sim"]
    values = {
        "host_us_per_op": run.host_us_per_op(repeats),
        "events_per_op": first["events"] / first["ops"],
        "host_peak_rss_mb": statistics.median(
            [child["peak_rss_mb"] for child in repeats]),
        "setup_s": run.calibrated_s(repeats, "setup"),
        "sim_kqps": sim["kqps"],
        "sim_p50_us": sim["p50_us"],
        "sim_p99_us": sim["p99_us"],
        "sim_req_per_joule": first["completed"]
        / first["counters"]["power.joules"],
    }
    return {name: (values[name], unit) for name, unit, _, _ in END_TO_END}


def _span_self_us_per_op(spans: dict, prefixes: Tuple[str, ...]) -> float:
    total = sum(self_us for name, self_us in spans["self_us"].items()
                if name.startswith(prefixes))
    return total / spans["roots"] if spans["roots"] else 0.0


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def measure_per_layer(run: Invocation) -> Tuple[Dict[str, tuple], dict]:
    """``--trace 1``: the untraced run, then one run per kind of trace."""
    spec = run.spec
    plain = run.repeat("timed")
    host = run.repeat("host_trace")
    traced = run.repeat("sim_trace")
    # The profiled phase is one unsliced Simulator.run: equal digests
    # show that slicing the timed phase does not change the figures.
    run.require_same_figures(plain, host, "host trace (unsliced)")
    sharded = reference = None
    if spec.fused:
        try:
            sharded = run.repeat("sharded")
        except timing.RepeatFailed as error:
            # ROADMAP item 2 may retire the in-process sharded engine;
            # its three metrics then read 0 instead of failing the run.
            print("leedbench: workers=1 not measured: %s" % error,
                  file=sys.stderr)
        else:
            run.require_same_figures(plain, sharded, "sharded engine")
        reference = run.repeat("timed", reference=True)

    ops = plain["ops"]
    kops = ops / 1e3
    puts = plain["puts"]
    counters = plain["counters"]
    elapsed_us = plain["sim"]["elapsed_us"]
    host_us = run.host_us_per_op([plain])
    fold = host["fold"]
    spans = traced["spans"]
    client = plain["client"]

    values: Dict[str, float] = {}
    for layer in layers.LAYERS:
        values[layer + ".host_us_per_op"] = (
            fold["share_pct"][layer] / 100.0 * host_us)
        values[layer + ".calls_per_op"] = fold["calls"][layer] / ops
    values["host.py_calls_per_op"] = fold["total_calls"] / ops
    values["sim.host_ns_per_event"] = host_us * 1e3 * ops / plain["events"]
    values["sim.pending_events_mean"] = plain["pending_events_mean"]
    if sharded is not None:
        exchange = sharded["exchange"]
        values["sim.parallel.sharded_overhead_pct"] = 100.0 * (
            run.host_us_per_op([sharded]) / host_us - 1.0)
        values["sim.parallel.windows_per_op"] = exchange["windows"] / ops
        values["sim.parallel.elided_window_pct"] = _ratio(
            exchange["elided_shard_windows"],
            exchange["elided_shard_windows"] + exchange["shard_windows"],
            100.0)
    else:
        # Not measured: a reference-path workload, or no workers=1 engine.
        values["sim.parallel.sharded_overhead_pct"] = 0.0
        values["sim.parallel.windows_per_op"] = 0.0
        values["sim.parallel.elided_window_pct"] = 0.0

    values["net.rpcs_per_op"] = (counters["net.calls_sent"]
                                 + counters["net.notifications_sent"]) / ops
    values["net.wire_bytes_per_op"] = counters["net.tx_bytes"] / ops
    for name, prefixes in SPAN_METRICS:
        values[name] = _span_self_us_per_op(spans, prefixes)

    ios = counters["hw.ssd_reads"] + counters["hw.ssd_writes"]
    values["hw.ssd_reads_per_op"] = counters["hw.ssd_reads"] / ops
    values["hw.ssd_writes_per_op"] = counters["hw.ssd_writes"] / ops
    values["hw.ssd_write_bytes_per_user_byte"] = _ratio(
        counters["hw.ssd_write_bytes"], plain["put_bytes"])
    values["hw.ssd_busy_pct"] = _ratio(
        counters["hw.ssd_busy_us"],
        counters["hw.ssd_channels.gauge"] * elapsed_us, 100.0)
    values["hw.ssd_queue_wait_us_per_io"] = _ratio(
        counters["hw.ssd_queue_wait_us"], ios)
    values["hw.cpu_util_pct"] = _ratio(
        counters["hw.cpu_busy_us"],
        counters["hw.cpu_cores.gauge"] * elapsed_us, 100.0)

    values["core.io_engine.wait_us_per_cmd"] = _ratio(
        counters["io_engine.wait_us"], counters["io_engine.completed"])
    values["core.io_engine.peak_waiting"] = counters[
        "io_engine.peak_waiting.gauge"]
    values["core.io_engine.rejected_per_kop"] = (
        counters["io_engine.rejected"] / kops)

    for key in ("get_p50_us", "get_p99_us", "put_p50_us", "put_p99_us"):
        # 0 when the mix has no operation of that kind (WR has no GETs).
        values["core.client." + key] = client.get(key, 0.0)
    values["core.client.p999_us"] = plain["sim"]["p999_us"]
    values["core.client.flow_deferred_per_kop"] = (
        counters["client.flow_deferred"] / kops)
    values["core.client.flow_wait_mean_us"] = _ratio(
        counters["client.flow_wait_us"], counters["client.flow_waits"])
    values["core.client.retries_per_kop"] = counters["client.retries"] / kops
    values["core.client.timeouts_per_kop"] = (
        counters["client.timeouts"] / kops)
    values["core.client.failed_per_kop"] = plain["failed"] / kops

    values["core.datastore.get_retries_per_kop"] = (
        counters["datastore.get_retries"] / kops)
    values["core.datastore.key_log_fill_pct"] = 100.0 * counters[
        "datastore.key_log_fill.gauge"]
    values["core.datastore.value_log_fill_pct"] = 100.0 * counters[
        "datastore.value_log_fill.gauge"]
    values["core.datastore.compaction_rounds"] = counters[
        "datastore.compaction_rounds"]
    values["core.datastore.compaction_busy_pct"] = _ratio(
        counters["datastore.compaction_busy_us"],
        counters["datastore.partitions.gauge"] * elapsed_us, 100.0)
    values["core.datastore.segments_relocated"] = counters[
        "datastore.segments_relocated"]
    values["core.datastore.bytes_reclaimed"] = counters[
        "datastore.bytes_reclaimed"]

    values["core.replication.writes_forwarded_per_put"] = _ratio(
        counters["replication.writes_forwarded"], puts)
    values["core.replication.reads_shipped_pct"] = _ratio(
        counters["replication.reads_shipped"],
        counters["replication.reads_shipped"]
        + counters["replication.reads_served"], 100.0)
    values["core.replication.nacks_per_kop"] = (
        counters["replication.nacks"] / kops)
    values["core.replication.wal_appends_per_put"] = _ratio(
        counters["replication.wal_appends"], puts)
    values["core.jbof.swap_redirects_per_kop"] = (
        counters["jbof.swap_redirects"] / kops)

    values["power.joules_per_kop"] = counters["power.joules"] / kops
    values["power.mean_watts"] = counters["power.joules"] / (elapsed_us * 1e-6)

    values["obs.sim_trace_overhead_pct"] = 100.0 * (
        run.host_us_per_op([traced]) / host_us - 1.0)
    values["obs.host_trace_overhead_pct"] = 100.0 * (
        run.host_us_per_op([host]) / host_us - 1.0)
    values["obs.sim_trace_kqps_drift_pct"] = 100.0 * abs(
        traced["sim"]["kqps"] / plain["sim"]["kqps"] - 1.0)
    if reference is not None:
        values["parity.mean_err_pct"] = 100.0 * abs(
            plain["sim"]["mean_us"] / reference["sim"]["mean_us"] - 1.0)
        values["parity.p99_err_pct"] = 100.0 * abs(
            plain["sim"]["p99_us"] / reference["sim"]["p99_us"] - 1.0)
    else:
        # A reference-path workload is its own reference.
        values["parity.mean_err_pct"] = 0.0
        values["parity.p99_err_pct"] = 0.0

    detail = {"boundary_edges": fold["edges"], "span_self_us": spans,
              "failed_by_status": plain["failed_by_status"]}
    return ({name: (values[name], unit) for name, unit, _ in PER_LAYER},
            detail)


def run_one(spec, seed: int, seconds: float, trace: int,
            quick: bool) -> Tuple[dict, dict]:
    """One (workload, trace) run: prints its table, returns (line, detail)."""
    run = Invocation(spec, seed, quick)
    detail: dict = {}
    try:
        if trace:
            metrics, detail = measure_per_layer(run)
        else:
            metrics = measure_end_to_end(run, seconds)
    except timing.RepeatFailed as error:
        print("leedbench: %s" % error, file=sys.stderr)
        raise SystemExit(1)
    print("== %s seed=%d trace=%d%s =="
          % (spec.name, seed, trace, " quick" if quick else ""))
    for name, (value, unit) in metrics.items():
        print("%-48s %16.4f %s" % (name, value, unit))
    generator = run.generator()
    print("generator: %s" % json.dumps(generator))
    print("samples: %d ops per repeat, digest %s"
          % (run.children[0]["ops"], run.children[0]["digest"]))
    for problem in run.problems:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    detail.update(generator=generator, children=run.children)
    line = run.result_line(metrics)
    print(json.dumps(line))
    return line, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=8.0,
                        help="timed-phase seconds to accumulate over the "
                             "repeats of a --trace 0 run (default 8)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = per-layer "
                             "metrics (default: both)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one repeat, a fifth of the ops")
    parser.add_argument("--out", default=None,
                        help="write every run's full detail as JSON here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_SRC, "repro")):
        print("leedbench: %s has no repro package; run from a checkout "
              "of the repository" % _SRC, file=sys.stderr)
        return 2
    import workloads
    if args.workload is not None and args.workload not in workloads.SPECS:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(workloads.SPECS)))
    names = [args.workload] if args.workload else list(workloads.SPECS)
    traces = [args.trace] if args.trace is not None else [0, 1]
    correct = True
    details = {}
    for name in names:
        for trace in traces:
            line, detail = run_one(workloads.SPECS[name], args.seed, args.seconds, trace,
                                   args.quick)
            correct = correct and line["correct"]
            details["%s/trace%d" % (name, trace)] = {"result": line, **detail}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(details, handle, indent=1)
            handle.write("\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
