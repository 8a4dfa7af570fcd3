"""The paper's experiments and the claims their tables must meet.

``EXPERIMENTS`` maps each experiment — the module
``repro.bench.experiments.<name>``, whose ``run(scale)`` returns an
:class:`ExperimentResult` — to its one-line description and its
claims.  The reproduction target is the paper's shape: who wins, by
what rough factor, where crossovers fall.  A claim is one such
relation on the experiment's own table, next to the number of the
paper it stands for (as EXPERIMENTS.md records it), so a bound that
drifts from the paper's number shows beside it.

``python -m repro.bench run`` prints each table and :func:`evaluate`'s
verdict on every claim of it, with the margin to the bound, and exits
non-zero when a claim fails.  The bounds were set on the ``quick``
scale.
"""

from __future__ import annotations

import operator
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import ExperimentResult

#: A claim's measurement: the table -> (measured value, comparison, bound).
Measure = Callable[[ExperimentResult], Tuple[float, str, float]]

COMPARISONS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
               "<=": operator.le, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One relation the paper reports, as it must hold on our table."""

    name: str
    paper: str
    measure: Measure


@dataclass(frozen=True)
class Experiment:
    description: str
    claims: Sequence[Claim] = ()


@dataclass(frozen=True)
class Verdict:
    """A claim measured on one table.  ``error`` is set, and the claim
    fails, when the table lacks a row or value the claim reads."""

    claim: Claim
    value: Optional[float] = None
    comparison: str = ""
    bound: Optional[float] = None
    error: str = ""

    @property
    def passed(self) -> bool:
        return not self.error and COMPARISONS[self.comparison](
            self.value, self.bound)

    @property
    def margin(self) -> float:
        """How far the value sits on the passing side of the bound
        (negative when the claim fails)."""
        if self.comparison == "==":
            return 0.0 - abs(self.value - self.bound)
        if self.comparison in (">", ">="):
            return self.value - self.bound
        return self.bound - self.value

    def __str__(self) -> str:
        head = "  %-4s  %-42s" % ("ok" if self.passed else "FAIL",
                                  self.claim.name)
        if self.error:
            return "%s  error: %s  (paper: %s)" % (head, self.error,
                                                   self.claim.paper)
        relative = " (%+.1f %%)" % (100.0 * self.margin / abs(self.bound)) \
            if self.bound else ""
        return "%s  %.6g %s %.6g  margin %+.4g%s  (paper: %s)" % (
            head, self.value, self.comparison, self.bound, self.margin,
            relative, self.claim.paper)


def evaluate(name: str, result: ExperimentResult) -> List[Verdict]:
    """Measure every claim of experiment ``name`` on ``result``."""
    verdicts = []
    for claim in EXPERIMENTS[name].claims:
        try:
            value, comparison, bound = claim.measure(result)
        except (LookupError, ValueError) as missing:
            verdicts.append(Verdict(claim, error=repr(missing)))
        else:
            verdicts.append(Verdict(claim, value, comparison, bound))
    return verdicts


# -- reading tables --------------------------------------------------------------------

def _ratio(numerator: float, denominator: float) -> float:
    return numerator / max(denominator, 1e-12)


def _rows(result: ExperimentResult, **match) -> List[Dict[str, object]]:
    return [row for row in result.rows
            if all(row.get(k) == v for k, v in match.items())]


def _cell(result: ExperimentResult, column: str, **match):
    row = result.row_for(**match)
    if row is None:
        raise LookupError("no row with %s" % match)
    return row[column]


def _versus(column: str, comparison: str, factor: float,
            mine: Dict[str, object], theirs: Dict[str, object]) -> Measure:
    """``mine[column] <comparison> factor * theirs[column]``."""
    return lambda result: (_cell(result, column, **mine), comparison,
                           factor * _cell(result, column, **theirs))


def _fixed(column: str, comparison: str, bound: float, **match) -> Measure:
    """``row[column] <comparison> bound`` for the row ``match`` selects."""
    return lambda result: (_cell(result, column, **match), comparison, bound)


# -- the claims, one function per experiment -------------------------------------------

def _fig1() -> List[Claim]:
    def at_16tb(result, pattern):
        return {row["platform"]: row["kiops_per_joule"]
                for row in _rows(result, pattern=pattern,
                                 capacity_gb=16384.0)}

    def pi_flat(result):
        pi = [row["kiops_per_joule"]
              for row in _rows(result, platform="raspberry-pi",
                               pattern="read")]
        return max(pi) - min(pi), "<", 0.2 * max(pi)

    claims = []
    for pattern, paper_server, paper_pi in (("read", "4.8x", "56.5x"),
                                            ("write", "4.7x", "26.4x")):
        for label, other, floor, paper in (
                ("server", "server-jbof", 1.5, paper_server),
                ("pi", "raspberry-pi", 15, paper_pi)):
            claims.append(Claim(
                "smartnic_over_%s_16tb[%s]" % (label, pattern), paper,
                lambda r, p=pattern, o=other, f=floor: (_ratio(
                    at_16tb(r, p)["smartnic-jbof"], at_16tb(r, p)[o]),
                    ">", f)))
    claims.append(Claim("pi_flat_with_capacity", "flat", pi_flat))
    return claims


def _table1() -> List[Claim]:
    pi = dict(platform="raspberry-pi-3b-plus")
    server = dict(platform="xeon-server-jbof")
    stingray = dict(platform="stingray-ps1100r")
    return [
        Claim("stingray_skew_over_5x_server", "1024 vs 64",
              _versus("flash_dram_skew", ">", 5, stingray, server)),
        Claim("server_skew_over_pi", "64 vs 16",
              _versus("flash_dram_skew", ">", 1, server, pi)),
        Claim("pi_gbe_per_core", "0.25",
              _fixed("gbe_per_core", "==", 0.25, **pi)),
        Claim("stingray_gbe_per_core", "12.5",
              _fixed("gbe_per_core", "==", 12.5, **stingray)),
        Claim("stingray_iops_per_core_over_100x_pi", "500 K vs 5 K",
              _versus("iops_per_core", ">", 100, stingray, pi)),
        Claim("max_load_3_nodes_over_10x_100_nodes", "shrinks with n",
              _versus("max_load_at_1m", ">", 10, stingray, pi)),
    ]


def _table3() -> List[Claim]:
    leed, fawn, kvell = (dict(system=system, value_size=256)
                         for system in ("LEED", "FAWN-JBOF", "KVell-JBOF"))

    def leed_over_fawn_latency(comparison, bound):
        return lambda r: (_ratio(_cell(r, "rd_lat_us", **leed),
                                 _cell(r, "rd_lat_us", **fawn)),
                          comparison, bound)

    return [
        Claim("leed_capacity_pct", "95.4 %",
              _fixed("max_capacity_pct", ">", 75, **leed)),
        Claim("fawn_capacity_pct", "7.7 %",
              _fixed("max_capacity_pct", "<", 40, **fawn)),
        Claim("kvell_capacity_pct", "0.9 %",
              _fixed("max_capacity_pct", "<", 5, **kvell)),
        Claim("fawn_reads_faster_than_leed", "65.4 vs 116.5 us",
              _versus("rd_lat_us", "<", 1, fawn, leed)),
        Claim("leed_reads_faster_than_kvell", "116.5 vs 416 us",
              _versus("rd_lat_us", "<", 1, leed, kvell)),
        Claim("leed_over_fawn_read_latency_low", "1.78x",
              leed_over_fawn_latency(">", 1.5)),
        Claim("leed_over_fawn_read_latency_high", "1.78x",
              leed_over_fawn_latency("<", 3.0)),
        Claim("leed_read_kqps_over_1.5x_kvell", "860 vs 300 KQPS",
              _versus("rd_kqps", ">", 1.5, leed, kvell)),
        Claim("kvell_read_kqps_over_2x_fawn", "300 vs 61 KQPS",
              _versus("rd_kqps", ">", 2, kvell, fawn)),
        Claim("leed_put_below_get", "83.9 vs 116.5 us",
              lambda r: (_cell(r, "wr_lat_us", **leed), "<",
                         _cell(r, "rd_lat_us", **leed))),
    ]


def _fig5() -> List[Claim]:
    def efficiency(result, system, value_size):
        return {row["workload"]: row["kq_per_joule"]
                for row in _rows(result, system=system,
                                 value_size=value_size)}

    def mean_advantage(value_size, other, floor):
        def measure(result):
            leed = efficiency(result, "SmartNIC-LEED", value_size)
            theirs = efficiency(result, other, value_size)
            return (statistics.mean(_ratio(leed[w], theirs[w]) for w in leed),
                    ">", floor)
        return measure

    def wins(value_size, workload, mine, theirs):
        return lambda r: (efficiency(r, mine, value_size)[workload], ">",
                          efficiency(r, theirs, value_size)[workload])

    claims = []
    for value_size, kvell_floor, fawn_floor, paper_kvell, paper_fawn in (
            (256, 1.3, 5, "4.2x", "17.5x"), (1024, 1.5, 5, "3.8x", "19.1x")):
        size = "%dB" % value_size
        claims += [
            Claim("leed_over_kvell_mean[%s]" % size, paper_kvell,
                  mean_advantage(value_size, "Server-KVell", kvell_floor)),
            Claim("leed_over_fawn_mean[%s]" % size, paper_fawn,
                  mean_advantage(value_size, "Embedded-FAWN", fawn_floor)),
        ]
        for workload in ("YCSB-B", "YCSB-D"):
            claims += [
                Claim("leed_beats_kvell[%s,%s]" % (size, workload),
                      "LEED > KVell > FAWN", wins(value_size, workload,
                                        "SmartNIC-LEED", "Server-KVell")),
                Claim("kvell_beats_fawn[%s,%s]" % (size, workload),
                      "LEED > KVell > FAWN",
                      wins(value_size, workload,
                           "Server-KVell", "Embedded-FAWN")),
            ]
    return claims


def _fig6() -> List[Claim]:
    def latency_grows(workload, system):
        def measure(result):
            series = sorted(_rows(result, workload=workload, system=system),
                            key=lambda r: r["offered_kqps"])
            return (series[-1]["avg_latency_ms"], ">=",
                    series[0]["avg_latency_ms"] * 0.8)
        return measure

    def leed_over_fawn100_peak(workload, factor):
        def measure(result):
            leed = max(r["kqps"] for r in _rows(
                result, workload=workload, system="SmartNIC-LEED"))
            fawn100 = max(r["kqps"] for r in _rows(
                result, workload=workload, system="Embedded-FAWN(100)"))
            return leed, ">", factor * fawn100
        return measure

    def fawn_over_leed_latency(workload):
        def measure(result):
            leed = min(r["avg_latency_ms"] for r in _rows(
                result, workload=workload, system="SmartNIC-LEED"))
            fawn = min(r["avg_latency_ms"] for r in _rows(
                result, workload=workload, system="Embedded-FAWN(10)"))
            return fawn, ">", 2 * leed
        return measure

    claims = []
    for workload in ("YCSB-A", "YCSB-B", "YCSB-C"):
        for system in ("SmartNIC-LEED", "Embedded-FAWN(10)"):
            claims.append(Claim(
                "latency_grows_with_load[%s,%s]" % (workload, system),
                "latency rises with load", latency_grows(workload, system)))
        # Write-heavy YCSB-A is bounded by hot-key chain serialization at
        # simulator scale, so its margin over the FAWN(100) ideal is
        # narrowest.
        claims += [
            Claim("leed_peak_over_fawn100[%s]" % workload,
                  "FAWN(100) 22x below KVell, KVell 2.9x LEED",
                  leed_over_fawn100_peak(
                      workload, 1 if workload == "YCSB-A" else 2)),
            Claim("fawn_latency_over_2x_leed[%s]" % workload,
                  "FAWN ms, LEED sub-ms", fawn_over_leed_latency(workload)),
        ]
    return claims


def _fig7() -> List[Claim]:
    claims = []
    for workload in ("YCSB-B", "YCSB-C"):
        for skew in (0.9, 0.99):
            on = dict(workload=workload, skew=skew, crrs="on")
            off = dict(workload=workload, skew=skew, crrs="off")
            at = "[%s,%s]" % (workload, skew)
            claims += [
                Claim("crrs_raises_kqps" + at, "up to 7.3x",
                      _versus("kqps", ">", 1, on, off)),
                Claim("crrs_cuts_avg_latency" + at, "-86 %",
                      _versus("avg_ms", "<", 1, on, off)),
            ]
    on = dict(workload="YCSB-C", skew=0.99, crrs="on")
    off = dict(workload="YCSB-C", skew=0.99, crrs="off")
    claims.append(Claim(
        "crrs_kqps_ratio[YCSB-C,0.99]", "7.3x at 0.9",
        lambda r: (_ratio(_cell(r, "kqps", **on), _cell(r, "kqps", **off)),
                   ">", 1.2)))
    return claims


def _fig8() -> List[Claim]:
    claims = []
    for skew in (0.9, 0.99):
        on = dict(workload="YCSB-B", skew=skew, ls="on")
        off = dict(workload="YCSB-B", skew=skew, ls="off")
        claims += [
            Claim("load_aware_keeps_kqps[YCSB-B,%s]" % skew, "+52.2 %",
                  _versus("kqps", ">", 0.9, on, off)),
            Claim("load_aware_halves_p999[YCSB-B,%s]" % skew, "-33.7 %",
                  _versus("p999_ms", "<", 0.5, on, off)),
        ]
    claims.append(Claim(
        "load_aware_raises_kqps[YCSB-B,0.99]", "+52.2 %",
        _versus("kqps", ">", 1, dict(workload="YCSB-B", skew=0.99, ls="on"),
                dict(workload="YCSB-B", skew=0.99, ls="off"))))
    return claims


def _fig9() -> List[Claim]:
    def phase_rows(phase):
        return lambda r: (len(_rows(r, workload="YCSB-B", phase=phase)),
                          ">", 0)

    def steady_min(result):
        return min(r["kqps"] for r in _rows(
            result, workload="YCSB-B", phase="steady")), ">", 0

    def never_collapses(result):
        # The last two buckets are the wind-down, where the drivers finish.
        active = [r["kqps"] for r in _rows(result, workload="YCSB-B")[:-2]]
        return min(active), ">", 0.1 * max(active)

    return [
        Claim("join_runs[YCSB-B]", "join mid-run", phase_rows("joining")),
        Claim("leave_runs[YCSB-B]", "leave mid-run", phase_rows("leaving")),
        Claim("steady_buckets[YCSB-B]", "steady phases", phase_rows("steady")),
        Claim("steady_kqps[YCSB-B]", "steady phases", steady_min),
        Claim("dips_above_10pct_of_peak[YCSB-B]", "dips up to 66 %",
              never_collapses),
    ]


def _fig10() -> List[Claim]:
    on = dict(value_size=1024, skew=0.99, swap="on")
    off = dict(value_size=1024, skew=0.99, swap="off")
    return [
        Claim("swap_redirects[1KB,0.99]", "swap engages at 0.99",
              _fixed("redirects", ">", 0, **on)),
        Claim("swap_cuts_p999[1KB,0.99]", "-32 %",
              _versus("p999_ms", "<", 1, on, off)),
        Claim("swap_keeps_kqps[1KB,0.99]", "+15.4 %",
              _versus("kqps", ">", 0.9, on, off)),
        Claim("swap_runs_at_low_skew[1KB,0.1]", "runs at every skew",
              _fixed("kqps", ">", 0, value_size=1024, skew=0.1, swap="on")),
    ]


def _fig11() -> List[Claim]:
    def del_near_put(value_size):
        def measure(result):
            put = _cell(result, "total_us", command="PUT",
                        value_size=value_size)
            dele = _cell(result, "total_us", command="DEL",
                         value_size=value_size)
            return abs(dele - put), "<", 0.3 * put
        return measure

    claims = []
    for value_size in (256, 1024):
        size = "%dB" % value_size
        for command in ("GET", "PUT", "DEL"):
            claims.append(Claim(
                "ssd_dominates[%s,%s]" % (command, size), "97.4-97.6 %",
                _fixed("ssd_pct", ">", 90, command=command,
                       value_size=value_size)))
        claims += [
            Claim("put_below_get[%s]" % size, "84 vs 116 us",
                  _versus("total_us", "<", 1,
                          dict(command="PUT", value_size=value_size),
                          dict(command="GET", value_size=value_size))),
            Claim("del_near_put[%s]" % size, "~82 vs ~84 us",
                  del_near_put(value_size)),
        ]
    return claims


def _fig12() -> List[Claim]:
    def fawn_rises(result):
        fawn = sorted(_rows(result, system="FAWN-pi-1024B"),
                      key=lambda r: r["put_pct"])
        return fawn[-1]["kqps"], ">", 1.3 * fawn[0]["kqps"]

    def leed_flat(result):
        leed = [r["kqps"] for r in _rows(result, system="LEED-stingray-1024B")]
        return min(leed), ">", 0.7 * max(leed)

    return [
        Claim("fawn_rises_with_puts", "rises", fawn_rises),
        Claim("leed_within_30pct", "~-3 % per +10 % PUT", leed_flat),
    ]


def _fig13() -> List[Claim]:
    def kqps(result, part, x):
        return _cell(result, "kqps", part=part, workload="WR-ONLY", x=x)

    def step(fewer, more):
        return lambda r: (kqps(r, "13a", more), ">=", kqps(r, "13a", fewer))

    claims = [Claim("intra_never_slows[WR-ONLY,%d->%d]" % (fewer, more),
                    "rises with workers", step(fewer, more))
              for fewer, more in ((1, 2), (2, 4), (4, 8))]
    claims += [
        Claim("intra_8_over_1[WR-ONLY]", "1.9x",
              lambda r: (kqps(r, "13a", 8) / kqps(r, "13a", 1), ">=", 1.9)),
        Claim("inter_4_over_1[WR-ONLY]", "+17.9 %",
              lambda r: (kqps(r, "13b", 4) / kqps(r, "13b", 1), ">", 1.1)),
    ]
    return claims


def _fig14() -> List[Claim]:
    def leed_series(result, workload):
        return sorted(_rows(result, workload=workload,
                            system="SmartNIC-LEED"),
                      key=lambda r: r["offered_kqps"])

    claims = []
    for workload in ("YCSB-B", "YCSB-WR"):
        claims += [
            Claim("leed_rows[%s]" % workload, "same shape as fig. 6",
                  lambda r, w=workload: (len(leed_series(r, w)), ">", 0)),
            Claim("kqps_tracks_offered_load[%s]" % workload,
                  "same shape as fig. 6",
                  lambda r, w=workload: (leed_series(r, w)[0]["kqps"], "<=",
                                         leed_series(r, w)[-1]["kqps"] * 1.2)),
        ]
    return claims


def _ablation_craq() -> List[Claim]:
    ship, craq = dict(mode="ship"), dict(mode="craq")
    return [
        Claim("craq_sends_version_queries", "more cross-JBOF traffic",
              _fixed("version_queries", ">", 0, **craq)),
        Claim("ship_sends_no_version_queries", "more cross-JBOF traffic",
              _fixed("version_queries", "==", 0, **ship)),
        Claim("craq_extra_bytes", "more cross-JBOF traffic",
              _fixed("extra_bytes", ">", 0, **craq)),
        Claim("craq_no_kqps_gain", "no performance gain",
              _versus("kqps", "<", 1.15, craq, ship)),
    ]


def _ablation_lsm() -> List[Claim]:
    claims = []
    for workload in ("YCSB-WR", "YCSB-A"):
        log = dict(design="circular-log", workload=workload)
        lsm = dict(design="lsm-tree", workload=workload)
        claims += [
            Claim("lsm_cpu_over_1.5x_log[%s]" % workload, "merge-sort cycles",
                  _versus("cpu_us_per_op", ">", 1.5, lsm, log)),
            Claim("lsm_amplifies_writes[%s]" % workload, "level rewrites",
                  _versus("write_amplification", ">", 1, lsm, log)),
        ]
    return claims


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "Energy efficiency vs capacity, raw 4KB IO, 3 platforms",
        _fig1()),
    "table1": Experiment(
        "Platform comparison (skew, compute density, max load)",
        _table1()),
    "table3": Experiment(
        "Single-node FAWN-JBOF / KVell-JBOF / LEED", _table3()),
    "fig5": Experiment(
        "Queries/Joule, 6 YCSB workloads, 3 systems", _fig5()),
    "fig6": Experiment(
        "Latency vs throughput, 6 workloads, 1KB", _fig6()),
    "fig7": Experiment("CRRS on/off vs Zipf skew", _fig7()),
    "fig8": Experiment(
        "Load-aware scheduling on/off vs Zipf skew", _fig8()),
    "fig9": Experiment(
        "Throughput timeline during node join/leave", _fig9()),
    "fig10": Experiment("Intra-JBOF data swapping on/off", _fig10()),
    "fig11": Experiment("GET/PUT/DEL latency breakdown", _fig11()),
    "fig12": Experiment(
        "Throughput vs PUT fraction, FAWN-Pi vs LEED", _fig12()),
    "fig13": Experiment(
        "Compaction intra-/inter-parallelism", _fig13()),
    "fig14": Experiment(
        "Latency vs throughput, 256B objects (appendix)", _fig14()),
    "ablation_craq": Experiment(
        "Dirty reads: CRRS shipping vs CRAQ version queries",
        _ablation_craq()),
    "ablation_lsm": Experiment(
        "Data structure: circular log vs leveled LSM-tree",
        _ablation_lsm()),
    "ablation_replication": Experiment(
        "Replication: chain vs CRAQ vs ABD quorums"),
}
