"""Deterministic search strategies over a :class:`ConfigSpace`.

Three strategies, all driven by named RNG streams
(:func:`repro.sim.rng.derive_stream`), so the same seed replays the
same proposal sequence exactly:

``grid``
    Exhaustive declaration-order sweep, truncated at the budget.
``random``
    Budget seeded-uniform samples (duplicates are free — the fleet's
    memo cache absorbs them without a second simulation).
``hill``
    Successive-halving hill-climb: a random cohort screened at
    reduced fidelity (``ops_fraction`` rungs), survivors promoted to
    full fidelity, then greedy adjacent-value climbing from the
    incumbent until the budget runs out.

Fitness is multi-objective lexicographic: *(feasible, primary, kqps)*
where ``feasible`` means zero failed ops and p99 within the SLO,
``primary`` is requests/Joule, and sim-time kqps breaks ties.  The
*budget* counts proposed evaluations whether they hit the memo cache
or run live — a resumed search therefore walks the identical
trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.rng import derive_stream

from .fleet import FleetRunner, make_trial
from .space import ConfigSpace, config_digest

#: Reduced-fidelity rungs for successive halving: fraction of the
#: scale's ops to simulate while screening, before full-fidelity
#: promotion.
HALVING_RUNGS = (0.25, 0.5)


@dataclass(frozen=True)
class FitnessSpec:
    """What "better" means for this search.

    The primary objective is sim-derived requests/Joule — fully
    deterministic.  ``slo_p99_us`` caps feasible p99; 0 disables the
    SLO.
    """

    slo_p99_us: float = 0.0

    def __post_init__(self):
        if self.slo_p99_us < 0.0:
            raise ValueError("slo_p99_us must be >= 0")

    def feasible(self, row: dict) -> bool:
        if row["failed"]:
            return False
        if self.slo_p99_us > 0.0 and row["p99_latency_us"] > self.slo_p99_us:
            return False
        return True

    def fitness(self, row: dict) -> Tuple[int, float, float]:
        return (int(self.feasible(row)), row["requests_per_joule"],
                row["sim_ops_per_sec"] / 1000.0)


class Evaluator:
    """Budgeted, trajectory-recording bridge from points to metrics.

    Every proposed evaluation appends one trajectory row (whether it
    ran live or came from the memo cache) and counts against the
    budget; :meth:`exhausted` tells strategies when to stop.  The
    trajectory digest covers only deterministic coordinates — trial
    index, stage, fidelity, point, figure digest — never wall-clock or
    cache-ness, so cached replays digest identically to live runs.
    """

    def __init__(self, space: ConfigSpace, runner: FleetRunner,
                 fitness: FitnessSpec, scale: str, workload: str,
                 value_size: int, seed: int, budget: int):
        self.space = space
        self.runner = runner
        self.fitness = fitness
        self.scale = scale
        self.workload = workload
        self.value_size = value_size
        self.seed = seed
        self.budget = budget
        self.spent = 0
        self.trials: List[dict] = []

    def remaining(self) -> int:
        return max(self.budget - self.spent, 0)

    def exhausted(self) -> bool:
        return self.spent >= self.budget

    def evaluate(self, points: List[dict], stage: str,
                 ops_fraction: float = 1.0,
                 charge: bool = True) -> List[dict]:
        """Evaluate points (one fleet batch); returns trial records.

        ``charge=False`` exempts the evaluation from the budget (used
        for the mandatory default-config reference trial).
        """
        if charge:
            points = points[:self.remaining()]
            self.spent += len(points)
        if not points:
            return []
        payloads = []
        for point in points:
            point = self.space.check_point(point)
            payloads.append(make_trial(
                point, self.space.overrides(point), self.scale,
                self.workload, self.value_size, self.seed,
                ops_fraction=ops_fraction))
        rows = self.runner.run(payloads)
        records = []
        for payload, row in zip(payloads, rows):
            record = {
                "trial": len(self.trials),
                "stage": stage,
                "ops_fraction": ops_fraction,
                "point": payload["point"],
                "point_digest": config_digest(payload["point"]),
                "metrics": row,
                "feasible": self.fitness.feasible(row),
                "fitness": list(self.fitness.fitness(row)),
            }
            self.trials.append(record)
            records.append(record)
        return records

    def best(self, records: Optional[List[dict]] = None,
             full_fidelity_only: bool = True) -> Optional[dict]:
        """Lexicographic argmax; ties broken by earliest trial index."""
        pool = self.trials if records is None else records
        if full_fidelity_only:
            pool = [r for r in pool if r["ops_fraction"] >= 1.0]
        winner = None
        for record in pool:
            if winner is None or tuple(record["fitness"]) > tuple(
                    winner["fitness"]):
                winner = record
        return winner

    def trajectory_digest(self) -> str:
        return config_digest([
            [r["trial"], r["stage"], r["ops_fraction"], r["point_digest"],
             r["metrics"]["figure_digest"]]
            for r in self.trials])


# -- strategies --------------------------------------------------------------

def search_grid(space: ConfigSpace, evaluator: Evaluator) -> None:
    """Declaration-order sweep, truncated at the budget."""
    batch: List[dict] = []
    for point in space.grid():
        batch.append(point)
        if len(batch) == 8:
            evaluator.evaluate(batch, "grid")
            batch = []
        if evaluator.exhausted():
            return
    if batch:
        evaluator.evaluate(batch, "grid")


def search_random(space: ConfigSpace, evaluator: Evaluator,
                  seed: int) -> None:
    """Budget uniform samples from the ``explore.random`` stream."""
    rng = derive_stream(seed, "explore.random")
    while not evaluator.exhausted():
        batch = [space.sample(rng)
                 for _ in range(min(8, evaluator.remaining()))]
        evaluator.evaluate(batch, "random")


def search_hill(space: ConfigSpace, evaluator: Evaluator,
                seed: int) -> None:
    """Successive-halving screen, then greedy adjacent-value climbing.

    Cohort sizing: roughly half the budget funds the screen (a cohort
    at rung fractions, halved per rung), the rest funds full-fidelity
    promotions and climbing.  Every arm of the search is deterministic
    given the seed: the cohort comes from the ``explore.hill`` stream,
    rung survivorship from lexicographic fitness (earliest-trial
    tie-break), and neighborhoods enumerate in declaration order.
    """
    rng = derive_stream(seed, "explore.hill")
    cohort_size = min(max(min(evaluator.budget // 2, 16), 2), space.size())
    cohort = [space.default_point()]
    seen = {config_digest(cohort[0])}
    attempts = 0
    while len(cohort) < cohort_size and attempts < 64 * cohort_size:
        attempts += 1
        point = space.sample(rng)
        digest = config_digest(point)
        if digest in seen:
            continue
        seen.add(digest)
        cohort.append(point)

    survivors = cohort
    for rung, fraction in enumerate(HALVING_RUNGS):
        if evaluator.exhausted() or len(survivors) <= 1:
            break
        records = evaluator.evaluate(survivors, "screen:%d" % rung,
                                     ops_fraction=fraction)
        if not records:
            return
        ranked = sorted(records, key=lambda r: (tuple(r["fitness"]),
                                                -r["trial"]), reverse=True)
        survivors = [r["point"] for r in
                     ranked[:max(len(ranked) // 2, 1)]]

    promoted = evaluator.evaluate(survivors[:4], "promote")
    incumbent = evaluator.best(promoted)
    if incumbent is None:
        return

    while not evaluator.exhausted():
        moves = [point for point in space.neighbors(incumbent["point"])
                 if config_digest(point) not in seen]
        if not moves:
            break
        for point in moves:
            seen.add(config_digest(point))
        records = evaluator.evaluate(moves, "climb")
        challenger = evaluator.best(records)
        if (challenger is None or tuple(challenger["fitness"])
                <= tuple(incumbent["fitness"])):
            break
        incumbent = challenger


STRATEGIES: Dict[str, Callable] = {
    "grid": lambda space, evaluator, seed: search_grid(space, evaluator),
    "random": search_random,
    "hill": search_hill,
}


def run_search(strategy: str, space: ConfigSpace,
               evaluator: Evaluator, seed: int) -> dict:
    """Reference trial for the default config, then the strategy.

    Returns ``{"default": record, "best": record}``; every evaluated
    trial sits in ``evaluator.trials``.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r (have %s)"
                         % (strategy, ", ".join(sorted(STRATEGIES))))
    default_records = evaluator.evaluate([space.default_point()],
                                         "default", charge=False)
    STRATEGIES[strategy](space, evaluator, seed)
    return {"default": default_records[0] if default_records else None,
            "best": evaluator.best()}
