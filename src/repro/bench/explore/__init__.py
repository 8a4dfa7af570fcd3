"""Parallel design-space autotuner for LEED configurations.

Layers (see docs/explore.md):

- :mod:`.space` — declarative, validated config spaces;
- :mod:`.fleet` — memoized, process-pooled trial execution;
- :mod:`.strategies` — deterministic grid / random / successive-halving
  hill-climb searches with multi-objective fitness;
- :mod:`.report` — Pareto front, BENCH_explore.json, markdown summary.

CLI: ``python -m repro.bench.explore --budget N --seed S``.
"""

from .fleet import FleetRunner, make_trial, run_trial
from .report import build_report, pareto_front, write_markdown
from .space import (SPACES, ConfigSpace, Dimension, config_digest,
                    leed_space)
from .strategies import (STRATEGIES, Evaluator, FitnessSpec, run_search,
                         search_grid, search_hill, search_random)

__all__ = [
    "FleetRunner", "make_trial", "run_trial",
    "build_report", "pareto_front", "write_markdown",
    "SPACES", "ConfigSpace", "Dimension", "config_digest",
    "leed_space",
    "STRATEGIES", "Evaluator", "FitnessSpec", "run_search",
    "search_grid", "search_hill", "search_random",
]
