"""Production-scenario library: composable stress episodes + goldens.

See ``docs/scenarios.md`` for the DSL reference and catalog, or::

    python -m repro.scenarios list
    python -m repro.scenarios run failure_burst --scale smoke
"""

from repro.scenarios import catalog  # noqa: F401  (registers the catalog)
from repro.scenarios.dsl import (SCALES, AutoscalerConfig, Injection, Phase,
                                 Scenario, ScenarioScale, Segment,
                                 build_scenario, inject, register_scenario,
                                 scenario_names)
from repro.scenarios.load import CurveDriver, WriteLedger, judge
from repro.scenarios.runner import ScenarioRuntime, run_scenario

__all__ = [
    "AutoscalerConfig",
    "CurveDriver",
    "Injection",
    "Phase",
    "SCALES",
    "Scenario",
    "ScenarioRuntime",
    "ScenarioScale",
    "Segment",
    "WriteLedger",
    "build_scenario",
    "inject",
    "judge",
    "register_scenario",
    "run_scenario",
    "scenario_names",
]
