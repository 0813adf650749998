"""Declarative scenario subsystem.

The paper's evaluation is a matrix of named workloads; this package
declares them once (:mod:`repro.scenarios.registry`), describes each as
pure data (:class:`~repro.scenarios.spec.ScenarioSpec`) and gives the
CLI, the repo benchmark and the tests a single way to build, run, and
measure them.  Start with::

    from repro.scenarios import get_scenario
    result = get_scenario("fig7", nodes=240).run()
    result.cdf()          # the Fig. 7 series
"""

from __future__ import annotations

from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.spec import (
    RESULT_SCHEMA_VERSION,
    SELFISH_STRATEGIES,
    AdversaryGroup,
    ChurnEvent,
    JoinEvent,
    RateStep,
    ScenarioResult,
    ScenarioSpec,
)

__all__ = [
    "AdversaryGroup",
    "RESULT_SCHEMA_VERSION",
    "ChurnEvent",
    "JoinEvent",
    "RateStep",
    "ScenarioResult",
    "ScenarioSpec",
    "SELFISH_STRATEGIES",
    "all_scenarios",
    "get_scenario",
    "register_scenario",
    "scenario_names",
]
