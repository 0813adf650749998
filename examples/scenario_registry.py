"""Drive the paper's evaluation matrix through the scenario registry.

Runs three registered scenarios — the honest Fig. 7 workload, a
free-rider conviction, and mid-stream churn — then declares and runs a
custom scenario, all through the repro.api facade the CLI is
built on.  Run with::

    PYTHONPATH=src python examples/scenario_registry.py
"""

from repro import api
from repro.scenarios import (
    AdversaryGroup,
    ChurnEvent,
    ScenarioSpec,
    register_scenario,
    scenario_names,
)


def main() -> None:
    print("registered scenarios:", ", ".join(scenario_names()))

    print("\n-- fig7 (scaled down), on two worker processes --")
    result = api.run_scenario(
        "fig7", nodes=24, rounds=10, policy="parallel", workers=2,
    )
    for key, value in result.summary().items():
        print(f"  {key:<16}: {value}")

    print("\n-- selfish: one free-rider, convicted --")
    result = api.run_scenario("selfish")
    print(f"  convicted {list(result.convicted)} "
          f"(deviants were {sorted(result.spec.deviant_nodes())})")

    print("\n-- a custom scenario: churn plus a coalition --")
    register_scenario(ScenarioSpec(
        name="flash-crowd",
        description="free-riding fifth while a relay crashes",
        nodes=20,
        rounds=14,
        warmup_rounds=3,
        adversaries=(AdversaryGroup(strategy="free-rider", fraction=0.2),),
        churn=(ChurnEvent(after_round=6, node_id=9),),
    ))
    result = api.run_scenario("flash-crowd")
    print(f"  mean download : {result.mean_kbps:.0f} Kbps")
    print(f"  continuity    : {result.continuity:.1%}")
    print(f"  convicted     : {list(result.convicted)}")


if __name__ == "__main__":
    main()
