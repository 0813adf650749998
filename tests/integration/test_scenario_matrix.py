"""The whole scenario registry, run end to end at reduced scale.

One parametrised sweep replaces the per-experiment hand-wired session
setups: every registered simulation scenario must build, run, and
uphold the protocol's global invariants — honest scenarios never
convict, adversarial scenarios convict exactly their deviants, churn
scenarios keep streaming — under both execution policies.
"""

import pytest

from repro.scenarios import get_scenario, scenario_names
from repro.sim.execution import ParallelShardedPolicy, SerialPolicy
from repro.sim.faults import OutageFault


#: Scale every scenario down to smoke size (``repro run --scenario NAME``
#: runs the registry at figure scale).
SMALL = dict(nodes=16, rounds=8, warmup_rounds=2)

#: Scenarios whose declared membership/churn/arrival/ramp schedule must
#: not be shrunk (they name concrete node ids or concrete rounds;
#: fig10 is topology-only).
FIXED_SCALE = {
    "churn",
    "coalition-third",
    "fig10",
    "join-churn",
    "coalition-mixed",
    "rate-ramp",
}


def _small(name):
    spec = get_scenario(name)
    if name in FIXED_SCALE:
        return spec
    if spec.population:
        return spec.with_overrides(**SMALL, population=64)
    return spec.with_overrides(**SMALL)


@pytest.mark.parametrize("name", [n for n in scenario_names()
                                  if n != "fig10"])
def test_every_scenario_runs_and_measures(name):
    spec = _small(name)
    result = spec.run()
    assert result.mean_kbps > 0
    assert result.messages_sent > 0
    departed = {event.node_id for event in spec.churn}
    assert len(result.node_kbps) == spec.nodes - 1 - len(departed)
    deviants = set(spec.deviant_nodes())
    # Fault-schedule excusal, same rules as the fuzz harness: a node in
    # outage is observationally a refusal (legitimately convicted), and
    # its own verdicts cover rounds it never witnessed (discounted).
    outaged = {
        fault.node_id
        for fault in spec.fault_schedule
        if isinstance(fault, OutageFault)
    }
    trusted_convicted = {
        v.node
        for v in result.session.all_verdicts()
        if v.detected_by not in outaged
    }
    if deviants:
        # Soundness: only deviants (or churned/outaged nodes) convicted.
        assert trusted_convicted <= deviants | departed | outaged
    elif not spec.churn and spec.protocol == "pag":
        # No false positives on honest scenarios.
        assert result.verdicts == 0, result.convicted


@pytest.mark.parametrize(
    "policy", [SerialPolicy(), ParallelShardedPolicy(workers=4)]
)
def test_adversarial_scenarios_convict_under_both_policies(policy):
    result = _small("selfish").run(policy)
    deviants = set(_small("selfish").deviant_nodes())
    assert set(result.convicted) == deviants


def test_churn_scenario_streams_through_departures():
    result = get_scenario("churn").run(ParallelShardedPolicy(workers=3))
    assert result.continuity > 0.9
    assert set(result.convicted) == {5, 11}
