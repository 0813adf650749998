"""Scenario-registry edge cases through the execution policies.

Three previously-untested paths through the parallel drain:
a churn schedule that removes a *monitored* node while its monitors
still hold open obligations, an adversary mix that resolves to zero
deviants, and shard counts so high that every shard holds at most one
node.
"""

import pytest

from repro.scenarios import get_scenario, register_scenario, scenario_names
from repro.scenarios.spec import AdversaryGroup, ChurnEvent, ScenarioSpec
from repro.sim.execution import ParallelShardedPolicy, SerialPolicy

from tests.differential.harness import record_scenario


def test_churn_removes_monitored_node_mid_stream_under_all_policies():
    """Node 4 leaves after round 3 with traffic in flight; its monitors
    must convict it as unresponsive (and nobody else) under every
    policy, with identical accounting."""
    spec = ScenarioSpec(
        name="edge-churn-monitored",
        nodes=12,
        rounds=8,
        warmup_rounds=2,
        churn=(ChurnEvent(after_round=3, node_id=4),),
    )
    monitors = spec.build_config()
    assert monitors.monitors_per_node >= 1  # node 4 is monitored
    reference = record_scenario(spec, SerialPolicy(), trace=True)
    assert reference.verdicts, "departed node should be convicted"
    assert {v[0] for v in reference.verdicts} == {4}
    for policy in (
        ParallelShardedPolicy(workers=5),
        ParallelShardedPolicy(workers=2),
    ):
        record = record_scenario(spec, policy, trace=True)
        assert record == reference, f"mismatch in {record.diff(reference)}"


def test_zero_adversary_mix_resolves_to_honest_run():
    """A fractional adversary group too small to claim a single node is
    a legal spec and behaves exactly like the honest scenario."""
    spec = ScenarioSpec(
        name="edge-zero-adversaries",
        nodes=10,
        rounds=5,
        warmup_rounds=1,
        adversaries=(
            AdversaryGroup(strategy="free-rider", fraction=0.05),
        ),
    )
    assert spec.deviant_nodes() == {}
    honest = ScenarioSpec(
        name="edge-honest", nodes=10, rounds=5, warmup_rounds=1
    )
    reference = record_scenario(honest, SerialPolicy(), trace=True)
    for policy in (
        SerialPolicy(),
        ParallelShardedPolicy(workers=4),
    ):
        record = record_scenario(spec, policy, trace=True)
        assert record.verdicts == []
        assert record == reference, f"mismatch in {record.diff(reference)}"


def test_single_node_shards_match_serial():
    """More shards than nodes: every shard holds at most one node (most
    hold none).  Degenerate partitions must still merge exactly."""
    spec = ScenarioSpec(
        name="edge-single-node-shards",
        nodes=8,
        rounds=5,
        warmup_rounds=1,
    )
    reference = record_scenario(spec, SerialPolicy(), trace=True)
    for policy in (
        ParallelShardedPolicy(workers=8),
        ParallelShardedPolicy(workers=23),
    ):
        record = record_scenario(spec, policy, trace=True)
        assert record == reference, f"mismatch in {record.diff(reference)}"


def test_registered_parallel_scenario_declares_policy():
    """The registry's worker-backed entry resolves to a parallel policy
    and stays overridable."""
    assert "fig9-parallel" in scenario_names()
    spec = get_scenario("fig9-parallel")
    assert spec.policy == "parallel"
    policy = spec.make_policy()
    assert isinstance(policy, ParallelShardedPolicy)
    assert policy.workers == spec.workers
    overridden = get_scenario("fig9-parallel", policy="serial")
    assert isinstance(overridden.make_policy(), SerialPolicy)


def test_registry_rejects_bad_policy_knobs():
    with pytest.raises(ValueError, match="unknown execution policy"):
        ScenarioSpec(name="bad", nodes=4, rounds=2, warmup_rounds=0,
                     policy="quantum")
    with pytest.raises(ValueError, match="worker count"):
        ScenarioSpec(name="bad", nodes=4, rounds=2, warmup_rounds=0,
                     workers=0)
    with pytest.raises(ValueError, match="already registered"):
        register_scenario(get_scenario("fig9"))
