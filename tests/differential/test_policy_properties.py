"""Property-based policy equivalence over randomized scenarios.

Hypothesis drives the spec space the registry does not enumerate:
arbitrary membership sizes, adversary mixes, churn schedules, worker
counts, and (stateful) drop rules.  Whatever it generates, a parallel
run must be bit-identical to the serial reference — including the drop
decisions of an RNG-backed loss rule, which consume randomness in send
order and therefore detect any order divergence instantly.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.scenarios.spec import (  # noqa: E402
    AdversaryGroup,
    ChurnEvent,
    ScenarioSpec,
)
from repro.sim.execution import ParallelShardedPolicy  # noqa: E402
from repro.sim.faults import LossFault  # noqa: E402
from repro.sim.network import Network  # noqa: E402
from repro.sim.rng import SeedSequence  # noqa: E402

from tests.differential.harness import record_scenario  # noqa: E402

STRATEGIES = st.sampled_from(
    ["free-rider", "partial-forwarder", "silent-receiver",
     "declaration-skipper"]
)


@st.composite
def specs(draw):
    nodes = draw(st.integers(min_value=6, max_value=14))
    rounds = draw(st.integers(min_value=4, max_value=6))
    adversaries = ()
    if draw(st.booleans()):
        count = draw(st.integers(min_value=1, max_value=max(1, nodes // 4)))
        adversaries = (
            AdversaryGroup(strategy=draw(STRATEGIES), count=count),
        )
    churn = ()
    if draw(st.booleans()):
        node_id = draw(st.integers(min_value=1, max_value=nodes - 1))
        after = draw(st.integers(min_value=1, max_value=rounds - 2))
        churn = (ChurnEvent(after_round=after, node_id=node_id),)
    return ScenarioSpec(
        name="hypothesis-differential",
        nodes=nodes,
        rounds=rounds,
        warmup_rounds=1,
        stream_rate_kbps=draw(st.sampled_from([150.0, 300.0])),
        adversaries=adversaries,
        churn=churn,
        seed=draw(st.integers(min_value=0, max_value=2**32)),
    )


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    spec=specs(),
    workers=st.integers(min_value=1, max_value=5),
    with_loss=st.booleans(),
)
def test_random_scenarios_are_policy_invariant(spec, workers, with_loss):
    def drop_rule():
        if not with_loss:
            return None
        return LossFault(probability=0.1, kinds=("ack", "serve")).build(
            SeedSequence(spec.seed).stream("differential-loss"), Network()
        )

    reference = record_scenario(
        spec, None, trace=True, drop_rule=drop_rule()
    )
    policy = ParallelShardedPolicy(workers=workers)
    record = record_scenario(
        spec, policy, trace=True, drop_rule=drop_rule()
    )
    assert record == reference, f"mismatch in {record.diff(reference)}"
