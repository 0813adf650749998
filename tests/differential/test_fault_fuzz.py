"""FaultFuzzHarness: Hypothesis-driven fault & adversary fuzzing.

Generalises the property specs into a registered scenario generator:
random fault schedules x adversary mixes x churn (including a deviant
leaving just before its conviction), with the three fuzz invariants
asserted on every draw — zero false convictions, every seeded deviant
convicted, and bit-identity across execution policies.  On failure
Hypothesis shrinks the draw; the test prints the JSON spec so the
failing scenario replays exactly via ``repro fuzz --replay``.

The draws ride on :mod:`repro.scenarios.fuzz`: Hypothesis supplies the
entropy (so its shrinker steers generation), the module supplies the
invariant-safe envelope and the checking machinery shared with the
``repro fuzz`` CLI and the nightly CI lane.
"""

import json
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.fuzz import (  # noqa: E402
    FuzzConfig,
    draw_spec,
    run_iteration,
)
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.sim.faults import OutageFault  # noqa: E402

#: The same serial-vs-worker-processes cross-check as the nightly
#: ``repro fuzz`` lane, at a smaller scale.
CONFIG = FuzzConfig(
    iterations=1,
    policies=("serial", "parallel"),
    workers=2,
    min_nodes=8,
    max_nodes=13,
    min_rounds=7,
    max_rounds=8,
    max_faults=3,
    shrink=False,
)


# Tier-1 must give the same answer on the same tree, so the six draws
# are derandomized and no failing draw is kept in ``.hypothesis`` to be
# replayed; random exploration belongs to the ``fuzz-smoke`` and nightly
# ``repro fuzz`` lanes.  The open finding is pinned below.
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
    database=None,
)
@given(entropy=st.integers(min_value=0, max_value=2**48))
# This entropy once convicted an honest node: its declaration went to
# an outaged designated monitor and the old one-monitor-per-round
# redeclaration retry hit a just-churned peer, missing the obligation
# deadline.  Fixed by fanning the retry to every untried monitor;
# pinned so the draw re-runs on every CI pass.
@example(entropy=1_509_309_443)
# Finding B: the outaged node 1's verdicts were dropped after the
# deduplication, taking the other monitors' copies of the verdict on
# partial-forwarder 9 with them.  The oracle now drops them first.
@example(entropy=50810)
def test_fuzz_invariants_hold_on_random_draws(entropy):
    """The harness proper: one random scenario per example, all three
    invariants checked, the replayable spec printed on failure."""
    spec = draw_spec(random.Random(entropy), entropy, CONFIG)
    violations, _record = run_iteration(spec, CONFIG)
    assert not violations, (
        f"{violations}; replay spec: {json.dumps(spec.to_json())}"
    )


def test_finding_b_entropy_50810_convicts_every_deviant():
    spec = draw_spec(random.Random(50810), 50810, CONFIG)
    violations, _record = run_iteration(spec, CONFIG)
    assert not violations, violations


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "open finding A (ROADMAP item 1): fault-fuzz at 60x20 convicts "
        "honest nodes 6, 9, 34, 36, 38 and 40"
    ),
)
def test_finding_a_fault_fuzz_60x20_convicts_no_honest_node():
    spec = get_scenario("fault-fuzz", nodes=60, rounds=20)
    outaged = {
        fault.node_id
        for fault in spec.fault_schedule
        if isinstance(fault, OutageFault)
    }
    convicted = set(spec.run().convicted)
    assert convicted <= set(spec.deviant_nodes()) | outaged, convicted


@given(entropy=st.integers(min_value=0, max_value=2**48))
@settings(max_examples=20, deadline=None)
def test_generated_specs_round_trip_through_json(entropy):
    """The shrunken-repro artifact is lossless: spec -> JSON -> spec is
    the identity, field for field."""
    spec = draw_spec(random.Random(entropy), entropy, CONFIG)
    clone = ScenarioSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert clone == spec


@given(entropy=st.integers(min_value=0, max_value=2**48))
@settings(max_examples=20, deadline=None)
def test_generated_specs_stay_in_safe_envelope(entropy):
    """Generator self-check: draws only fault the data plane, keep
    delays to one chain stage, and never target deviants with outages
    or cuts — the envelope the invariants are proved for."""
    from repro.sim.faults import (
        DelayFault,
        LinkCutFault,
        LossFault,
        OutageFault,
    )
    from repro.scenarios.fuzz import DELAY_KIND_CHOICES, EXCHANGE_KINDS

    spec = draw_spec(random.Random(entropy), entropy, CONFIG)
    deviants = set(spec.deviant_nodes())
    delays = 0
    for fault in spec.fault_schedule:
        if isinstance(fault, LossFault):
            assert set(fault.kinds) <= set(EXCHANGE_KINDS)
        if isinstance(fault, DelayFault):
            delays += 1
            assert any(
                set(fault.kinds) <= set(choice)
                for choice in DELAY_KIND_CHOICES
            )
        if isinstance(fault, OutageFault):
            assert fault.node_id not in deviants
        if isinstance(fault, LinkCutFault):
            assert not {n for link in fault.links for n in link} & deviants
    assert delays <= 1


def test_deviant_leaving_before_conviction_is_still_settled():
    """The churn x adversary corner the ISSUE singles out: a deviant
    that leaves mid-run (possibly before its conviction lands) must
    still end up convicted — leaving looks exactly like refusing."""
    from repro.scenarios.spec import ChurnEvent, ScenarioSpec

    spec = ScenarioSpec(
        name="leaver",
        nodes=12,
        rounds=8,
        warmup_rounds=2,
        node_strategies=((5, "silent-receiver"),),
        churn=(ChurnEvent(after_round=2, node_id=5),),
        seed=29,
    )
    violations, record = run_iteration(spec, CONFIG)
    assert not violations
    assert 5 in {v[0] for v in record["verdicts"]}
