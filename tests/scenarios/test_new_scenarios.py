"""The PR-5 scenario family: join churn, mixed coalitions, rate ramps.

Covers the new :class:`ScenarioSpec` surface (arrival schedules, the
per-node strategy map, rate steps) — validation, protocol semantics,
and CDF golden checks locking each registered scenario's measured
series (every number below is a deterministic function of the spec's
seed; the differential suite separately proves the same runs are
bit-identical under parallel execution).
"""

import dataclasses

import pytest

from repro.scenarios import (
    AdversaryGroup,
    ChurnEvent,
    JoinEvent,
    RateStep,
    get_scenario,
    scenario_names,
)
from repro.scenarios.spec import ScenarioSpec

# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_new_family_is_registered():
    assert {"join-churn", "coalition-mixed", "rate-ramp"} <= set(
        scenario_names()
    )


def test_join_event_validation():
    with pytest.raises(ValueError, match="non-negative"):
        JoinEvent(after_round=-1, node_id=3)
    with pytest.raises(ValueError, match="outside the"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            arrivals=(JoinEvent(after_round=1, node_id=8),),
        )
    with pytest.raises(ValueError, match="never takes"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            arrivals=(JoinEvent(after_round=5, node_id=3),),
        )
    with pytest.raises(ValueError, match="two arrival events"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            arrivals=(JoinEvent(after_round=1, node_id=3),
                      JoinEvent(after_round=2, node_id=3)),
        )
    with pytest.raises(ValueError, match="PAG protocol only"):
        ScenarioSpec(
            name="x", protocol="acting", nodes=8, rounds=6,
            warmup_rounds=1,
            arrivals=(JoinEvent(after_round=1, node_id=3),),
        )
    # Leaving before joining is incoherent.
    with pytest.raises(ValueError, match="only joins after"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            arrivals=(JoinEvent(after_round=2, node_id=3),),
            churn=(ChurnEvent(after_round=2, node_id=3),),
        )
    # Join-then-leave is a valid lifecycle.
    ScenarioSpec(
        name="x", nodes=8, rounds=6, warmup_rounds=1,
        arrivals=(JoinEvent(after_round=1, node_id=3),),
        churn=(ChurnEvent(after_round=3, node_id=3),),
    )


def test_rate_step_validation():
    with pytest.raises(ValueError, match="positive rate"):
        RateStep(from_round=0, rate_kbps=0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            rate_schedule=(RateStep(2, 100.0), RateStep(2, 200.0)),
        )
    with pytest.raises(ValueError, match="never takes"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            rate_schedule=(RateStep(6, 100.0),),
        )
    with pytest.raises(ValueError, match="PAG protocol only"):
        ScenarioSpec(
            name="x", protocol="acting", nodes=8, rounds=6,
            warmup_rounds=1, rate_schedule=(RateStep(2, 100.0),),
        )


def test_strategy_map_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            node_strategies=((3, "bittorrent"),),
        )
    with pytest.raises(ValueError, match="appears twice"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            node_strategies=((3, "free-rider"), (3, "lying-monitor")),
        )
    with pytest.raises(ValueError, match="outside the"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            node_strategies=((0, "free-rider"),),
        )
    with pytest.raises(ValueError, match="claim"):
        ScenarioSpec(
            name="x", nodes=4, rounds=6, warmup_rounds=1,
            node_strategies=((1, "free-rider"), (2, "free-rider")),
            adversaries=(AdversaryGroup(strategy="free-rider", count=2),),
        )


def test_strategy_map_claims_ids_before_groups():
    spec = ScenarioSpec(
        name="x", nodes=10, rounds=6, warmup_rounds=1,
        node_strategies=((5, "partial-forwarder"),),
        adversaries=(AdversaryGroup(strategy="free-rider", count=2),),
    )
    deviants = spec.deviant_nodes()
    assert deviants[5] == "partial-forwarder"
    assert sum(1 for s in deviants.values() if s == "free-rider") == 2
    assert len(deviants) == 3


# ---------------------------------------------------------------------------
# Scenario semantics
# ---------------------------------------------------------------------------


def test_join_churn_arrivals_are_absent_then_present():
    result = get_scenario("join-churn").run()
    spec = result.spec
    up_series = result.session.simulator.network.meter.up_series
    for event in spec.arrivals:
        # Not a participant before its round: it uploads nothing and is
        # never drawn as a successor (downloads before the join are
        # membership-lag monitor fan-out only).
        uploads = up_series[event.node_id]
        assert sum(uploads[: event.after_round + 1]) == 0
        assert sum(uploads[event.after_round + 1 : spec.rounds]) > 0
        # Present in the final membership and the reported series.
        assert event.node_id in result.node_kbps
    # Only the crashed node is convicted — late arrival is not a fault.
    assert result.convicted == (4,)
    arrived = {event.node_id for event in spec.arrivals}
    assert not (arrived & set(result.convicted))


def test_join_churn_monitor_duty_starts_at_arrival():
    """A late-arriving monitor enters the declaration rotation and never
    issues verdicts about exchanges it did not observe."""
    result = get_scenario("join-churn").run()
    spec = result.spec
    joined = {e.node_id: e.after_round + 1 for e in spec.arrivals}
    for node_id, first_round in joined.items():
        node = result.session.nodes[node_id]
        assert node.monitor.first_round == first_round
        for verdict in node.monitor.verdicts:
            assert verdict.exchange_round > first_round
    # The arrivals do receive declaration traffic once present.
    down_series = result.session.simulator.network.meter.down_series
    for node_id, first_round in joined.items():
        assert sum(down_series[node_id][first_round : spec.rounds]) > 0


def test_coalition_mixed_convicts_every_deviant_strategy():
    result = get_scenario("coalition-mixed").run()
    deviants = result.spec.deviant_nodes()
    # The map pins three distinct strategies; the group adds two more.
    assert len(set(deviants.values())) == 4
    assert set(result.convicted) == set(deviants)


def test_rate_ramp_releases_track_the_schedule():
    result = get_scenario("rate-ramp").run()
    spec = result.spec
    schedule = result.session.source.schedule
    assert schedule.rate_for(0) == 150.0
    assert schedule.rate_for(4) == 300.0
    assert schedule.rate_for(11) == 600.0
    # The ramp must move real bytes: strictly more than the flat run.
    flat = dataclasses.replace(spec, rate_schedule=()).run()
    assert result.total_bytes > flat.total_bytes
    assert (
        result.session.source.total_released()
        > flat.session.source.total_released()
    )
    # An honest session: ramping is not a deviation.
    assert result.verdicts == 0


# ---------------------------------------------------------------------------
# CDF golden checks (deterministic: pure functions of the spec seed)
# ---------------------------------------------------------------------------

GOLDEN = {
    "join-churn": {
        # Declarations whose designated monitor never acked (here:
        # addressed to a not-yet-arrived monitor) now fan their single
        # retry out to every untried monitor — the obligation check
        # deadline leaves only one round to recover, so a one-per-round
        # rotation could convict an honest declarer's predecessors.
        # Slightly more redeclaration bytes, same verdicts.
        "mean": 1020.954,
        "picks": {25: 858.506, 50: 1026.326, 75: 1192.956, 100: 1342.060},
        "points": 18,
    },
    "coalition-mixed": {
        "mean": 1937.785,
        "picks": {25: 1284.778, 50: 1611.725, 75: 2267.817, 100: 3777.741},
        "points": 20,
    },
    "rate-ramp": {
        "mean": 920.575,
        "picks": {25: 804.016, 50: 892.360, 75: 1040.644, 100: 1295.616},
        "points": 19,
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cdf_golden(name):
    result = get_scenario(name).run()
    golden = GOLDEN[name]
    assert result.mean_kbps == pytest.approx(golden["mean"], abs=1e-3)
    cdf = result.cdf()
    assert len(cdf) == golden["points"]
    # The CDF is a valid distribution ending at 100%.
    assert cdf == sorted(cdf)
    assert cdf[-1][1] == pytest.approx(100.0)
    for target, value in golden["picks"].items():
        observed = next(v for v, p in cdf if p >= target)
        assert observed == pytest.approx(value, abs=1e-3), (
            f"{name}: CDF value at {target}% drifted"
        )


def test_session_start_monitors_still_check_round_zero():
    """Regression: the join-churn duty guard must not touch sessions
    without arrivals — every operation counter, including signature
    verifications (whose round-0 share the guard once swallowed),
    stays on the pre-join-churn golden."""
    spec = ScenarioSpec(
        name="ops-golden", nodes=14, rounds=8, warmup_rounds=2
    )
    result = spec.run()
    # verifications: one per monitor-side check; monitors now also
    # verify the declarer's outer relay signature (one per processed
    # AttestationRelay), which guards the cofactor against in-flight
    # corruption.
    assert result.session.crypto_report() == {
        "signatures": 3892,
        "verifications": 3820,
        "encryptions": 1008,
        "decryptions": 672,
        "homomorphic_hashes": 33206,
        "prime_generations": 336,
    }
    for node in result.session.nodes.values():
        assert node.monitor.first_round == 0


def test_goldens_cover_every_new_scenario():
    assert set(GOLDEN) == {"join-churn", "coalition-mixed", "rate-ramp"}
    for name in GOLDEN:
        assert get_scenario(name)  # still registered
