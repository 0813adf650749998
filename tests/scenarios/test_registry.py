"""Tests for the declarative scenario subsystem."""

import pytest

from repro.scenarios import (
    AdversaryGroup,
    ChurnEvent,
    ScenarioSpec,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.sim.execution import ParallelShardedPolicy


PAPER_NAMES = {"fig7", "fig7-acting", "fig8", "fig9", "fig10",
               "table1", "table2"}


def test_paper_matrix_is_registered():
    assert PAPER_NAMES <= set(scenario_names())
    for name in scenario_names():
        spec = get_scenario(name)
        assert spec.name == name
        assert spec.description


def test_unknown_scenario_is_a_crisp_error():
    with pytest.raises(KeyError, match="unknown scenario 'fig99'"):
        get_scenario("fig99")


def test_overrides_do_not_mutate_the_registry():
    fig7 = get_scenario("fig7", nodes=240)
    assert fig7.nodes == 240
    assert get_scenario("fig7").nodes == 60
    # None overrides pass through untouched (CLI flags).
    assert get_scenario("fig7", nodes=None).nodes == 60


def test_register_refuses_silent_redefinition():
    spec = ScenarioSpec(name="test-dup", nodes=8, rounds=4, warmup_rounds=1)
    register_scenario(spec)
    try:
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)
        register_scenario(spec, replace=True)
    finally:
        from repro.scenarios import registry

        registry._REGISTRY.pop("test-dup", None)


def test_spec_validation():
    with pytest.raises(ValueError, match="protocol"):
        ScenarioSpec(name="x", protocol="bittorrent")
    with pytest.raises(ValueError, match="warmup"):
        ScenarioSpec(name="x", rounds=4, warmup_rounds=4)
    with pytest.raises(ValueError, match="consumer ids"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            churn=(ChurnEvent(after_round=2, node_id=9),),
        )
    with pytest.raises(ValueError, match="never takes effect"):
        ScenarioSpec(
            name="x", nodes=8, rounds=6, warmup_rounds=1,
            churn=(ChurnEvent(after_round=5, node_id=2),),
        )
    with pytest.raises(ValueError, match="unknown adversary strategy"):
        AdversaryGroup(strategy="ddos")
    with pytest.raises(ValueError, match="^monitor set size 5 invalid"):
        ScenarioSpec(name="x", nodes=5, fanout=2, monitors_per_node=5)
    with pytest.raises(ValueError, match="^fanout 0 invalid for 30 nodes"):
        ScenarioSpec(name="x", fanout=0)
    with pytest.raises(ValueError, match="^stream rate must be positive"):
        ScenarioSpec(name="x", stream_rate_kbps=0.0)


def test_deviant_placement_is_deterministic_and_disjoint():
    spec = ScenarioSpec(
        name="mix",
        nodes=30,
        rounds=10,
        warmup_rounds=2,
        adversaries=(
            AdversaryGroup(strategy="free-rider", count=3),
            AdversaryGroup(strategy="silent-receiver", fraction=0.2),
        ),
    )
    deviants = spec.deviant_nodes()
    assert deviants == spec.deviant_nodes()  # pure function of the spec
    assert len(deviants) == 3 + int(29 * 0.2)
    assert all(1 <= node_id < 30 for node_id in deviants)
    assert sorted(deviants.values()).count("free-rider") == 3


def test_selfish_scenario_convicts_its_deviant():
    result = get_scenario("selfish", rounds=10).run()
    deviants = set(get_scenario("selfish").deviant_nodes())
    assert set(result.convicted) == deviants
    assert result.verdicts > 0
    assert result.continuity is not None


def test_churn_scenario_removes_nodes_and_convicts_them():
    result = get_scenario("churn").run(ParallelShardedPolicy(workers=4))
    spec = get_scenario("churn")
    departed = {event.node_id for event in spec.churn}
    assert departed == {5, 11}
    assert not departed & set(result.session.nodes)
    assert set(result.convicted) == departed
    assert result.continuity > 0.9


def test_acting_scenario_runs_and_measures():
    result = get_scenario("fig7-acting", nodes=20, rounds=8).run()
    assert result.spec.protocol == "acting"
    assert result.mean_kbps > 300.0  # payload floor
    assert result.continuity is None  # PAG-only measurement
    assert len(result.cdf()) == 19


def test_scenario_result_cdf_and_summary():
    result = get_scenario("fig7", nodes=16, rounds=6).run()
    cdf = result.cdf()
    assert len(cdf) == 15
    assert cdf[-1][1] == pytest.approx(100.0)
    values = [v for v, _ in cdf]
    assert values == sorted(values)
    summary = result.summary()
    assert summary["scenario"] == "fig7"
    assert summary["mean_down_kbps"] == pytest.approx(
        result.mean_kbps, abs=0.1
    )


def test_pag_scenario_identical_under_sharded_policy():
    spec = get_scenario("fig7", nodes=16, rounds=6)
    serial = spec.run()
    sharded = spec.run(ParallelShardedPolicy(workers=4))
    assert sharded.node_kbps == serial.node_kbps
    assert sharded.messages_sent == serial.messages_sent
    assert sharded.total_bytes == serial.total_bytes


def test_oversubscribed_adversary_groups_rejected():
    """Groups claiming more nodes than there are consumers must raise,
    not spin forever in the placement loop."""
    with pytest.raises(ValueError, match="only 9 consumers"):
        ScenarioSpec(
            name="x", nodes=10, rounds=6, warmup_rounds=1,
            adversaries=(
                AdversaryGroup(strategy="free-rider", fraction=0.6),
                AdversaryGroup(strategy="silent-receiver", fraction=0.6),
            ),
        )


def test_acting_spec_honours_monitors_and_seed():
    spec = ScenarioSpec(
        name="acting-mon", protocol="acting", nodes=30, rounds=6,
        warmup_rounds=1, monitors_per_node=5, seed=77,
    )
    session = spec.build()
    assert session.config.monitors_per_node == 5
    assert session.config.seed == 77
    # Different seeds, different traffic.
    a = spec.run().messages_sent
    b = spec.with_overrides(seed=78).run().messages_sent
    assert a != b


def test_acting_churn_removes_node_from_session_membership():
    spec = ScenarioSpec(
        name="acting-churn", protocol="acting", nodes=16, rounds=10,
        warmup_rounds=2, churn=(ChurnEvent(after_round=4, node_id=6),),
    )
    result = spec.run()
    assert 6 not in result.session.nodes
    assert 6 not in result.node_kbps
    assert len(result.node_kbps) == 16 - 1 - 1


def test_build_pag_with_ablation_override():
    spec = get_scenario("fig8", stream_rate_kbps=150.0)
    session = spec.build_pag_with(buffermap_depth=2)
    assert session.context.config.buffermap_depth == 2
    assert session.context.config.stream_rate_kbps == 150.0
