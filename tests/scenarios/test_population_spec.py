"""Validation and derivation rules for the population-tier spec knobs.

A misconfigured million-node run should fail in ``__post_init__`` with
a sentence pointing at the knob, not forty minutes in with a numpy
shape error.  These tests pin every refusal path, the
``cohort_equivalent`` derivation (the bit-identity oracle of the
differential suite), and the registered ``fig9-1m`` scenario shape.
"""

import os
import stat

import pytest

from repro.membership.views import default_fanout
from repro.scenarios import get_scenario
from repro.scenarios.spec import AdversaryGroup, ScenarioSpec
from repro.sim.faults import LossFault


def _spec(**kwargs):
    kwargs.setdefault("name", "pop-test")
    kwargs.setdefault("nodes", 16)
    kwargs.setdefault("rounds", 6)
    kwargs.setdefault("warmup_rounds", 2)
    return ScenarioSpec(**kwargs)


def test_population_must_exceed_cohort():
    with pytest.raises(ValueError, match="must exceed"):
        _spec(population=16)
    with pytest.raises(ValueError, match="must exceed"):
        _spec(population=10)
    _spec(population=17)  # smallest valid plane: one node


def test_population_policy_requires_population():
    """``population`` alone selects the tier (the plane attaches to the
    engine under any policy); the retired marker policy name is
    rejected with or without it."""
    assert _spec(population=100).policy is None
    for extra in ({}, {"population": 100}):
        with pytest.raises(ValueError, match="unknown execution policy"):
            _spec(policy="population", **extra)


def test_spill_dir_requires_population(tmp_path):
    with pytest.raises(ValueError, match="population first"):
        _spec(population_spill_dir=str(tmp_path))


def test_spill_dir_must_exist(tmp_path):
    missing = str(tmp_path / "nope")
    with pytest.raises(ValueError, match="not an"):
        _spec(population=100, population_spill_dir=missing)
    # A file is not a directory either.
    file_path = tmp_path / "plain"
    file_path.write_text("x")
    with pytest.raises(ValueError, match="not an"):
        _spec(population=100, population_spill_dir=str(file_path))


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores mode bits")
def test_spill_dir_must_be_writable(tmp_path):
    locked = tmp_path / "locked"
    locked.mkdir()
    locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
    try:
        with pytest.raises(ValueError, match="not writable"):
            _spec(population=100, population_spill_dir=str(locked))
    finally:
        locked.chmod(stat.S_IRWXU)


def test_population_is_pag_only():
    with pytest.raises(ValueError, match="PAG protocol"):
        _spec(protocol="acting", population=100)


def test_population_refuses_fault_schedules():
    with pytest.raises(ValueError, match="unfaulted"):
        _spec(
            population=100,
            fault_schedule=(LossFault(probability=0.1),),
        )


def test_deviants_must_fit_the_cohort():
    # Deviant ids and group sizes are checked against the cohort (the
    # plane is honest by construction): a strategy map naming an id
    # outside 1..nodes-1 fails regardless of the population size.
    with pytest.raises(ValueError):
        _spec(population=1000, node_strategies=((40, "free-rider"),))
    # In-cohort deviants are fine.
    spec = _spec(
        population=1000,
        adversaries=(AdversaryGroup(strategy="free-rider", count=1),),
    )
    assert spec.deviant_nodes()


def test_cohort_equivalent_strips_population_and_pins_fanout():
    spec = _spec(population=100_000, policy="parallel")
    cohort = spec.cohort_equivalent()
    assert cohort.population == 0
    assert cohort.policy is None
    assert cohort.population_spill_dir is None
    assert cohort.nodes == spec.nodes
    # The fanout the population derived is pinned, so the cohort builds
    # the same per-node exchange structure as the sampled cohort.
    assert cohort.fanout == default_fanout(100_000)
    # An explicit fanout is kept as-is.
    explicit = _spec(population=100_000, fanout=5).cohort_equivalent()
    assert explicit.fanout == 5
    # Non-population specs just lose the policy knob.
    plain = _spec(policy="parallel").cohort_equivalent()
    assert plain.policy is None
    assert plain.population == 0


def test_population_config_derives_fanout_from_population():
    spec = _spec(population=100_000)
    assert spec.build_config().fanout == default_fanout(100_000)
    # An explicit fanout wins over the derivation.
    assert _spec(population=100_000, fanout=4).build_config().fanout == 4


def test_fig9_1m_registration():
    spec = get_scenario("fig9-1m")
    assert spec.population == 1_000_000
    assert spec.policy is None
    assert spec.nodes == 120
    assert spec.rounds == 60
    assert spec.warmup_rounds == 4
    assert spec.protocol == "pag"
    # Derived, not pinned: fanout tracks the population scale.
    assert spec.fanout is None
    assert spec.build_config().fanout == default_fanout(1_000_000)
