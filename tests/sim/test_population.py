"""The million-node population tier, at test scale.

Three contracts anchor the tier:

* **Cohort bit-identity** — attaching a plane must not change one bit
  of the full-fidelity cohort's accounting: a population run's cohort
  measurements equal a plain serial run of ``cohort_equivalent()``.
* **Calibration** — the plane's per-round means are pinned to the
  cohort's honest-consumer means (realized-mean normalisation), so the
  population-wide bandwidth distribution matches a full-fidelity run
  of the same population statistically (tolerances documented in
  PERFORMANCE.md: mean within 15 %, KS distance within 0.45 at the
  48-node validation point — single-seed run-to-run noise alone is
  ~±10 % at this scale, and a small cohort overestimates duplicate
  traffic because its fanout/membership ratio is larger than the
  deployment's).
* **Crypto reconciliation** — the plane's ``real + memoised`` hash
  counts reconcile with what full fidelity would have spent, while
  real work stays O(1) per round (one representative exchange).
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.scenarios.spec import AdversaryGroup, ScenarioSpec
from repro.sim.population import (
    PopulationResult,
    wire_population,
)


def _spec(**kwargs):
    kwargs.setdefault("name", "pop-test")
    kwargs.setdefault("nodes", 16)
    kwargs.setdefault("rounds", 6)
    kwargs.setdefault("warmup_rounds", 2)
    kwargs.setdefault("population", 64)
    kwargs.setdefault("policy", "population")
    return ScenarioSpec(**kwargs)


# ---------------------------------------------------------------------------
# wiring and determinism
# ---------------------------------------------------------------------------


def test_wire_population_refuses_planeless_population():
    stub = SimpleNamespace(population=10, nodes=16)
    with pytest.raises(ValueError, match="beyond the cohort"):
        wire_population(stub, session=None)


def test_population_run_is_deterministic():
    first = _spec().run()
    second = _spec().run()
    assert isinstance(first, PopulationResult)
    assert first.node_kbps == second.node_kbps
    np.testing.assert_array_equal(first.plane_kbps, second.plane_kbps)
    assert first.plane_stats == second.plane_stats
    assert first.summary()["plane"] == second.summary()["plane"]
    assert first.cdf() == second.cdf()


def test_cohort_is_bit_identical_to_cohort_equivalent():
    # The acceptance oracle: the sampled cohort inside a population run
    # equals — bit for bit — a plain serial run of the stripped spec.
    spec = _spec(
        adversaries=(AdversaryGroup(strategy="free-rider", count=1),),
    )
    population = spec.run()
    plain = spec.cohort_equivalent().run()
    assert population.node_kbps == plain.node_kbps
    assert population.convicted == plain.convicted
    assert population.verdicts == plain.verdicts
    assert population.messages_sent == plain.messages_sent
    assert population.total_bytes == plain.total_bytes
    # The cohort's crypto tally is untouched by the plane's memoised
    # accounting (the plane hashes on its own hasher).
    assert population.crypto_hashes == plain.crypto_hashes


def test_plane_means_are_calibrated_to_the_cohort():
    spec = _spec(rounds=8)
    result = spec.run()
    session = result.session
    honest = sorted(session.nodes)  # no deviants in this spec
    cohort_mean = session.simulator.network.meter.mean_kbps(
        honest,
        round_seconds=session.simulator.round_seconds,
        first_round=spec.warmup_rounds,
        direction="down",
    )
    plane_mean = float(np.asarray(result.plane_kbps).mean())
    # Realized-mean normalisation pins the plane mean to the cohort
    # honest mean exactly; only per-row integer rounding separates them.
    assert plane_mean == pytest.approx(cohort_mean, rel=0.01)
    assert result.plane_mean_kbps == pytest.approx(plane_mean)
    # The population-wide mean is the consumer-weighted combination.
    total = sum(result.node_kbps.values()) + float(
        np.asarray(result.plane_kbps).sum()
    )
    consumers = len(result.node_kbps) + len(result.plane_kbps)
    assert result.population_mean_kbps == pytest.approx(
        total / consumers
    )


def test_crypto_counters_reconcile_with_full_fidelity():
    spec = _spec(rounds=8)
    result = spec.run()
    stats = result.plane_stats
    # What full fidelity would have spent on the plane: the cohort's
    # per-honest-consumer hash count scaled to the plane width.
    n_honest = len(result.session.nodes)
    plane_size = spec.population - spec.nodes
    expected = result.crypto_hashes / n_honest * plane_size
    modelled = stats["real_hashes"] + stats["memoised_hashes"]
    assert modelled == pytest.approx(expected, rel=0.15)
    # Real work is O(rounds), not O(plane nodes * rounds).
    assert stats["real_hashes"] < result.crypto_hashes
    assert stats["memoised_hashes"] > stats["real_hashes"]
    assert stats["plane_nodes"] == plane_size
    assert stats["rounds"] == spec.rounds
    # Stats are snapshotted before the spill is torn down: every round
    # row for both fields is on disk at that point.
    assert stats["spill_bytes"] == spec.rounds * plane_size * 8 * 2


# ---------------------------------------------------------------------------
# statistical validation against full fidelity
# ---------------------------------------------------------------------------


def _ks_distance(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / len(a)
    fb = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.abs(fa - fb).max())


def test_population_distribution_matches_full_fidelity():
    # A 48-consumer deployment, reproduced two ways: every node at full
    # fidelity, and a 32-node sampled cohort with a 16-node calibrated
    # plane.  The tolerances here are the documented validation gates
    # (PERFORMANCE.md, "Statistical validation"): mean within 15 %, KS
    # within 0.45 — measured 12 % and 0.32 at this seed, with ~±10 %
    # pure seed noise at this scale.
    rounds, warmup = 10, 2
    full = ScenarioSpec(
        name="pop-full", nodes=48, rounds=rounds, warmup_rounds=warmup
    ).run()
    sampled = ScenarioSpec(
        name="pop-sampled",
        nodes=32,
        rounds=rounds,
        warmup_rounds=warmup,
        population=48,
        policy="population",
    ).run()
    full_values = np.array(sorted(full.node_kbps.values()))
    pop_values = np.concatenate(
        [
            np.array(sorted(sampled.node_kbps.values())),
            np.asarray(sampled.plane_kbps, dtype=np.float64),
        ]
    )
    # Mean within 15 %.
    assert sampled.population_mean_kbps == pytest.approx(
        full_values.mean(), rel=0.15
    )
    # Distribution shape within KS 0.45.
    assert _ks_distance(full_values, pop_values) <= 0.45
    # Verdict parity: both runs are honest and convict nobody.
    assert full.verdicts == 0
    assert sampled.verdicts == 0


# ---------------------------------------------------------------------------
# result shaping
# ---------------------------------------------------------------------------


def test_population_summary_and_spill_dir(tmp_path):
    spec = _spec(population_spill_dir=str(tmp_path))
    result = spec.run()
    summary = result.summary()
    assert summary["population"] == spec.population
    assert summary["population_mean_down_kbps"] > 0
    assert summary["plane_mean_down_kbps"] > 0
    assert summary["peak_rss_mb"] > 0
    assert summary["plane"]["plane_nodes"] == 48
    assert sorted(summary["plane"]) == [
        "memoised_hashes",
        "plane_nodes",
        "real_hashes",
        "rounds",
        "spill_bytes",
    ]
    # A user-supplied spill dir keeps its files after the run.
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "down.i64",
        "up.i64",
    ]


def test_population_cdf_merges_and_decimates():
    result = _spec().run()
    points = result.cdf()
    # Cohort consumers + plane nodes, no decimation at this scale.
    assert len(points) == len(result.node_kbps) + len(result.plane_kbps)
    values = [v for v, _ in points]
    ranks = [r for _, r in points]
    assert values == sorted(values)
    assert ranks[-1] == pytest.approx(1.0)
    assert all(0 < r <= 1 for r in ranks)
    # Past the bound the CDF decimates but keeps its endpoints.
    big = dataclasses.replace(
        result,
        plane_kbps=np.linspace(100.0, 900.0, 10_000),
    )
    decimated = big.cdf()
    assert len(decimated) <= PopulationResult.MAX_CDF_POINTS
    assert decimated[-1][1] == pytest.approx(1.0)
    dec_values = [v for v, _ in decimated]
    assert dec_values == sorted(dec_values)
    assert dec_values[-1] == max(
        max(result.node_kbps.values()), 900.0
    )


def test_failing_population_run_leaks_no_spill_dirs(monkeypatch):
    """Regression: a collection that dies mid-read used to leave the
    plane's ``repro-spill-*`` temp directory behind; the run path now
    closes the spill unconditionally."""
    import glob
    import os
    import tempfile

    from repro.sim.trace import ColumnarRoundSpill

    pattern = os.path.join(tempfile.gettempdir(), "repro-spill-*")
    before = set(glob.glob(pattern))

    def explode(self, *args, **kwargs):
        raise RuntimeError("collection died mid-read")

    monkeypatch.setattr(ColumnarRoundSpill, "window_sum", explode)
    with pytest.raises(RuntimeError, match="collection died"):
        _spec().run()
    assert set(glob.glob(pattern)) == before
