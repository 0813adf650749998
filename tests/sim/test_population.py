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

Below those, the plane's two array kernels are held to the model they
implement: the degree sampler is Poisson(fanout) up to a stated
truncation (goodness of fit, table reconstruction), and the fused row
build equals the kind-by-kind sum it replaced.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.crypto.homomorphic import HomomorphicHasher
from repro.scenarios.spec import AdversaryGroup, ScenarioSpec
from repro.sim import population as population_module
from repro.sim.population import (
    _KIND_DRIVERS,
    PoissonDegreeSampler,
    PopulationPlane,
    PopulationResult,
    peak_rss_mb,
    wire_population,
)


def _spec(**kwargs):
    kwargs.setdefault("name", "pop-test")
    kwargs.setdefault("nodes", 16)
    kwargs.setdefault("rounds", 6)
    kwargs.setdefault("warmup_rounds", 2)
    kwargs.setdefault("population", 64)
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
    assert honest == sorted(session.bandwidth_kbps())
    cohort_mean = session.mean_bandwidth_kbps(
        spec.warmup_rounds, direction="down"
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
# the degree sampler
# ---------------------------------------------------------------------------


def _poisson_pmf(lam, k):
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _chi2_critical(dof, z=3.0902):
    """Upper 0.1 % point of chi-square(dof), Wilson-Hilferty (good to
    well under 1 % for dof >= 3; exact values: 27.88 at 9, 59.70 at 30)."""
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


@pytest.mark.parametrize("lam", [3, 6, 13, 40])
def test_sampler_fits_the_poisson_pmf(lam):
    n = 1_200_000
    sampler = PoissonDegreeSampler(lam, n)
    draws = sampler.draw(
        np.random.default_rng(20260930 + lam), np.empty(n)
    )
    assert draws.min() >= 0 and draws.max() < sampler.size
    assert np.array_equal(draws, np.rint(draws))
    # Moments: mean within 4 sigma of lam, variance within 4 sigma of
    # lam (Var[s^2] = (mu4 - sigma^4) / n with mu4 = lam + 3 lam^2).
    assert abs(draws.mean() - lam) < 4 * math.sqrt(lam / n)
    assert abs(draws.var(ddof=1) - lam) < 4 * math.sqrt(
        (lam + 2 * lam * lam) / n
    )
    # Chi-square against the exact pmf: one bin per value, both tails
    # merged inwards until every bin expects at least 5 draws.
    counts = np.bincount(draws.astype(np.int64), minlength=sampler.size)
    expected = np.array(
        [n * _poisson_pmf(lam, k) for k in range(sampler.size)]
    )
    lo = 0
    while expected[: lo + 1].sum() < 5:
        lo += 1
    hi = sampler.size - 1
    while expected[hi:].sum() < 5:
        hi -= 1
    observed = np.concatenate(
        [[counts[: lo + 1].sum()], counts[lo + 1 : hi], [counts[hi:].sum()]]
    )
    # The upper bin takes the whole analytic tail, truncated part too.
    upper = n - expected[:hi].sum()
    expect = np.concatenate(
        [[expected[: lo + 1].sum()], expected[lo + 1 : hi], [upper]]
    )
    assert expect.min() >= 5 and observed.sum() == n
    chi2 = float(((observed - expect) ** 2 / expect).sum())
    # Critical value: the 0.999 quantile at bins - 1 degrees of
    # freedom; the seed is fixed, so this is a regression pin and not
    # a one-in-a-thousand flake.
    assert chi2 < _chi2_critical(len(expect) - 1)


@pytest.mark.parametrize("lam", [1, 3, 6, 13, 40])
def test_alias_table_reconstructs_the_truncated_pmf(lam):
    sampler = PoissonDegreeSampler(lam, 4)
    size = sampler.size
    assert sampler.prob.shape == sampler.alias.shape == (size,)
    assert ((sampler.prob >= 0.0) & (sampler.prob <= 1.0)).all()
    assert ((sampler.alias >= 0) & (sampler.alias < size)).all()
    # The table's pmf is the lgamma pmf over the kept support ...
    exact = np.array([_poisson_pmf(lam, k) for k in range(size)])
    assert np.abs(sampler.pmf - exact).max() < 1e-15
    assert math.fsum(sampler.pmf) == pytest.approx(1.0, abs=1e-15)
    # ... what was cut off is below the stated bound (summed well past
    # the cut; the terms fall off faster than geometrically) ...
    tail = math.fsum(
        _poisson_pmf(lam, k) for k in range(size, size + 400)
    )
    assert 0.0 < tail < PoissonDegreeSampler.TAIL_BOUND == 2.0**-60
    # ... and the columns give every value back its mass: its own
    # column's kept share plus what the columns aliased to it shed.
    rebuilt = sampler.prob / size
    np.add.at(rebuilt, sampler.alias, (1.0 - sampler.prob) / size)
    assert np.abs(rebuilt - sampler.pmf).max() < 1e-15


@pytest.mark.parametrize("lam", [3.8, 6, 16.5, 40, 52])
def test_lookup_never_indexes_past_the_table(lam):
    # The largest double below 1 stays inside the last column at every
    # table size, powers of two (32, 64, 128 here) included; a caller's
    # stray 1.0 is clipped to the table rather than read past it.
    sampler = PoissonDegreeSampler(lam, 4)
    size = sampler.size
    top = 1.0 - 2.0**-53
    assert int(top * size) == size - 1
    edge = np.nextafter(1.0 / size, 0)

    def lookup():
        return sampler.lookup(
            np.array([top, 0.0, edge, 1.0]), np.empty(4)
        )

    degrees = lookup()
    assert degrees[0] in (size - 1, sampler.alias[size - 1])
    assert degrees[1] in (0, sampler.alias[0])
    assert degrees[2] in (0, sampler.alias[0])
    assert ((degrees >= 0) & (degrees < size)).all()
    # One uniform, one draw: the same uniforms give the same degrees.
    np.testing.assert_array_equal(degrees, lookup())


def test_sampler_rejects_degenerate_arguments():
    with pytest.raises(ValueError, match="rate must be positive"):
        PoissonDegreeSampler(0, 4)
    with pytest.raises(ValueError, match="width must be at least 1"):
        PoissonDegreeSampler(6, 0)


# ---------------------------------------------------------------------------
# the row build, on a hand-fed tap
# ---------------------------------------------------------------------------


class _ScriptedTap:
    """Stands in for PlaneCalibrationTap: per-round kind sums, as given."""

    def __init__(self, n_honest, rounds):
        self.honest_ids = frozenset(range(n_honest))
        self._rounds = dict(enumerate(rounds))

    def consume_round(self, round_no):
        return self._rounds.pop(round_no, {}), None, 0


#: Every driver pairing of _KIND_DRIVERS, an unmapped kind (applied
#: unmodulated), a one-direction kind and an all-zero kind.
_SCRIPT = [
    {
        "key_request": (70_100, 69_300),
        "key_response": (41_000, 40_500),
        "serve": (3_000_000, 2_950_000),
        "attestation": (9_000, 9_100),
        "ack": (52_000, 51_000),
        "ack_copy": (26_000, 27_000),
        "attestation_relay": (13_000, 12_000),
        "declaration_ack": (7_700, 7_900),
        "monitor_broadcast": (88_000, 87_000),
        "membership_ping": (5_000, 5_000),
    },
    {"serve": (1_234_567, 0), "ack": (0, 0), "surprise": (0, 999)},
    {},
]


def _scripted_plane(tmp_path, seed=7, plane_size=5_000, n_honest=10):
    return PopulationPlane(
        plane_size=plane_size,
        tap=_ScriptedTap(n_honest, _SCRIPT),
        cohort_hasher=HomomorphicHasher(modulus=61 * 53),
        fanout=6,
        seed=seed,
        spill_dir=str(tmp_path),
    )


def _kind_by_kind(sums, n_honest, scales, plane_size):
    """The row build as the parent wrote it: one scaled term per kind
    per direction, accumulated in kind order, rounded at the end."""
    up = np.zeros(plane_size)
    down = np.zeros(plane_size)
    for kind, (up_sum, down_sum) in sums.items():
        up_driver, down_driver = _KIND_DRIVERS.get(
            kind, ("uniform", "uniform")
        )
        up_mean = up_sum / n_honest
        down_mean = down_sum / n_honest
        if up_mean:
            scale = scales.get(up_driver)
            up += up_mean if scale is None else up_mean * scale
        if down_mean:
            scale = scales.get(down_driver)
            down += down_mean if scale is None else down_mean * scale
    return np.rint(up).astype(np.int64), np.rint(down).astype(np.int64)


def test_rows_are_the_calibrated_means_times_unit_mean_scales(tmp_path):
    n_honest = 10
    plane = _scripted_plane(tmp_path, n_honest=n_honest)
    for rnd, sums in enumerate(_SCRIPT):
        plane.end_round(rnd)
        # The round's degree vectors are still in place; normalised by
        # their realized mean they are the scale vectors of the model.
        scales = {
            driver: degrees / degrees.mean()
            for driver, degrees in plane._degrees.items()
        }
        assert sorted(scales) == ["in", "mon", "out"]
        for scale in scales.values():
            assert abs(scale.mean() - 1.0) < 1e-12
            assert scale.std() > 0.3  # Poisson(6): 1/sqrt(6) = 0.41
        up = plane.spill.read_round("up", rnd)
        down = plane.spill.read_round("down", rnd)
        # Realized-mean normalisation: a row's mean is the sum of the
        # per-kind honest means, up to the per-node integer rounding.
        want_up = sum(u for u, _ in sums.values()) / n_honest
        want_down = sum(d for _, d in sums.values()) / n_honest
        assert abs(up.mean() - want_up) <= 0.5
        assert abs(down.mean() - want_down) <= 0.5
        # The fused build (one scalar per driver, 1/mean folded in) is
        # the kind-by-kind sum, within a byte per node.
        ref_up, ref_down = _kind_by_kind(
            sums, n_honest, scales, plane.plane_size
        )
        assert np.abs(up - ref_up).max() <= 1
        assert np.abs(down - ref_down).max() <= 1
    # An empty round is a row of zeros, not a missing row.
    assert not plane.spill.read_round("up", 2).any()
    assert plane.stats()["spill_bytes"] == 3 * plane.plane_size * 8 * 2
    plane.close()


def test_all_zero_degree_draw_applies_the_mean_unmodulated(tmp_path):
    # One plane node at fanout 1 draws degree 0 about a third of the
    # time; a zero draw has no mean to normalise by and modulates
    # nothing, so the node gets exactly the honest mean.
    plane = PopulationPlane(
        plane_size=1,
        tap=_ScriptedTap(4, [{"serve": (4_000, 8_000)}] * 40),
        cohort_hasher=HomomorphicHasher(modulus=61 * 53),
        fanout=1,
        seed=3,
        spill_dir=str(tmp_path),
    )
    for rnd in range(40):
        plane.end_round(rnd)
    # With one node every scale is degree / degree = 1 as well.
    assert plane.spill.window_sum("up", 0, 39).tolist() == [40 * 1_000]
    assert plane.spill.window_sum("down", 0, 39).tolist() == [40 * 2_000]
    plane.close()


def test_spill_files_are_a_function_of_the_seed(tmp_path):
    files = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        directory = tmp_path / label
        directory.mkdir()
        plane = _scripted_plane(directory, seed=seed)
        for rnd in range(len(_SCRIPT)):
            plane.end_round(rnd)
        plane.close()  # a user-supplied directory keeps its files
        files[label] = (
            (directory / "up.i64").read_bytes(),
            (directory / "down.i64").read_bytes(),
        )
    assert files["a"] == files["b"]
    assert files["a"][0] != files["c"][0]
    assert files["a"][1] != files["c"][1]


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


@pytest.mark.parametrize(
    "platform, ru_maxrss, expected_mib",
    [
        ("linux", 262_144, 256.0),  # KiB
        ("darwin", 268_435_456, 256.0),  # bytes
        ("freebsd14", 262_144, 256.0),  # KiB
    ],
)
def test_peak_rss_units_follow_the_platform(
    monkeypatch, platform, ru_maxrss, expected_mib
):
    monkeypatch.setattr(population_module.sys, "platform", platform)
    monkeypatch.setattr(
        population_module.resource,
        "getrusage",
        lambda who: SimpleNamespace(ru_maxrss=ru_maxrss),
    )
    assert peak_rss_mb() == expected_mib
