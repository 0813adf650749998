"""Tests for the Fig. 10 privacy curves, cross-validated with Monte Carlo."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.coalition import Coalition
from repro.analysis.privacy import (
    acting_discovery_probability,
    figure10_series,
    pag_discovery_probability,
    theoretical_minimum,
)
from repro.membership.directory import Directory
from repro.membership.views import ViewProvider
from repro.sim.rng import SeedSequence


class TestClosedForms:
    def test_boundaries(self):
        assert theoretical_minimum(0.0) == 0.0
        assert theoretical_minimum(1.0) == 1.0
        assert pag_discovery_probability(0.0) == 0.0
        assert pag_discovery_probability(1.0) == pytest.approx(1.0)
        assert acting_discovery_probability(0.0) == 0.0
        assert acting_discovery_probability(1.0) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            theoretical_minimum(-0.1)
        with pytest.raises(ValueError):
            pag_discovery_probability(1.5)
        with pytest.raises(ValueError):
            pag_discovery_probability(0.5, fanout=0)

    def test_acting_saturates_at_ten_percent(self):
        """Paper: 'all interactions are discovered when an attacker
        controls 10% of nodes in AcTinG'."""
        assert acting_discovery_probability(0.10) > 0.97

    def test_pag_close_to_theoretical_minimum(self):
        """Paper: 'the privacy guarantees of PAG [are] close to ideal'."""
        for c in [0.05, 0.1, 0.2, 0.3]:
            pag = pag_discovery_probability(c, fanout=3)
            minimum = theoretical_minimum(c)
            assert pag >= minimum
            assert pag - minimum < 0.20

    def test_more_monitors_improve_privacy(self):
        """Fig. 10: the PAG-5-monitors curve sits below PAG-3-monitors
        (more predecessors must collude), and at 30% attackers every
        extra monitor (with the coupled fanout) lowers the bound."""
        for c in [0.1, 0.3, 0.5, 0.7]:
            assert pag_discovery_probability(
                c, fanout=5
            ) <= pag_discovery_probability(c, fanout=3)
        bounds = [
            pag_discovery_probability(0.3, fanout=f) for f in range(3, 7)
        ]
        assert bounds == sorted(bounds, reverse=True)
        assert len(set(bounds)) == len(bounds)

    def test_ordering_acting_worst(self):
        for c in [0.05, 0.1, 0.3]:
            acting = acting_discovery_probability(c)
            pag = pag_discovery_probability(c, fanout=3)
            minimum = theoretical_minimum(c)
            assert minimum <= pag <= acting


class TestFigure10Series:
    def test_default_grid(self):
        points = figure10_series()
        assert points[0].attacker_fraction == 0.0
        assert points[-1].attacker_fraction == 1.0
        assert len(points) == 21

    def test_curves_are_ordered_at_every_point(self):
        """Fig. 10's four curves never cross: minimum <= PAG-5 <= PAG-3
        <= AcTinG on the whole grid, and at 10% attackers PAG-3 stays
        within 10 points of the minimum."""
        points = figure10_series()
        for p in points:
            assert p.theoretical_minimum <= p.pag_5_monitors + 1e-9
            assert p.pag_5_monitors <= p.pag_3_monitors + 1e-9
            assert p.pag_3_monitors <= p.acting + 1e-9
        at_10 = next(
            p for p in points if p.attacker_fraction == pytest.approx(0.10)
        )
        assert at_10.pag_3_monitors - at_10.theoretical_minimum < 0.10

    def test_monotone_curves(self):
        points = figure10_series()
        for prev, cur in zip(points, points[1:]):
            assert cur.acting >= prev.acting
            assert cur.pag_3_monitors >= prev.pag_3_monitors
            assert cur.pag_5_monitors >= prev.pag_5_monitors
            assert cur.theoretical_minimum >= prev.theoretical_minimum


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=60)
def test_pag_bounded_by_min_and_one(c):
    value = pag_discovery_probability(c, fanout=3)
    assert theoretical_minimum(c) - 1e-12 <= value <= 1.0 + 1e-12


class TestMonteCarloCrossValidation:
    def test_structural_rate_tracks_closed_form(self):
        """Sample coalitions on a real topology; the discovered fraction
        must land near the closed form for the same parameters."""
        n = 200
        c = 0.25
        views = ViewProvider(
            directory=Directory.of_size(n),
            seeds=SeedSequence(5),
            fanout=3,
            monitors_per_node=3,
        )
        rng = SeedSequence(9).stream("coalition")
        rates = []
        for _trial in range(5):
            members = set(
                rng.sample(list(views.directory.consumers()), int(n * c))
            )
            coalition = Coalition(members=members)
            rate, _, _ = coalition.discovery_rate(views, [1, 2])
            rates.append(rate)
        mc = sum(rates) / len(rates)
        closed = pag_discovery_probability(c, fanout=3)
        assert abs(mc - closed) < 0.12, (mc, closed)

    def test_more_monitors_discover_no_more_on_a_real_topology(self):
        """The PAG-5 curve's gain is structural, not only closed-form:
        with five predecessors, "all but two" is a taller order."""
        n = 200
        for c in (0.3, 0.5):
            rates = {}
            for monitors in (3, 5):
                views = ViewProvider(
                    directory=Directory.of_size(n),
                    seeds=SeedSequence(17),
                    fanout=monitors,
                    monitors_per_node=monitors,
                )
                rng = SeedSequence(19).stream("mc", int(c * 100), monitors)
                consumers = list(views.directory.consumers())
                total = 0.0
                for _trial in range(3):
                    members = set(rng.sample(consumers, int(n * c)))
                    rate, _, _ = Coalition(members=members).discovery_rate(
                        views, [1, 2]
                    )
                    total += rate
                rates[monitors] = total / 3
            assert rates[5] <= rates[3] + 0.03, (c, rates)
