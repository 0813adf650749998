"""Tests for detection latency and the selfish-population impact study."""

import pytest

from repro.adversary.selfish import (
    ContactAvoider,
    DeclarationSkipper,
    FreeRider,
    PartialForwarder,
    SilentReceiver,
)
from repro.analysis.detection import (
    detection_latency,
    selfish_population_impact,
)


class TestDetectionLatency:
    def test_free_rider_caught_within_dispute_window(self):
        result = detection_latency(FreeRider())
        assert result.first_violation_round is not None
        assert result.first_conviction_round is not None
        # The monitoring pipeline needs the obligation round plus up to
        # two dispute rounds.
        assert result.latency_rounds <= 3

    def test_contact_avoider_caught(self):
        result = detection_latency(ContactAvoider())
        assert result.first_conviction_round is not None
        assert result.latency_rounds <= 4

    @pytest.mark.parametrize(
        "behavior",
        [
            PartialForwarder(keep_fraction=0.5, seed=1),
            SilentReceiver(),
            DeclarationSkipper(),
        ],
        ids=lambda behavior: type(behavior).__name__,
    )
    def test_other_strategies_caught_within_four_rounds(self, behavior):
        """Log-less monitoring checks every exchange every round, so
        each selfish strategy is convicted soon after it first deviates
        (a silent receiver has no violation round to count from)."""
        result = detection_latency(behavior)
        assert result.first_conviction_round is not None
        if result.latency_rounds is not None:
            assert result.latency_rounds <= 4

    def test_latency_none_when_never_convicted(self):
        from repro.core.behavior import CorrectBehavior

        result = detection_latency(CorrectBehavior(), max_rounds=8)
        assert result.first_conviction_round is None
        assert result.latency_rounds is None


class TestPopulationImpact:
    @pytest.fixture(scope="class")
    def sweep(self):
        return selfish_population_impact(
            [0.0, 0.3, 0.7], n_nodes=24, rounds=18
        )

    def test_degradation_reproduces_the_motivating_claim(self, sweep):
        """Section I: 'above a given proportion of selfish clients, the
        compliant clients observe a major degradation in the quality of
        the video stream'."""
        by_fraction = {r.selfish_fraction: r for r in sweep}
        assert by_fraction[0.0].compliant_continuity > 0.95
        assert by_fraction[0.3].compliant_continuity >= (
            by_fraction[0.7].compliant_continuity
        )
        assert by_fraction[0.7].compliant_continuity < 0.6

    def test_no_detection_means_no_convictions(self, sweep):
        for r in sweep:
            assert r.selfish_convicted_fraction == 0.0

    def test_detection_convicts_the_population(self):
        results = selfish_population_impact(
            [0.3], n_nodes=24, rounds=18, detection_enabled=True
        )
        assert results[0].selfish_convicted_fraction > 0.9
