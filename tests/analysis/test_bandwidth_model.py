"""Validation of the analytic bandwidth models against the simulator
and against the paper's anchor points."""

import pytest

from repro.analysis.bandwidth import (
    ActingBandwidthModel,
    PagBandwidthModel,
    acting_duplicate_factor,
    pag_duplicate_factor,
    plain_gossip_kbps,
)
from repro.baselines.acting import ActingSession
from repro.core import PagConfig, PagSession
from repro.scenarios import ScenarioSpec, get_scenario
from repro.sim.metrics import cdf_points


class TestPagModelStructure:
    def test_components_sum_to_total(self):
        model = PagBandwidthModel.for_system(1000, 300.0)
        assert model.total_kbps() == pytest.approx(
            sum(model.components().values())
        )

    def test_payload_dominant_but_not_everything(self):
        model = PagBandwidthModel.for_system(1000, 300.0)
        parts = model.components()
        assert parts["payload"] > 0.3 * model.total_kbps()
        assert parts["buffermaps"] > 0
        assert parts["monitoring"] > 0

    def test_grows_with_fanout(self):
        small = PagBandwidthModel(config=PagConfig(fanout=3))
        large = PagBandwidthModel(config=PagConfig(fanout=6))
        assert large.total_kbps() > small.total_kbps()

    def test_fig8_shape_bandwidth_falls_with_update_size(self):
        """Fig. 8: bigger updates -> fewer hashes per second -> lower
        bandwidth, flattening out around 10-100 kb updates."""
        costs = []
        for size in [938, 2_000, 10_000, 100_000]:
            config = PagConfig.for_system_size(
                1000, stream_rate_kbps=300.0, update_bytes=size
            )
            costs.append(PagBandwidthModel(config=config).total_kbps())
        assert costs[0] > costs[1] > costs[2] > costs[3]
        # The curve flattens: the last step saves much less than the first.
        assert (costs[0] - costs[1]) > (costs[2] - costs[3])

    def test_fig8_magnitude_on_the_papers_axis(self):
        """Fig. 8's x-axis, 1 kb to 100 kb updates at 1000 nodes: the
        paper reads ~1900 Kbps falling below 400; the model starts in
        the same band and falls by more than 2.5x (its floor sits higher
        because the measured duplicate factor applies at every size)."""
        costs = []
        for kbit in (1, 100):
            config = PagConfig.for_system_size(
                1000, stream_rate_kbps=300.0, update_bytes=kbit * 125
            )
            costs.append(PagBandwidthModel(config=config).total_kbps())
        assert 900 < costs[0] < 3500
        assert costs[1] < 1200
        assert costs[0] / costs[1] > 2.5

    def test_fig9_shape_logarithmic_scalability(self):
        """Fig. 9: bandwidth grows with log N (through the fanout)."""
        totals = [
            PagBandwidthModel.for_system(n, 300.0).total_kbps()
            for n in (10**3, 10**4, 10**5, 10**6)
        ]
        assert totals == sorted(totals)
        # Anchors: ~1000-1300 at 10^3, ~2500-3000 at 10^6 (paper: 2500).
        assert 800 < totals[0] < 1600
        assert 2000 < totals[-1] < 3500
        # Growth is sub-linear in N (logarithmic through the fanout).
        assert totals[-1] / totals[0] < 3.0


class TestActingModel:
    def test_near_paper_anchor(self):
        """Paper: AcTinG ~460 Kbps at 300 Kbps / ~1000 nodes."""
        total = ActingBandwidthModel.for_system(1000, 300.0).total_kbps()
        assert 330 < total < 600

    def test_cheaper_than_pag_everywhere(self):
        for n in (10**3, 10**4, 10**6):
            pag = PagBandwidthModel.for_system(n, 300.0).total_kbps()
            acting = ActingBandwidthModel.for_system(n, 300.0).total_kbps()
            assert acting < pag

    def test_fig9_acting_grows_logarithmically_below_pag(self):
        """Fig. 9: AcTinG grows with log N too, and PAG costs 1.5x to 8x
        as much at every system size."""
        sizes = (10**3, 10**4, 10**5, 10**6)
        acting = [
            ActingBandwidthModel.for_system(n, 300.0).total_kbps()
            for n in sizes
        ]
        assert acting == sorted(acting)
        assert acting[-1] / acting[0] < 3.0
        for n, cost in zip(sizes, acting):
            pag = PagBandwidthModel.for_system(n, 300.0).total_kbps()
            assert 1.5 < pag / cost < 8.0

    def test_components_sum(self):
        model = ActingBandwidthModel.for_system(1000, 300.0)
        assert model.total_kbps() == pytest.approx(
            sum(model.components().values())
        )


class TestDuplicateFactors:
    def test_depth4_table(self):
        assert pag_duplicate_factor(3, 4) == pytest.approx(2.8)
        assert pag_duplicate_factor(6, 4) == pytest.approx(5.6)

    def test_deep_buffermap_suppresses_recirculation(self):
        assert pag_duplicate_factor(3, 10) < pag_duplicate_factor(3, 4)

    def test_shallow_buffermap_explodes(self):
        assert pag_duplicate_factor(3, 2) > pag_duplicate_factor(3, 4) * 2

    def test_acting_mild(self):
        assert 1.0 < acting_duplicate_factor(3) < 1.5


class TestModelVsSimulator:
    """The headline validation: the closed form must track the packet
    simulator within a modest band at small scale."""

    def test_pag_model_tracks_simulator(self):
        n = 40
        config = PagConfig.for_system_size(n, stream_rate_kbps=150.0)
        session = PagSession.create(n, config=config)
        session.run(14)
        simulated = session.mean_bandwidth_kbps(
            warmup_rounds=4, direction="down"
        )
        model = PagBandwidthModel(config=config).total_kbps()
        assert simulated == pytest.approx(model, rel=0.45), (
            simulated,
            model,
        )

    def test_acting_model_tracks_simulator(self):
        session = ActingSession.create(30)
        session.run(15)
        simulated = session.mean_bandwidth_kbps(5, "down")
        model = ActingBandwidthModel.for_system(30, 300.0).total_kbps()
        assert simulated == pytest.approx(model, rel=0.45), (
            simulated,
            model,
        )

    def test_pag_costs_more_than_acting_in_simulation_too(self):
        """Fig. 7's shape: PAG costs 1.5x to 5x what AcTinG does (paper:
        1050 / 460 Kbps), and the load is homogeneous (a steep CDF)."""
        pag = PagSession.create(30)
        pag.run(12)
        acting = ActingSession.create(30)
        acting.run(12)
        ratio = pag.mean_bandwidth_kbps(4, "down") / (
            acting.mean_bandwidth_kbps(4, "down")
        )
        assert 1.5 < ratio < 5.0
        cdf = cdf_points(pag.bandwidth_kbps(4, "down"))
        p10 = next(v for v, pct in cdf if pct >= 10)
        p90 = next(v for v, pct in cdf if pct >= 90)
        assert p90 / p10 < 3.0


class TestSimulatorAblations:
    """Claims the packet simulator must show on its own, at the smallest
    membership that still shows each shape."""

    def test_fig8_bigger_updates_cost_less(self):
        spec = get_scenario(
            "fig8", nodes=16, rounds=8, warmup_rounds=2,
            stream_rate_kbps=150.0,
        )
        small = spec.with_overrides(update_bytes=500).run().mean_kbps
        large = spec.with_overrides(update_bytes=4000).run().mean_kbps
        assert large < small

    def test_buffermap_depth_has_an_interior_optimum(self):
        """Section V-D: "best results ... when the updates of the last 4
        rounds were hashed".  Too shallow a buffermap lets payload
        recirculate; past the optimum, depth only adds hash volume."""
        spec = get_scenario(
            "fig8", nodes=24, rounds=12, stream_rate_kbps=150.0,
            fanout=3, monitors_per_node=3,
        )
        kbps = {}
        for depth in (2, 4, 6, 10):
            session = spec.build_pag_with(buffermap_depth=depth)
            session.run(spec.rounds)
            kbps[depth] = session.mean_bandwidth_kbps(
                spec.warmup_rounds, direction="down"
            )
        assert kbps[2] > 1.5 * kbps[4]
        assert kbps[6] <= kbps[4]
        assert kbps[10] >= kbps[6]

    def test_extra_monitors_cost_little(self):
        """Section VII-B: "Increasing the number of monitors does not
        significantly increase the bandwidth cost": going from 3 to 5
        monitors at fanout 3 costs more, but under 40% more, and
        convicts nobody."""
        spec = ScenarioSpec(
            name="ablation-monitors",
            description="monitor-set size sweep at fixed fanout",
            nodes=20,
            rounds=10,
            warmup_rounds=4,
            fanout=3,
            stream_rate_kbps=150.0,
        )
        three = spec.with_overrides(monitors_per_node=3).run()
        five = spec.with_overrides(monitors_per_node=5).run()
        assert 1.0 < five.mean_kbps / three.mean_kbps < 1.4
        assert three.verdicts == five.verdicts == 0


def test_plain_gossip_is_the_floor():
    plain = plain_gossip_kbps(300.0)
    acting = ActingBandwidthModel.for_system(1000, 300.0).total_kbps()
    pag = PagBandwidthModel.for_system(1000, 300.0).total_kbps()
    assert plain < pag
    # Plain gossip without negotiation duplicates more than AcTinG's
    # payload path but skips all accountability overhead.
    assert plain < pag
    assert acting > 300.0
