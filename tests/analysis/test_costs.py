"""Tests for Table I cost accounting and Table II quality feasibility."""

import pytest

from repro.analysis.costs import (
    hashes_per_second,
    signatures_per_second,
    table1_rows,
)
from repro.analysis.quality import (
    acting_cost_of_quality,
    pag_cost_of_quality,
    table2,
)
from repro.scenarios import get_scenario
from repro.streaming.video import QUALITY_LADDER, quality_by_name


class TestTable1:
    def test_signature_constant_is_paper_exact(self):
        """Table I: '33' RSA signatures per second, independent of the
        video quality, at f = fm = 3."""
        assert signatures_per_second(3, 3) == 33.0

    def test_signatures_independent_of_quality(self):
        rows = table1_rows()
        assert len({r.rsa_signatures_per_s for r in rows}) == 1

    def test_hashes_linear_in_rate(self):
        """Near-linear: a small constant term (attestations, acks,
        lifts) keeps the ratio slightly under the pure rate ratio."""
        h_144 = hashes_per_second(quality_by_name("144p"))
        h_1080 = hashes_per_second(quality_by_name("1080p"))
        ratio = h_1080 / h_144
        rate_ratio = 4500 / 80
        assert ratio == pytest.approx(rate_ratio, rel=0.10)
        assert ratio < rate_ratio

    def test_hashes_same_order_as_paper(self):
        """Paper's 1080p row: 7200 hashes/s.  Our protocol hashes the
        buffermap once per issued prime, giving the same order of
        magnitude (the exact constant depends on the per-update hash
        count: paper ~12/update, ours ~15-20/update with the measured
        duplicate factor)."""
        h = hashes_per_second(quality_by_name("1080p"))
        assert 5_000 < h < 20_000

    def test_rows_cover_ladder(self):
        rows = table1_rows()
        assert [r.quality for r in rows] == [
            q.name for q in QUALITY_LADDER
        ]

    def test_720p_fits_one_core_at_paper_rate(self):
        """Section VII-C: one core does 4800 hashes/s (openssl, 512-bit
        modulus); 720p must fit within roughly one or two cores."""
        h = hashes_per_second(quality_by_name("720p"))
        assert h < 2 * 4800

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "open finding (ROADMAP item 2): at 60 nodes x 15 rounds the "
            "simulator counts 409 hashes per node-second, the closed form "
            "hashes_per_second gives 831, the paper's 240p cell is 475"
        ),
    )
    def test_closed_form_hashes_match_the_simulator(self):
        """The comparison ``benchmarks/bench_table1_crypto_costs.py``
        makes at its default scale: the counters of a packet simulation
        at 300 Kbps against both closed forms, within 50%."""
        spec = get_scenario("table1", nodes=60, rounds=15)
        session = spec.build()
        session.run(spec.rounds)
        report = session.crypto_report()
        node_rounds = len(session.nodes) * session.current_round
        assert report["signatures"] / node_rounds == pytest.approx(
            signatures_per_second(3, 3), rel=0.5
        )
        assert report["homomorphic_hashes"] / node_rounds == pytest.approx(
            hashes_per_second(QUALITY_LADDER[1], spec.build_config()),
            rel=0.5,
        )


class TestTable2:
    @pytest.fixture(scope="class")
    def table(self):
        return table2(n_nodes=1000)

    def test_rac_row_is_empty(self, table):
        assert all(cell.quality is None for cell in table["RAC"])

    def test_acting_adsl_cell_matches_paper(self, table):
        """Paper: AcTinG sustains 480p at 1.4 Mbps on ADSL Lite."""
        cell = table["AcTinG"][0]
        assert cell.quality == "480p"
        assert cell.used_kbps == pytest.approx(1400, rel=0.25)

    def test_acting_reaches_1080p_from_10mbps(self, table):
        assert table["AcTinG"][1].quality == "1080p"

    def test_pag_sustains_low_quality_on_adsl(self, table):
        """Paper: PAG fits 144p in 1.5 Mbps; our lighter ghost handling
        lands one rung up at most."""
        assert table["PAG"][0].quality in ("144p", "240p")

    def test_pag_reaches_1080p_from_100mbps(self, table):
        assert table["PAG"][2].quality == "1080p"

    def test_pag_always_below_acting(self, table):
        order = [q.name for q in QUALITY_LADDER]
        for pag_cell, acting_cell in zip(table["PAG"], table["AcTinG"]):
            pag_rank = order.index(pag_cell.quality)
            acting_rank = order.index(acting_cell.quality)
            assert pag_rank <= acting_rank

    def test_cells_render(self, table):
        assert table["RAC"][0].render() == "∅"
        assert "p (" in table["PAG"][0].render()

    def test_costs_monotone_in_quality(self):
        costs = [
            pag_cost_of_quality(q) for q in QUALITY_LADDER
        ]
        assert costs == sorted(costs)
        costs_a = [acting_cost_of_quality(q) for q in QUALITY_LADDER]
        assert costs_a == sorted(costs_a)
