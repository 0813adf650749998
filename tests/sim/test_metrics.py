"""Tests for bandwidth metering and CDF helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import BandwidthMeter, cdf_points, kbps


def test_kbps_conversion():
    # 1250 bytes over 1 s = 10_000 bits/s = 10 kbps.
    assert kbps(1250, 1.0) == pytest.approx(10.0)
    assert kbps(1250, 2.0) == pytest.approx(5.0)


def test_kbps_rejects_nonpositive_duration():
    with pytest.raises(ValueError):
        kbps(100, 0)


def test_record_attributes_symmetrically():
    meter = BandwidthMeter()
    meter.record(sender=1, recipient=2, size=100, rnd=0)
    assert meter.totals[1].bytes_up == 100
    assert meter.totals[1].bytes_down == 0
    assert meter.totals[2].bytes_down == 100
    assert meter.totals[2].bytes_up == 0
    assert meter.totals[1].messages_up == 1
    assert meter.totals[2].messages_down == 1


def test_record_rejects_negative_size():
    with pytest.raises(ValueError):
        BandwidthMeter().record(1, 2, -1, 0)


def test_node_bytes_window():
    meter = BandwidthMeter()
    meter.record(1, 2, 100, rnd=0)
    meter.record(1, 2, 200, rnd=1)
    meter.record(2, 1, 50, rnd=1)
    meter.record(1, 2, 400, rnd=2)
    assert meter.node_bytes(1, first_round=1, last_round=1) == 250
    assert meter.node_bytes(1) == 750
    assert meter.node_bytes(2) == 750


def test_node_kbps_uses_window_duration():
    meter = BandwidthMeter()
    meter.record(1, 2, 1250, rnd=0)
    meter.record(1, 2, 1250, rnd=1)
    # 2500 bytes over 2 rounds of 1 s = 10 kbps.
    assert meter.node_kbps(1) == pytest.approx(10.0)
    # Only round 1: 1250 bytes over 1 s = 10 kbps.
    assert meter.node_kbps(1, first_round=1) == pytest.approx(10.0)


def test_mean_kbps():
    meter = BandwidthMeter()
    meter.record(1, 2, 1250, rnd=0)
    assert meter.mean_kbps([1, 2]) == pytest.approx(10.0)
    assert meter.mean_kbps([]) == 0.0


def test_cdf_points_from_mapping():
    points = cdf_points({1: 10.0, 2: 30.0, 3: 20.0, 4: 40.0})
    values = [v for v, _ in points]
    percents = [p for _, p in points]
    assert values == [10.0, 20.0, 30.0, 40.0]
    assert percents == [25.0, 50.0, 75.0, 100.0]


def test_cdf_points_empty():
    assert cdf_points([]) == []


def test_node_kbps_rejects_inverted_window():
    meter = BandwidthMeter()
    meter.record(1, 2, 100, rnd=0)
    meter.record(1, 2, 100, rnd=1)
    with pytest.raises(ValueError, match="inverted round window"):
        meter.node_kbps(1, first_round=2, last_round=1)
    with pytest.raises(ValueError, match="inverted round window"):
        meter.all_node_kbps([1, 2], first_round=5, last_round=0)


def test_node_series_pads_to_rounds_seen():
    meter = BandwidthMeter()
    meter.record(1, 2, 100, rnd=0)
    meter.record(3, 1, 50, rnd=3)
    assert meter.node_series(1, "up") == [100, 0, 0, 0]
    assert meter.node_series(1, "down") == [0, 0, 0, 50]
    assert meter.node_series(1) == [100, 0, 0, 50]
    assert meter.node_series(99) == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Columnar-vs-dict parity: the columnar layout must account every byte
# exactly like the seed's (node, round)-keyed dicts did.
# ---------------------------------------------------------------------------


class DictMeterBaseline:
    """The seed's ``(node, round)``-keyed bandwidth accounting.

    Kept as the reference implementation: the parity tests prove the
    columnar :class:`~repro.sim.metrics.BandwidthMeter` produces
    byte-identical totals.
    """

    def __init__(self) -> None:
        self.per_round_up = {}
        self.per_round_down = {}
        self.rounds_seen = 0

    def record(self, sender: int, recipient: int, size: int, rnd: int) -> None:
        key_up = (sender, rnd)
        key_down = (recipient, rnd)
        self.per_round_up[key_up] = self.per_round_up.get(key_up, 0) + size
        self.per_round_down[key_down] = (
            self.per_round_down.get(key_down, 0) + size
        )
        if rnd + 1 > self.rounds_seen:
            self.rounds_seen = rnd + 1

    def node_bytes(
        self,
        node: int,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ) -> int:
        last = self.rounds_seen - 1 if last_round is None else last_round
        total = 0
        for rnd in range(first_round, last + 1):
            if direction in ("both", "up"):
                total += self.per_round_up.get((node, rnd), 0)
            if direction in ("both", "down"):
                total += self.per_round_down.get((node, rnd), 0)
        return total

    def all_node_kbps(
        self,
        nodes,
        round_seconds: float = 1.0,
        first_round: int = 0,
        last_round: int | None = None,
        direction: str = "both",
    ):
        last = self.rounds_seen - 1 if last_round is None else last_round
        duration = (last - first_round + 1) * round_seconds
        scale = 8.0 / 1000.0 / duration
        return {
            node: self.node_bytes(node, first_round, last, direction) * scale
            for node in nodes
        }


def _random_traffic(
    seed, n_nodes=24, rounds=20, messages=4000, max_size=5000
):
    rng = random.Random(seed)
    for _ in range(messages):
        sender = rng.randrange(n_nodes)
        recipient = (sender + rng.randrange(1, n_nodes)) % n_nodes
        yield (
            sender,
            recipient,
            rng.randrange(0, max_size),
            rng.randrange(rounds),
        )


def test_columnar_parity_with_dict_accounting():
    # The second log has single records and per-node window sums beyond
    # int64: Python integers must carry them exactly, never wrapped.
    for traffic in (
        _random_traffic(seed=0xC01),
        _random_traffic(seed=0xB16, messages=400, max_size=1 << 70),
    ):
        columnar = BandwidthMeter()
        reference = DictMeterBaseline()
        for sender, recipient, size, rnd in traffic:
            columnar.record(sender, recipient, size, rnd)
            reference.record(sender, recipient, size, rnd)
        assert columnar.rounds_seen == reference.rounds_seen
        windows = [(0, None), (0, 5), (4, 19), (7, 7), (19, None)]
        nodes = list(range(26))  # includes ids the meter never saw
        for first, last in windows:
            for direction in ("both", "up", "down"):
                for node in nodes:
                    assert columnar.node_bytes(
                        node, first, last, direction
                    ) == reference.node_bytes(
                        node, first, last, direction
                    ), (node, first, last, direction)
                assert columnar.all_node_kbps(
                    nodes, 1.0, first, last, direction
                ) == reference.all_node_kbps(
                    nodes, 1.0, first, last, direction
                )


def test_columnar_parity_on_fixed_seed_session():
    """End to end: a fixed-seed PAG run accounted both ways, byte for
    byte (the meter-parity acceptance criterion)."""
    from repro.core import PagConfig, PagSession

    class FanoutMeter:
        """Feeds every record call to the columnar meter and the
        dict-layout reference simultaneously."""

        def __init__(self, columnar, reference):
            self.columnar = columnar
            self.reference = reference

        def record(self, sender, recipient, size, rnd):
            self.columnar.record(sender, recipient, size, rnd)
            self.reference.record(sender, recipient, size, rnd)

    reference = DictMeterBaseline()
    session = PagSession.create(
        12, config=PagConfig.for_system_size(12, stream_rate_kbps=150.0)
    )
    network = session.simulator.network
    meter = network.meter
    network.meter = FanoutMeter(meter, reference)
    session.run(8)
    network.meter = meter
    for node in [0] + sorted(session.nodes):
        for direction in ("both", "up", "down"):
            assert meter.node_bytes(
                node, direction=direction
            ) == reference.node_bytes(node, direction=direction)
            assert meter.node_bytes(
                node, 4, direction=direction
            ) == reference.node_bytes(node, 4, direction=direction)


def test_merge_from_is_exact():
    whole = BandwidthMeter()
    shard_a = BandwidthMeter()
    shard_b = BandwidthMeter()
    for i, (sender, recipient, size, rnd) in enumerate(
        _random_traffic(seed=0xD1FF, messages=500)
    ):
        whole.record(sender, recipient, size, rnd)
        (shard_a if i % 2 else shard_b).record(sender, recipient, size, rnd)
    merged = BandwidthMeter()
    merged.merge_from(shard_a)
    merged.merge_from(shard_b)
    assert merged.rounds_seen == whole.rounds_seen
    for node in range(24):
        assert merged.node_series(node) == whole.node_series(node)
        assert merged.totals[node].bytes_up == whole.totals[node].bytes_up
        assert (
            merged.totals[node].messages_down
            == whole.totals[node].messages_down
        )


def _round_rows(meter):
    """What a parallel worker ships: per-node totals of a meter that
    saw one round (``_ReplicaWorker.run_phase`` builds the same)."""
    return [
        (node, t.bytes_up, t.messages_up, t.bytes_down, t.messages_down)
        for node, t in meter.totals.items()
    ]


@given(
    sends=st.lists(
        st.tuples(
            st.integers(0, 9),  # sender
            st.integers(0, 9),  # recipient
            st.integers(0, 3).map(lambda size: size * 511),  # 0 is a size
            st.integers(0, 3),  # shard that made the send
        ),
        max_size=40,
    ),
    rnd=st.integers(0, 5),
    earlier=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 99)),
        max_size=5,
    ),
    shard_order=st.permutations(range(4)),
)
@settings(max_examples=200, deadline=None)
def test_round_rows_meter_what_one_record_per_send_meters(
    sends, rnd, earlier, shard_order
):
    """One round of sends, metered once per send or as the per-shard
    rows of the shards' own meters in any shard order: the same
    snapshot and ``rounds_seen`` — also for a node whose only messages
    carried zero bytes, whose series must exist and reach the round."""
    direct = BandwidthMeter()
    by_rows = BandwidthMeter()
    for sender, recipient, size in earlier:  # round 0, already metered
        direct.record(sender, recipient, size, 0)
        by_rows.record(sender, recipient, size, 0)
    shards = [BandwidthMeter() for _ in range(4)]
    for sender, recipient, size, shard in sends:
        direct.record(sender, recipient, size, rnd)
        shards[shard].record(sender, recipient, size, rnd)
    for shard in shard_order:
        by_rows.add_round_rows(_round_rows(shards[shard]), rnd)
    assert by_rows.snapshot() == direct.snapshot()
    assert by_rows.rounds_seen == direct.rounds_seen


def test_round_rows_grow_a_zero_byte_series():
    meter = BandwidthMeter()
    meter.add_round_rows([(4, 0, 2, 0, 0), (5, 0, 0, 0, 2)], 3)
    reference = BandwidthMeter()
    reference.record(4, 5, 0, 3)
    reference.record(4, 5, 0, 3)
    assert meter.snapshot() == reference.snapshot()
    assert meter.up_series == {4: [0, 0, 0, 0]}
    assert meter.down_series == {5: [0, 0, 0, 0]}
    assert meter.rounds_seen == 4
