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
    # Round 1 alone: 250 bytes each over 1 s = 2 kbps.
    window = meter.all_node_kbps([1, 2], first_round=1, last_round=1)
    assert window == pytest.approx({1: 2.0, 2: 2.0})
    # The whole run: 750 bytes each over 3 s = 2 kbps.
    assert meter.all_node_kbps([1, 2]) == pytest.approx({1: 2.0, 2: 2.0})
    snapshot = meter.snapshot()
    assert snapshot["up_series"] == {1: [100, 200, 400], 2: [0, 50]}
    assert snapshot["down_series"] == {1: [0, 50], 2: [100, 200, 400]}


def test_node_kbps_uses_window_duration():
    meter = BandwidthMeter()
    meter.record(1, 2, 1250, rnd=0)
    meter.record(1, 2, 1250, rnd=1)
    # 2500 bytes over 2 rounds of 1 s = 10 kbps.
    assert meter.all_node_kbps([1])[1] == pytest.approx(10.0)
    # Only round 1: 1250 bytes over 1 s = 10 kbps.
    rates = meter.all_node_kbps([1], first_round=1)
    assert rates[1] == pytest.approx(10.0)
    # Half-second rounds double the rate.
    assert meter.all_node_kbps([1], 0.5)[1] == pytest.approx(20.0)


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
        meter.all_node_kbps([1], first_round=2, last_round=1)
    with pytest.raises(ValueError, match="inverted round window"):
        meter.all_node_kbps([1, 2], first_round=5, last_round=0)


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
        #: node -> [bytes_up, bytes_down, messages_up, messages_down]
        self.totals = {}
        self.rounds_seen = 0

    def record(self, sender: int, recipient: int, size: int, rnd: int) -> None:
        key_up = (sender, rnd)
        key_down = (recipient, rnd)
        self.per_round_up[key_up] = self.per_round_up.get(key_up, 0) + size
        self.per_round_down[key_down] = (
            self.per_round_down.get(key_down, 0) + size
        )
        up = self.totals.setdefault(sender, [0, 0, 0, 0])
        up[0] += size
        up[2] += 1
        down = self.totals.setdefault(recipient, [0, 0, 0, 0])
        down[1] += size
        down[3] += 1
        if rnd + 1 > self.rounds_seen:
            self.rounds_seen = rnd + 1

    def snapshot(self):
        """:meth:`BandwidthMeter.snapshot`'s form, rebuilt from the
        ``(node, round)`` keys: a node's series runs to its last round
        with a message in that direction."""

        def series(cells):
            out = {}
            for (node, rnd), size in sorted(cells.items()):
                row = out.setdefault(node, [])
                row.extend([0] * (rnd + 1 - len(row)))
                row[rnd] += size
            return out

        return {
            "rounds_seen": self.rounds_seen,
            "totals": {
                node: tuple(counts)
                for node, counts in sorted(self.totals.items())
            },
            "up_series": series(self.per_round_up),
            "down_series": series(self.per_round_down),
        }

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
        assert columnar.snapshot() == reference.snapshot()
        windows = [(0, None), (0, 5), (4, 19), (7, 7), (19, None)]
        nodes = list(range(26))  # includes ids the meter never saw
        for first, last in windows:
            for direction in ("both", "up", "down"):
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
    assert meter.snapshot() == reference.snapshot()
    nodes = [0] + sorted(session.nodes)
    for first in (0, 4):
        for direction in ("both", "up", "down"):
            assert meter.all_node_kbps(
                nodes, first_round=first, direction=direction
            ) == reference.all_node_kbps(
                nodes, first_round=first, direction=direction
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
