"""Spilled-meter parity and in-memory volumes beyond int64.

Two contracts live here.  First, the :class:`SpilledMeter` docstring
promises that a spilled read of the same traffic is *bit-identical* to
an in-memory :class:`BandwidthMeter` read — integer window sums first,
one multiply by ``8.0 / 1000.0 / duration`` — and the Hypothesis suite
below holds it to that across random traffic, windows, directions and
node offsets.  Second, the in-memory meter sums Python integers: when
:meth:`BandwidthMeter.merge_from` pushes a node's cumulative volume
past ``2**63 - 1`` every reader must still return the exact value.
"""

import numpy as np
import pytest

from repro.sim.metrics import BandwidthMeter, SpilledMeter, kbps
from repro.sim.trace import ColumnarRoundSpill

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _paired(n_nodes, n_rounds, traffic, node_offset=0):
    """Build a spill and an in-memory meter fed identical traffic.

    ``traffic`` is an (n_rounds, 2, n_nodes) nested list of byte rows
    (index 0 = up, 1 = down).  The in-memory meter has no "record a
    bare download" primitive, so the reference meter is fed through a
    sink/source node placed outside the metered universe and the
    comparison only reads the real nodes.
    """
    spill = ColumnarRoundSpill(n_nodes)
    meter = BandwidthMeter()
    sink = node_offset + n_nodes + 1_000_000
    for rnd, (up_row, down_row) in enumerate(traffic):
        spill.append_round({"up": up_row, "down": down_row})
        for local, size in enumerate(up_row):
            meter.record(node_offset + local, sink, size, rnd)
        for local, size in enumerate(down_row):
            meter.record(sink, node_offset + local, size, rnd)
    return spill, meter


@st.composite
def traffic_case(draw):
    n_nodes = draw(st.integers(min_value=1, max_value=6))
    n_rounds = draw(st.integers(min_value=1, max_value=9))
    sizes = st.integers(min_value=0, max_value=50_000)
    traffic = [
        [
            draw(
                st.lists(
                    sizes, min_size=n_nodes, max_size=n_nodes
                )
            )
            for _ in range(2)
        ]
        for _ in range(n_rounds)
    ]
    node_offset = draw(st.integers(min_value=0, max_value=200))
    first = draw(st.integers(min_value=0, max_value=n_rounds - 1))
    last = draw(st.integers(min_value=first, max_value=n_rounds + 2))
    direction = draw(st.sampled_from(["both", "up", "down"]))
    seconds = draw(st.sampled_from([1.0, 0.5, 2.0, 0.25]))
    return n_nodes, traffic, node_offset, first, last, direction, seconds


@given(traffic_case())
@settings(max_examples=60, deadline=None)
def test_spilled_reads_match_in_memory_meter_bitwise(case):
    n_nodes, traffic, offset, first, last, direction, seconds = case
    spill, meter = _paired(n_nodes, len(traffic), traffic, offset)
    try:
        spilled = SpilledMeter(spill, node_offset=offset)
        nodes = spilled.node_ids()
        assert nodes == [offset + i for i in range(n_nodes)]
        assert spilled.rounds_seen == len(traffic)
        for node in nodes:
            assert spilled.node_bytes(
                node, first, last, direction
            ) == meter.node_bytes(node, first, last, direction)
            assert spilled.node_kbps(
                node, seconds, first, last, direction
            ) == meter.node_kbps(node, seconds, first, last, direction)
        assert spilled.all_node_kbps(
            nodes, seconds, first, last, direction
        ) == meter.all_node_kbps(nodes, seconds, first, last, direction)
        assert spilled.mean_kbps(
            nodes, seconds, first, last, direction
        ) == meter.mean_kbps(nodes, seconds, first, last, direction)
        # The bulk vector behind the population CDF matches the
        # per-node dict reader value for value (same IEEE operations).
        vector = spilled.window_kbps_vector(
            seconds, first, last, direction
        )
        assert vector.tolist() == [
            spilled.all_node_kbps(
                nodes, seconds, first, last, direction
            )[node]
            for node in nodes
        ]
    finally:
        spill.close()


@given(traffic_case())
@settings(max_examples=30, deadline=None)
def test_spilled_default_window_matches_meter(case):
    n_nodes, traffic, offset, _first, _last, direction, seconds = case
    spill, meter = _paired(n_nodes, len(traffic), traffic, offset)
    try:
        spilled = SpilledMeter(spill, node_offset=offset)
        nodes = spilled.node_ids()
        assert spilled.all_node_kbps(
            nodes, seconds, direction=direction
        ) == meter.all_node_kbps(nodes, seconds, direction=direction)
    finally:
        spill.close()


def test_spilled_meter_validation():
    spill = ColumnarRoundSpill(2, fields=("up",))
    try:
        with pytest.raises(ValueError, match="lacks the 'down' field"):
            SpilledMeter(spill)
    finally:
        spill.close()
    spill = ColumnarRoundSpill(2)
    try:
        with pytest.raises(ValueError, match="negative"):
            SpilledMeter(spill, node_offset=-1)
        spilled = SpilledMeter(spill)
        spill.append_round({"up": [1, 2], "down": [3, 4]})
        with pytest.raises(ValueError, match="non-negative"):
            spilled.window_sums(first_round=-1)
        with pytest.raises(ValueError, match="inverted"):
            spilled.window_sums(first_round=3, last_round=1)
        with pytest.raises(ValueError, match="inverted"):
            spilled.window_kbps_vector(first_round=3, last_round=1)
        with pytest.raises(ValueError, match="unknown direction"):
            spilled.window_sums(direction="sideways")
        # Outside the plane universe: bytes are 0, dict reads are 0.0.
        assert spilled.node_bytes(99) == 0
        assert spilled.all_node_kbps([99]) == {99: 0.0}
    finally:
        spill.close()


def test_spilled_window_past_written_rounds_zero_pads():
    spill = ColumnarRoundSpill(2)
    try:
        spill.append_round({"up": [5, 7], "down": [11, 13]})
        spilled = SpilledMeter(spill)
        np.testing.assert_array_equal(
            spilled.window_sums(0, 10, "both"), np.array([16, 20])
        )
        # Fully-past window: sums are zero, rates are zero over the
        # requested duration (not an error — the window is valid).
        np.testing.assert_array_equal(
            spilled.window_sums(5, 9, "both"), np.zeros(2, np.int64)
        )
        assert spilled.node_kbps(0, 1.0, 5, 9) == 0.0
    finally:
        spill.close()


# ---------------------------------------------------------------------------
# Volumes beyond int64, introduced via merge_from.
# ---------------------------------------------------------------------------

#: Just over half of int64: one shard fits, two merged would wrap.
_HALF_OVERFLOW = (1 << 62) + 1


def _shard(sizes_by_round, sender=0, recipient=1):
    meter = BandwidthMeter()
    for rnd, size in enumerate(sizes_by_round):
        meter.record(sender, recipient, size, rnd)
    return meter


def test_merge_from_beyond_int64_stays_exact():
    merged = BandwidthMeter()
    for shard in [_shard([_HALF_OVERFLOW, 3]) for _ in range(2)]:
        merged.merge_from(shard)
    assert merged.totals[0].bytes_up == 2 * _HALF_OVERFLOW + 6
    assert merged.node_bytes(0, direction="up") == 2 * _HALF_OVERFLOW + 6
    assert merged.node_bytes(1, direction="down") == (
        2 * _HALF_OVERFLOW + 6
    )
    assert merged.node_bytes(0, 1, 1, "up") == 6
    expected = kbps(2 * _HALF_OVERFLOW + 6, 2.0)
    assert merged.all_node_kbps([0], direction="up") == {0: expected}
    assert merged.node_kbps(0, direction="up") == expected


def test_overflowed_meter_matches_columnar_reference():
    # The merged meter's readers must agree with a meter that recorded
    # the same traffic directly.
    sizes = [_HALF_OVERFLOW, 17, 0, 4096]
    merged = BandwidthMeter()
    merged.merge_from(_shard(sizes))
    merged.merge_from(_shard(sizes))
    reference = BandwidthMeter()
    for rnd, size in enumerate(sizes):
        reference.record(0, 1, size, rnd)
        reference.record(0, 1, size, rnd)
    for first, last in [(0, None), (1, 2), (0, 3), (2, 2)]:
        for direction in ("both", "up", "down"):
            assert merged.all_node_kbps(
                [0, 1], 1.0, first, last, direction
            ) == reference.all_node_kbps(
                [0, 1], 1.0, first, last, direction
            )
    assert merged.snapshot() == reference.snapshot()
