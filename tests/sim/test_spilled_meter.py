"""Spilled-meter parity and in-memory volumes beyond int64.

Two contracts live here.  First, the :class:`SpilledMeter` docstring
promises that a spilled read of the same traffic is *bit-identical* to
an in-memory :class:`BandwidthMeter` read — integer window sums first,
one multiply by ``8.0 / 1000.0 / duration`` — and the Hypothesis suite
below holds it to that across random traffic, windows, directions and
round lengths.  Second, the in-memory meter sums Python integers: when
:meth:`BandwidthMeter.add_round_rows` pushes a node's cumulative
volume past ``2**63 - 1`` every reader must still return the exact
value.
"""

import numpy as np
import pytest

from repro.sim.metrics import BandwidthMeter, SpilledMeter, kbps
from repro.sim.trace import ColumnarRoundSpill

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _paired(n_nodes, n_rounds, traffic):
    """Build a spill and an in-memory meter fed identical traffic.

    ``traffic`` is an (n_rounds, 2, n_nodes) nested list of byte rows
    (index 0 = up, 1 = down).  The in-memory meter has no "record a
    bare download" primitive, so the reference meter is fed through a
    sink/source node placed outside the metered universe and the
    comparison only reads the real nodes ``0..n_nodes-1``.
    """
    spill = ColumnarRoundSpill(n_nodes)
    meter = BandwidthMeter()
    sink = n_nodes + 1_000_000
    for rnd, (up_row, down_row) in enumerate(traffic):
        spill.append_round({"up": up_row, "down": down_row})
        for node, size in enumerate(up_row):
            meter.record(node, sink, size, rnd)
        for node, size in enumerate(down_row):
            meter.record(sink, node, size, rnd)
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
    first = draw(st.integers(min_value=0, max_value=n_rounds - 1))
    last = draw(st.integers(min_value=first, max_value=n_rounds + 2))
    direction = draw(st.sampled_from(["both", "up", "down"]))
    seconds = draw(st.sampled_from([1.0, 0.5, 2.0, 0.25]))
    return n_nodes, traffic, first, last, direction, seconds


@given(traffic_case())
@settings(max_examples=60, deadline=None)
def test_spilled_reads_match_in_memory_meter_bitwise(case):
    n_nodes, traffic, first, last, direction, seconds = case
    spill, meter = _paired(n_nodes, len(traffic), traffic)
    try:
        spilled = SpilledMeter(spill)
        assert spilled.rounds_seen == len(traffic)
        nodes = range(n_nodes)
        # Row i of the vector is node i, value for value (same IEEE
        # operations as the in-memory reader).
        vector = spilled.window_kbps_vector(seconds, first, last, direction)
        reference = meter.all_node_kbps(nodes, seconds, first, last, direction)
        assert vector.tolist() == list(reference.values())
        # The byte sums under it are the in-memory series' window sums.
        snapshot = meter.snapshot()
        sums = spilled.window_sums(first, last, direction).tolist()
        for node in nodes:
            expected = 0
            if direction != "down":
                expected += sum(snapshot["up_series"][node][first : last + 1])
            if direction != "up":
                expected += sum(
                    snapshot["down_series"][node][first : last + 1]
                )
            assert sums[node] == expected
    finally:
        spill.close()


@given(traffic_case())
@settings(max_examples=30, deadline=None)
def test_spilled_default_window_matches_meter(case):
    n_nodes, traffic, _first, _last, direction, seconds = case
    spill, meter = _paired(n_nodes, len(traffic), traffic)
    try:
        spilled = SpilledMeter(spill)
        vector = spilled.window_kbps_vector(seconds, direction=direction)
        reference = meter.all_node_kbps(
            range(n_nodes), seconds, direction=direction
        )
        assert vector.tolist() == list(reference.values())
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
        with pytest.raises(ValueError, match="unknown direction"):
            spilled.window_kbps_vector(direction="sideways")
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
        vector = spilled.window_kbps_vector(1.0, 5, 9, "both")
        assert vector.tolist() == [0.0, 0.0]
    finally:
        spill.close()


# ---------------------------------------------------------------------------
# Volumes beyond int64, introduced via add_round_rows.
# ---------------------------------------------------------------------------

#: Just over half of int64: one shard fits, two merged would wrap.
_HALF_OVERFLOW = (1 << 62) + 1


def _add_shard(meter, sizes_by_round, sender=0, recipient=1):
    """Add one shard's rows: a single ``sender -> recipient`` send of
    each round's size, as a parallel barrier hands them back."""
    for rnd, size in enumerate(sizes_by_round):
        meter.add_round_rows(
            [(sender, size, 1, 0, 0), (recipient, 0, 0, size, 1)], rnd
        )


def test_round_rows_beyond_int64_stay_exact():
    merged = BandwidthMeter()
    for _ in range(2):
        _add_shard(merged, [_HALF_OVERFLOW, 3])
    assert merged.totals[0].bytes_up == 2 * _HALF_OVERFLOW + 6
    assert merged.totals[1].bytes_down == 2 * _HALF_OVERFLOW + 6
    snapshot = merged.snapshot()
    assert snapshot["up_series"] == {0: [2 * _HALF_OVERFLOW, 6]}
    assert snapshot["down_series"] == {1: [2 * _HALF_OVERFLOW, 6]}
    expected = kbps(2 * _HALF_OVERFLOW + 6, 2.0)
    assert merged.all_node_kbps([0], direction="up") == {0: expected}
    assert merged.all_node_kbps([0], 1.0, 1, 1, "up") == {0: kbps(6, 1.0)}


def test_overflowed_meter_matches_columnar_reference():
    # The merged meter's readers must agree with a meter that recorded
    # the same traffic directly.
    sizes = [_HALF_OVERFLOW, 17, 0, 4096]
    merged = BandwidthMeter()
    _add_shard(merged, sizes)
    _add_shard(merged, sizes)
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
