"""Property-based tests for the columnar bandwidth meter.

The parallel execution backend leans on two meter properties:

* ``add_round_rows`` is an exact fold — any partition of a traffic log
  into per-shard one-round meters, added as per-node rows in any shard
  order, equals the single meter that recorded everything directly
  (including rounds nobody touched and nodes that only ever appear in
  one shard);
* ``cdf_points`` is a pure function of the value multiset.

Hypothesis explores the partitions the hand-written tests cannot.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.sim.metrics import BandwidthMeter, cdf_points  # noqa: E402

#: One traffic event: sender, recipient, size, round.
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=10, max_value=19),
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=0, max_value=12),
    ),
    max_size=60,
)


def _meter_of(recorded):
    meter = BandwidthMeter()
    for sender, recipient, size, rnd in recorded:
        meter.record(sender, recipient, size, rnd)
    return meter


def _add_rows(target, recorded, shard_of=lambda index: 0, order=(0,)):
    """Meter ``recorded`` into ``target`` as a parallel barrier does:
    each (shard, round) cell fills its own meter, whose per-node totals
    are added as rows, shards taken in ``order``."""
    cells = {}
    for index, (sender, recipient, size, rnd) in enumerate(recorded):
        cell = cells.setdefault((shard_of(index), rnd), BandwidthMeter())
        cell.record(sender, recipient, size, rnd)
    for (_shard, rnd), cell in sorted(
        cells.items(), key=lambda item: (order.index(item[0][0]), item[0][1])
    ):
        target.add_round_rows(
            [
                (n, t.bytes_up, t.messages_up, t.bytes_down, t.messages_down)
                for n, t in cell.totals.items()
            ],
            rnd,
        )


@settings(max_examples=60, deadline=None)
@given(
    recorded=events,
    assignment=st.lists(st.integers(min_value=0, max_value=3), max_size=60),
    merge_order=st.permutations([0, 1, 2, 3]),
)
def test_any_sharding_merges_back_to_the_reference(
    recorded, assignment, merge_order
):
    """Partition events across 4 shards arbitrarily, add each shard's
    per-round rows in an arbitrary shard order: totals, series and
    rounds_seen must equal the single-meter reference byte for byte."""
    reference = _meter_of(recorded)
    merged = BandwidthMeter()
    _add_rows(
        merged,
        recorded,
        lambda index: assignment[index % len(assignment)] if assignment else 0,
        list(merge_order),
    )
    assert merged.snapshot() == reference.snapshot()
    node_ids = sorted(
        {s for s, _, _, _ in recorded} | {r for _, r, _, _ in recorded}
    )
    if reference.rounds_seen:
        assert merged.all_node_kbps(node_ids) == reference.all_node_kbps(
            node_ids
        )


@settings(max_examples=30, deadline=None)
@given(recorded=events)
def test_merge_into_nonempty_meter_adds_exactly(recorded):
    """Rows added onto a meter with prior traffic, in earlier or later
    rounds than it has seen, add element-wise."""
    base_traffic = [(0, 10, 100, 0), (1, 11, 50, 2)]
    combined = _meter_of(base_traffic + recorded)
    target = _meter_of(base_traffic)
    _add_rows(target, recorded)
    assert target.snapshot() == combined.snapshot()


@settings(max_examples=40, deadline=None)
@given(
    first=st.integers(min_value=0, max_value=10),
    gap=st.integers(min_value=1, max_value=5),
)
def test_inverted_window_rejection_survives_merging(first, gap):
    """all_node_kbps refuses inverted windows on meters filled from
    rows exactly as on directly-recorded ones."""
    meter = BandwidthMeter()
    _add_rows(meter, [(1, 2, 100, first + gap + 1)])
    with pytest.raises(ValueError, match="inverted round window"):
        meter.all_node_kbps([1, 2], first_round=first + gap, last_round=first)


@settings(max_examples=40, deadline=None)
@given(
    recorded=events,
    first=st.integers(min_value=0, max_value=10),
    gap=st.integers(min_value=1, max_value=5),
)
def test_every_window_reader_rejects_inverted_and_negative_windows(
    recorded, first, gap
):
    """Regression: an inverted window once silently summed nothing and
    a negative ``first_round`` sliced from the *end* of the per-round
    columns.  The window reader refuses both."""
    meter = _meter_of(recorded + [(0, 10, 100, first + gap + 1)])
    node_ids = sorted(
        {s for s, _, _, _ in recorded} | {r for _, r, _, _ in recorded} | {0}
    )
    for direction in ("both", "up", "down"):
        with pytest.raises(ValueError, match="inverted round window"):
            meter.all_node_kbps(
                node_ids,
                first_round=first + gap,
                last_round=first,
                direction=direction,
            )
        with pytest.raises(ValueError, match="non-negative"):
            meter.all_node_kbps(
                node_ids, first_round=-first - 1, direction=direction
            )


@settings(max_examples=30, deadline=None)
@given(recorded=events, first=st.integers(min_value=0, max_value=14))
def test_valid_windows_still_agree_across_readers(recorded, first):
    """Window validation must not change any valid-window sum: the
    window's bytes in the snapshot, scaled by its duration, equal the
    kbps the reader (and the CDF built from it) reports."""
    meter = _meter_of(recorded)
    if meter.rounds_seen <= first:
        return
    node_ids = sorted(
        {s for s, _, _, _ in recorded} | {r for _, r, _, _ in recorded}
    )
    bulk = meter.all_node_kbps(node_ids, first_round=first)
    snapshot = meter.snapshot()
    duration = meter.rounds_seen - first
    for node in node_ids:
        up = snapshot["up_series"].get(node, ())
        down = snapshot["down_series"].get(node, ())
        window = sum(up[first:]) + sum(down[first:])
        assert bulk[node] == pytest.approx(window * 8.0 / 1000.0 / duration)
    assert cdf_points(bulk) == cdf_points(sorted(bulk.values()))


def test_empty_meter_defaults_preserved():
    """An empty meter snapshots to nothing, and the rate reader rejects
    its default window (no duration to divide by)."""
    meter = BandwidthMeter()
    assert meter.snapshot() == {
        "rounds_seen": 0,
        "totals": {},
        "up_series": {},
        "down_series": {},
    }
    with pytest.raises(ValueError, match="inverted round window"):
        meter.all_node_kbps([1])
    assert meter.all_node_kbps([], last_round=0) == {}


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e9,
            allow_nan=False,
            allow_infinity=False,
        ),
        max_size=60,
    )
)
def test_cdf_points_matches_naive_definition(values):
    points = cdf_points(values)
    assert len(points) == len(values)
    assert [v for v, _ in points] == sorted(values)
    n = len(values)
    # Exactly this expression, not approximately: the CDF goldens pin
    # the percent axis bit for bit.
    for index, (_, percent) in enumerate(points):
        assert percent == 100.0 * (index + 1) / n
    if points:
        assert points[-1][1] == 100.0
    # Mapping input: only the values matter, not the node keys.
    keyed = cdf_points({i: v for i, v in enumerate(values)})
    assert keyed == points


def test_cdf_points_empty():
    assert cdf_points([]) == []
    assert cdf_points({}) == []
