"""Property-based tests for the columnar bandwidth meter.

The parallel execution backend leans on two meter properties:

* ``merge_from`` is an exact fold — any partition of a traffic log into
  per-shard meters, merged in any order, equals the single meter that
  recorded everything directly (including rounds nobody touched and
  nodes that only ever appear in one shard);
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


@settings(max_examples=60, deadline=None)
@given(
    recorded=events,
    assignment=st.lists(st.integers(min_value=0, max_value=3), max_size=60),
    merge_order=st.permutations([0, 1, 2, 3]),
)
def test_any_sharding_merges_back_to_the_reference(
    recorded, assignment, merge_order
):
    """Partition events across 4 shard meters arbitrarily, merge in an
    arbitrary shard order: totals, series and rounds_seen must equal the
    single-meter reference byte for byte."""
    reference = _meter_of(recorded)
    shards = [BandwidthMeter() for _ in range(4)]
    for index, (sender, recipient, size, rnd) in enumerate(recorded):
        shard = assignment[index % len(assignment)] if assignment else 0
        shards[shard].record(sender, recipient, size, rnd)
    merged = BandwidthMeter()
    for shard in merge_order:
        merged.merge_from(shards[shard])
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
    """Merging onto a meter with prior traffic adds element-wise."""
    base_traffic = [(0, 10, 100, 0), (1, 11, 50, 2)]
    combined = _meter_of(base_traffic + recorded)
    target = _meter_of(base_traffic)
    target.merge_from(_meter_of(recorded))
    assert target.snapshot() == combined.snapshot()


def test_merge_from_empty_meters_and_empty_rounds():
    """Empty shards and gap rounds (nobody sent) are preserved."""
    reference = BandwidthMeter()
    reference.record(1, 2, 700, 0)
    reference.record(1, 2, 300, 5)  # rounds 1-4 are empty
    merged = BandwidthMeter()
    merged.merge_from(reference)
    merged.merge_from(BandwidthMeter())  # no-op
    assert merged.snapshot() == reference.snapshot()
    assert merged.node_series(1, "up") == [700, 0, 0, 0, 0, 300]
    assert merged.rounds_seen == 6


@settings(max_examples=40, deadline=None)
@given(
    first=st.integers(min_value=0, max_value=10),
    gap=st.integers(min_value=1, max_value=5),
)
def test_inverted_window_rejection_survives_merging(first, gap):
    """node_kbps/all_node_kbps refuse inverted windows on merged meters
    exactly as on directly-recorded ones."""
    meter = BandwidthMeter()
    shard = BandwidthMeter()
    shard.record(1, 2, 100, first + gap + 1)
    meter.merge_from(shard)
    with pytest.raises(ValueError, match="inverted round window"):
        meter.node_kbps(1, first_round=first + gap, last_round=first)
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
    """Satellite regression: ``node_kbps`` validated windows but the
    byte reader feeding the CDF aggregation did not — an inverted window
    silently summed nothing and a negative ``first_round`` sliced from
    the *end* of the per-round columns.  All window readers now share
    one validator."""
    meter = _meter_of(recorded + [(0, 10, 100, first + gap + 1)])
    node_ids = sorted(
        {s for s, _, _, _ in recorded} | {r for _, r, _, _ in recorded} | {0}
    )
    for call in (
        lambda: meter.node_bytes(0, first_round=first + gap, last_round=first),
        lambda: meter.node_kbps(0, first_round=first + gap, last_round=first),
        lambda: meter.all_node_kbps(
            node_ids, first_round=first + gap, last_round=first
        ),
    ):
        with pytest.raises(ValueError, match="inverted round window"):
            call()
    for call in (
        lambda: meter.node_bytes(0, first_round=-first - 1),
        lambda: meter.node_kbps(0, first_round=-first - 1),
        lambda: meter.all_node_kbps(node_ids, first_round=-first - 1),
    ):
        with pytest.raises(ValueError, match="non-negative"):
            call()


@settings(max_examples=30, deadline=None)
@given(recorded=events, first=st.integers(min_value=0, max_value=14))
def test_valid_windows_still_agree_across_readers(recorded, first):
    """The added validation must not change any valid-window sum: bytes
    scaled by the window duration equal the kbps the aggregation (and
    the CDF built from it) reports."""
    meter = _meter_of(recorded)
    if meter.rounds_seen <= first:
        return
    node_ids = sorted(
        {s for s, _, _, _ in recorded} | {r for _, r, _, _ in recorded}
    )
    bulk = meter.all_node_kbps(node_ids, first_round=first)
    duration = meter.rounds_seen - first
    for node in node_ids:
        assert bulk[node] == pytest.approx(
            meter.node_bytes(node, first_round=first) * 8.0 / 1000.0
            / duration
        )
        assert bulk[node] == pytest.approx(
            meter.node_kbps(node, first_round=first)
        )
    assert cdf_points(bulk) == cdf_points(sorted(bulk.values()))


def test_empty_meter_defaults_preserved():
    """Default windows on an empty meter keep their seed semantics:
    byte readers return nothing, rate readers reject (no duration)."""
    meter = BandwidthMeter()
    assert meter.node_bytes(1) == 0
    assert meter.node_series(1) == []
    with pytest.raises(ValueError, match="inverted round window"):
        meter.node_kbps(1)


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
