"""Property tests on the metering substrate and fault injectors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.faults import LinkCutFault, LossFault
from repro.sim.message import Message
from repro.sim.metrics import BandwidthMeter
from repro.sim.network import Network

transfers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),  # sender
        st.integers(min_value=0, max_value=9),  # recipient
        st.integers(min_value=0, max_value=10_000),  # size
        st.integers(min_value=0, max_value=20),  # round
    ).filter(lambda t: t[0] != t[1]),
    max_size=60,
)


@given(transfers)
@settings(max_examples=60)
def test_meter_conservation(batch):
    """Every byte uploaded is a byte downloaded — the meter conserves."""
    meter = BandwidthMeter()
    for sender, recipient, size, rnd in batch:
        meter.record(sender, recipient, size, rnd)
    total_up = sum(t.bytes_up for t in meter.totals.values())
    total_down = sum(t.bytes_down for t in meter.totals.values())
    assert total_up == total_down == sum(size for _, _, size, _ in batch)


@given(transfers)
@settings(max_examples=60)
def test_meter_window_sums_to_total(batch):
    """A node's per-round series sum to its totals, and its two-way rate
    is its upload rate plus its download rate."""
    meter = BandwidthMeter()
    for sender, recipient, size, rnd in batch:
        meter.record(sender, recipient, size, rnd)
    snapshot = meter.snapshot()
    for node, (up, down, _, _) in snapshot["totals"].items():
        assert sum(snapshot["up_series"].get(node, ())) == up
        assert sum(snapshot["down_series"].get(node, ())) == down
    if not meter.rounds_seen:
        return
    nodes = range(10)
    total = meter.all_node_kbps(nodes)
    up = meter.all_node_kbps(nodes, direction="up")
    down = meter.all_node_kbps(nodes, direction="down")
    for node in nodes:
        assert total[node] == pytest.approx(up[node] + down[node])


@given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 2**16))
@settings(max_examples=40)
def test_random_loss_rate_tracks_probability(probability, seed):
    loss = LossFault(probability=probability).build(
        random.Random(seed), Network()
    )
    trials = 400
    dropped = sum(
        1
        for i in range(trials)
        if loss(Message(sender=1, recipient=2, round_no=i))
    )
    assert abs(dropped / trials - probability) < 0.12


def test_link_cut_is_directional_when_asked():
    rng, network = random.Random(0), Network()
    cut = LinkCutFault(links=((1, 2),)).build(rng, network)
    assert cut(Message(sender=1, recipient=2, round_no=0))
    assert not cut(Message(sender=2, recipient=1, round_no=0))
    both = LinkCutFault(links=((1, 2), (2, 1))).build(rng, network)
    assert both(Message(sender=2, recipient=1, round_no=0))
