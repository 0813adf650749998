"""Property tests on the metering substrate and fault injectors."""

import random

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
    meter = BandwidthMeter()
    for sender, recipient, size, rnd in batch:
        meter.record(sender, recipient, size, rnd)
    for node in range(10):
        total = meter.node_bytes(node)
        up = meter.node_bytes(node, direction="up")
        down = meter.node_bytes(node, direction="down")
        assert total == up + down


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
