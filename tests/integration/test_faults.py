"""Omission failures: lost messages must not convict honest nodes.

Section IV-A: "using classical techniques we handle omission failures".
A lost Serve or Ack triggers the Fig. 3 accusation path, which
re-delivers the serve through the accused node's monitors and
exonerates everyone via Confirm.  These tests inject real loss and
assert both safety (no false conviction) and liveness (the stream still
plays).
"""

import pytest

from repro.core import PagSession
from repro.sim.faults import LinkCutFault, LossFault, OutageFault
from repro.sim.network import Network
from repro.sim.rng import SeedSequence


def _install(session, fault, seed=0):
    """Build ``fault`` on the session's network, drawing from a seeded
    ``loss`` stream, and install it."""
    network = session.simulator.network
    rule = fault.build(SeedSequence(seed).stream("loss"), network)
    network.add_drop_rule(rule)
    return rule


def test_lost_acks_are_recovered_by_accusations():
    """Drop 20% of Acks: accusation -> probe -> Confirm exonerates."""
    session = PagSession.create(20)
    loss = _install(
        session, LossFault(probability=0.2, kinds=("ack",)), seed=3
    )
    session.run(14)
    assert loss.hits > 0, "the fault injector never fired"
    assert session.all_verdicts() == [], [
        (v.node, v.reason) for v in session.all_verdicts()
    ]
    assert session.mean_continuity() > 0.99


def test_lost_serves_are_redelivered_through_probes():
    """Drop 10% of Serves: the receiver never acks (it got nothing),
    the server accuses, and the monitors' probe carries the content —
    the receiver still plays the stream."""
    session = PagSession.create(20)
    loss = _install(
        session, LossFault(probability=0.1, kinds=("serve",)), seed=5
    )
    session.run(14)
    assert loss.hits > 0
    assert session.all_verdicts() == []
    assert session.mean_continuity() > 0.95


def test_lost_key_responses_handled():
    session = PagSession.create(20)
    loss = _install(
        session, LossFault(probability=0.15, kinds=("key_response",)), seed=7
    )
    session.run(14)
    assert loss.hits > 0
    assert session.all_verdicts() == []
    assert session.mean_continuity() > 0.95


def test_cut_link_does_not_convict_either_endpoint():
    """A dead link between two honest nodes: every exchange across it
    fails, every accusation resolves through the probes."""
    session = PagSession.create(20)
    cut = _install(session, LinkCutFault(links=((3, 11), (11, 3))))
    session.run(14)
    assert cut.hits > 0
    convicted = session.convicted_nodes()
    assert 3 not in convicted
    assert 11 not in convicted


def test_permanent_crash_is_convicted_as_unresponsive():
    """Accountability without failure detectors cannot distinguish a
    crash from a refusal: a permanently silent node is convicted, and
    the rest of the membership keeps streaming."""
    session = PagSession.create(20)
    _install(session, OutageFault(node_id=9, first_round=3, last_round=10**9))
    session.run(14)
    # The partitioned node's own monitor engine indicts everyone it can
    # no longer hear; a deployment discounts verdicts from unreachable
    # monitors, so judge from the live nodes' perspective.
    convicted = session.convicted_nodes(exclude_detectors={9})
    assert convicted == {9}
    # Chunks in flight through the crashed node at the crash instant can
    # be lost to individual nodes (PAG has no gap-repair pull; the
    # duplicate factor usually covers, but not always for a 20-node
    # membership).  The meaningful liveness claim: the healthy
    # membership keeps streaming on average.
    healthy = [n for n in session.nodes if n != 9]
    continuities = [
        session.playback_report(n).continuity for n in healthy
    ]
    assert sum(continuities) / len(continuities) > 0.9
    assert sorted(continuities)[len(continuities) // 2] > 0.95  # median


def test_churned_node_removed_mid_session():
    """A node that leaves outright (process killed) — same story."""
    session = PagSession.create(20)
    session.run(5)
    session.remove_node(13)
    session.run(9)
    assert 13 in session.convicted_nodes()
    assert session.convicted_nodes() == {13}


def test_cannot_remove_the_source():
    session = PagSession.create(12)
    with pytest.raises(ValueError):
        session.remove_node(0)


def test_combined_loss_and_cheating_still_isolates_the_cheater():
    """Noise must not mask a real free-rider, nor frame honest nodes."""
    from repro.adversary.selfish import FreeRider

    session = PagSession.create(20, behaviors={7: FreeRider()})
    loss = _install(
        session, LossFault(probability=0.1, kinds=("ack",)), seed=11
    )
    session.run(14)
    assert 7 in session.convicted_nodes()
    assert session.convicted_nodes() == {7}


class TestFaultInjectors:
    def test_random_loss_validation(self):
        with pytest.raises(ValueError):
            LossFault(probability=1.5)

    def test_random_loss_kind_filter(self):
        from repro.core.messages import KeyRequest

        loss = LossFault(probability=1.0, kinds=("ack",)).build(
            SeedSequence(1).stream("x"), Network()
        )
        msg = KeyRequest(sender=1, recipient=2, round_no=0)
        assert not loss(msg)

    def test_outage_window(self):
        from repro.core.messages import KeyRequest

        outage = OutageFault(node_id=1, first_round=5, last_round=6).build(
            SeedSequence(1).stream("x"), Network()
        )
        early = KeyRequest(sender=1, recipient=2, round_no=4)
        inside = KeyRequest(sender=1, recipient=2, round_no=5)
        other = KeyRequest(sender=3, recipient=4, round_no=5)
        assert not outage(early)
        assert outage(inside)
        assert not outage(other)
