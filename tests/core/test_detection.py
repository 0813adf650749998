"""Accountability tests: every selfish strategy is detected, correct
nodes are never convicted (no false positives), detection is prompt.

These are the executable form of the section VI-B analysis.
"""

import pytest

from repro.adversary.selfish import (
    ContactAvoider,
    DeclarationSkipper,
    FreeRider,
    PartialForwarder,
    SilentReceiver,
    StealthyFreeRider,
)
from repro.core import FaultReason, PagConfig, PagSession

N = 20
ROUNDS = 12
DEVIANT = 7

STRATEGIES = [
    (FreeRider(), {FaultReason.WRONG_FORWARD_SET}),
    (
        PartialForwarder(keep_fraction=0.5, seed=3),
        {FaultReason.WRONG_FORWARD_SET},
    ),
    (SilentReceiver(), {FaultReason.REFUSED_RECEPTION}),
    (DeclarationSkipper(), {FaultReason.OMITTED_DECLARATION}),
    (ContactAvoider(), {FaultReason.OMISSION_TO_SERVE}),
    (StealthyFreeRider(drop_every=4), {FaultReason.WRONG_FORWARD_SET}),
]


def run_with(behavior, n=N, rounds=ROUNDS, deviant=DEVIANT):
    session = PagSession.create(n, behaviors={deviant: behavior})
    session.run(rounds)
    return session


@pytest.mark.parametrize(
    "behavior,expected_reasons",
    STRATEGIES,
    ids=[type(b).__name__ for b, _ in STRATEGIES],
)
def test_deviant_is_convicted_and_nobody_else(behavior, expected_reasons):
    session = run_with(behavior)
    convicted = session.convicted_nodes()
    assert DEVIANT in convicted, "the deviant escaped detection"
    assert convicted == {DEVIANT}, (
        f"false positives: {convicted - {DEVIANT}}"
    )
    reasons = {
        v.reason for v in session.all_verdicts() if v.node == DEVIANT
    }
    assert reasons & expected_reasons, (
        f"expected one of {expected_reasons}, got {reasons}"
    )


def test_verdicts_carry_evidence():
    session = run_with(FreeRider())
    for verdict in session.all_verdicts():
        assert verdict.evidence
        assert verdict.detected_by in session.nodes
        assert verdict.exchange_round >= 0


def test_detection_is_prompt():
    """A free-rider is convicted within a few rounds of its first
    non-trivial serving obligation."""
    session = PagSession.create(N, behaviors={DEVIANT: FreeRider()})
    first_conviction = None
    for rnd in range(ROUNDS):
        session.run(1)
        if DEVIANT in session.convicted_nodes():
            first_conviction = rnd
            break
    assert first_conviction is not None
    assert first_conviction <= 6


def test_multiple_deviants_all_convicted():
    behaviors = {
        5: FreeRider(),
        9: DeclarationSkipper(),
        13: ContactAvoider(),
    }
    session = PagSession.create(24, behaviors=behaviors)
    session.run(14)
    convicted = session.convicted_nodes()
    assert set(behaviors) <= convicted
    assert convicted <= set(behaviors)


def test_independent_monitors_agree():
    """Every monitor of the deviant that issues a verdict issues the
    same (node, reason) conviction — proofs are objective."""
    session = run_with(FreeRider())
    per_monitor = {}
    for node in session.nodes.values():
        for verdict in node.verdicts():
            per_monitor.setdefault(node.node_id, set()).add(
                (verdict.node, verdict.reason)
            )
    assert per_monitor, "nobody convicted anything"
    all_claims = set().union(*per_monitor.values())
    assert all(
        claim[0] == DEVIANT for claim in all_claims
    ), f"conflicting claims: {all_claims}"


def test_detection_disabled_sees_nothing():
    config = PagConfig(detection_enabled=False)
    session = PagSession.create(
        N, config=config, behaviors={DEVIANT: FreeRider()}
    )
    session.run(ROUNDS)
    assert session.all_verdicts() == []


def test_free_rider_saves_upload_bandwidth():
    """The deviation must actually be profitable in bandwidth terms —
    otherwise detecting it proves nothing about incentives."""
    honest = PagSession.create(N)
    honest.run(ROUNDS)
    cheat = run_with(FreeRider())
    honest_up = honest.bandwidth_kbps(direction="up")[DEVIANT]
    cheat_up = cheat.bandwidth_kbps(direction="up")[DEVIANT]
    assert cheat_up < honest_up


def test_ghost_forwarding_ablation_still_detects():
    """With the literal S_A semantics (owned updates re-enter the
    obligation), detection still works and honest nodes stay clean."""
    config = PagConfig(forward_owned_ghosts=True, playout_delay_rounds=6)
    session = PagSession.create(
        16, config=config, behaviors={DEVIANT: FreeRider()}
    )
    session.run(10)
    assert DEVIANT in session.convicted_nodes()
    assert session.convicted_nodes() == {DEVIANT}
