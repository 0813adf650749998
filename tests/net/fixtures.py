"""Deterministic example messages, one (or more) per wire kind.

Shared by the round-trip suite, the truncation fuzzers and the golden
cross-version pinning test: every registered kind byte appears here, so
a new schema that forgets to add a fixture fails the coverage check in
``test_wire.py``.
"""

from __future__ import annotations

from repro.core.messages import (
    Accusation,
    Ack,
    AckCopy,
    AckRelay,
    Attestation,
    AttestationRelay,
    AttestationRelayBatch,
    Confirm,
    DeclarationAck,
    InvestigateRequest,
    InvestigateResponse,
    KeyRequest,
    KeyResponse,
    MonitorBroadcast,
    MonitorProbe,
    Nack,
    ProbeAck,
    RelayPair,
    SelfCheck,
    Serve,
    ServeEntry,
    SignedAck,
    SignedAttestation,
)
from repro.gossip.updates import Update
from repro.net.wire import (
    CollectRequest,
    ControlRequest,
    ControlResponse,
    EventFrame,
    HealthReport,
    HealthRequest,
    JoinAccept,
    JoinReject,
    JoinRequest,
    PeerHello,
    RoundDone,
    RoundStart,
    SessionReport,
    Shutdown,
    StepDone,
    StepGo,
    StepMark,
    SubscribeRequest,
)

UPDATE = Update(
    uid=41, round_created=3, expiry_round=9, payload_bytes=938, session=0
)

ENTRY_PAYLOAD = ServeEntry(
    update=UPDATE, count=2, has_payload=True, ack_only=False
)
ENTRY_GHOST = ServeEntry(
    update=Update(
        uid=42, round_created=2, expiry_round=8, payload_bytes=938,
        session=0,
    ),
    count=1,
    has_payload=False,
    ack_only=True,
)

SIGNED_ACK = SignedAck(
    round_no=4,
    receiver=7,
    server=2,
    hash_total=0xDEADBEEFCAFE,
    key_prime_count=3,
    signature=0x1234567890AB,
)

SIGNED_ATT = SignedAttestation(
    round_no=4,
    server=2,
    receiver=7,
    hash_forward=0xFEEDFACE01,
    hash_ack_only=0x0BADF00D02,
    signature=0xABCDEF0123,
)

PAIR_A = RelayPair(
    attestation=SIGNED_ATT, cofactor=105, cofactor_prime_count=3
)
PAIR_B = RelayPair(
    attestation=SignedAttestation(
        round_no=4,
        server=5,
        receiver=7,
        hash_forward=0xC0FFEE03,
        hash_ack_only=1,
        signature=0x44556677,
    ),
    cofactor=77,
    cofactor_prime_count=2,
)


def session_messages():
    """One instance per session wire kind (kind bytes < 64)."""
    common = dict(sender=7, recipient=11, round_no=4)
    return [
        KeyRequest(signature=0x11, **common),
        KeyResponse(
            prime=101,
            buffermap=frozenset(
                (0x5EED0001 << 96 | 17, 0x5EED0002 << 96 | 23)
            ),
            signature=0x22,
            **common,
        ),
        Serve(
            key_prev=1155,
            key_prime_count=3,
            entries=(ENTRY_PAYLOAD, ENTRY_GHOST),
            signature=0x33,
            **common,
        ),
        Attestation(attestation=SIGNED_ATT, **common),
        Ack(ack=SIGNED_ACK, **common),
        AckCopy(ack=SIGNED_ACK, **common),
        AttestationRelay(
            attestation=SIGNED_ATT,
            cofactor=105,
            cofactor_prime_count=3,
            signature=0x77,
            **common,
        ),
        AttestationRelayBatch(
            declarer=3,
            pairs=(PAIR_A, PAIR_B),
            signature=0x78,
            **common,
        ),
        MonitorBroadcast(
            monitored=2,
            predecessor=5,
            lifted_forward=0xAA01,
            lifted_ack_only=0xAA02,
            ack=SIGNED_ACK,
            signature=0x88,
            **common,
        ),
        AckRelay(server=2, ack=SIGNED_ACK, signature=0x99, **common),
        DeclarationAck(
            server=2, exchange_round=3, signature=0xA0, **common
        ),
        SelfCheck(
            predecessor=5,
            lifted_forward=0xBB01,
            lifted_ack_only=0xBB02,
            signature=0xB0,
            **common,
        ),
        Accusation(
            accused=9,
            exchange_round=3,
            entries=(ENTRY_PAYLOAD,),
            key_prev=1155,
            key_prime_count=3,
            attestation=SIGNED_ATT,
            signature=0xC0,
            **common,
        ),
        Accusation(
            accused=9,
            exchange_round=3,
            entries=(),
            key_prev=1,
            key_prime_count=0,
            attestation=None,
            signature=0xC1,
            **common,
        ),
        MonitorProbe(
            accuser=6,
            exchange_round=3,
            entries=(ENTRY_PAYLOAD, ENTRY_GHOST),
            key_prev=1155,
            key_prime_count=3,
            signature=0xD0,
            **common,
        ),
        ProbeAck(ack=SIGNED_ACK, **common),
        Confirm(ack=SIGNED_ACK, signature=0xE0, **common),
        Nack(
            accused=9, accuser=6, exchange_round=3, signature=0xE1,
            **common,
        ),
        InvestigateRequest(
            successor=9, exchange_round=3, signature=0xF0, **common
        ),
        InvestigateResponse(
            successor=9,
            exchange_round=3,
            ack=SIGNED_ACK,
            accused_instead=False,
            signature=0xF1,
            **common,
        ),
        InvestigateResponse(
            successor=9,
            exchange_round=3,
            ack=None,
            accused_instead=True,
            signature=0xF2,
            **common,
        ),
    ]


def control_messages():
    """One instance per daemon control kind (kind bytes >= 64)."""
    return [
        JoinRequest(
            shard=1,
            shards=3,
            spec_json=b'{"name": "fig7"}',
            peers=("tcp://127.0.0.1:4001", "tcp://127.0.0.1:4002",
                   "tcp://127.0.0.1:4003"),
        ),
        JoinAccept(shard=1, nodes_owned=5, spec_digest="0123abcd0123abcd"),
        JoinReject(reason="scenario uses churn"),
        PeerHello(shard=2),
        RoundStart(round_no=4),
        StepMark(round_no=4, step=2),
        StepDone(
            round_no=4, step=2, delivered=12, sent_remote=3,
            pending_local=1,
        ),
        StepGo(round_no=4, step=3, proceed=True),
        RoundDone(round_no=4),
        CollectRequest(),
        SessionReport(payload=b'{"shard": 1}'),
        Shutdown(),
        HealthRequest(),
        HealthReport(
            state="running",
            scenario="fig7",
            current_round=5,
            total_rounds=12,
            nodes=60,
            subscribers=2,
            events_published=314,
            restarts=1,
        ),
        SubscribeRequest(kinds=("round", "verdict")),
        SubscribeRequest(kinds=()),
        EventFrame(seq=17, payload=b'{"kind": "round"}', dropped=3),
        ControlRequest(op="churn", node_id=5, arg=""),
        ControlRequest(op="pause", node_id=None, arg=""),
        ControlRequest(op="strategy", node_id=8, arg="free-rider"),
        ControlResponse(ok=True, detail="node 5 removed", state="paused"),
    ]


def all_messages():
    return session_messages() + control_messages()
