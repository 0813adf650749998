"""White-box edge cases for the monitor engine and node handlers:
forgeries, duplicates, out-of-order and malformed traffic must never
corrupt obligations or produce convictions without evidence.
"""

import pytest

from repro.core.config import PagConfig
from repro.core.context import PagContext
from repro.core.messages import (
    Ack,
    AckCopy,
    Attestation,
    AttestationRelay,
    KeyRequest,
    KeyResponse,
    MonitorBroadcast,
    ProbeAck,
    Serve,
    ServeEntry,
    SignedAck,
    SignedAttestation,
)
from repro.core.monitor import MonitorEngine
from repro.core.node import PagNode
from repro.gossip.updates import Update
from repro.membership.directory import Directory
from repro.sim.engine import Simulator
from repro.sim.network import Network


@pytest.fixture()
def rig():
    """A tiny wired session: context, network, and raw nodes."""
    config = PagConfig(fanout=3, monitors_per_node=3)
    directory = Directory.of_size(10, source_id=0)
    context = PagContext.build(config, directory)
    network = Network()
    sim = Simulator(network=network)
    nodes = {}
    for node_id in range(1, 10):
        nodes[node_id] = PagNode(node_id, network, context)
        sim.add_node(nodes[node_id])
    return config, context, network, sim, nodes


def sent_acks(network):
    """The ``Ack`` messages among everything queued on ``network``
    (drained)."""
    acks = []
    while (message := network.pop()) is not None:
        if isinstance(message, Ack):
            acks.append(message)
    return acks


def signed_ack(context, receiver, server, round_no=1, hash_total=5):
    unsigned = SignedAck(
        round_no=round_no,
        receiver=receiver,
        server=server,
        hash_total=hash_total,
        key_prime_count=1,
        signature=0,
    )
    import dataclasses

    return dataclasses.replace(
        unsigned,
        signature=context.signer.sign(
            receiver, unsigned.payload_bytes_desc()
        ),
    )


def signed_relay(context, attestation, declarer, monitor, cofactor=7):
    """An AttestationRelay whose outer signature the monitor accepts."""
    return AttestationRelay(
        sender=declarer,
        recipient=monitor,
        round_no=attestation.round_no,
        attestation=attestation,
        cofactor=cofactor,
        cofactor_prime_count=1,
        signature=context.signer.sign(
            declarer,
            (
                f"attrelay|{attestation.round_no}|{attestation.server}|"
                f"{cofactor}"
            ).encode(),
        ),
    )


def signed_attestation(context, server, receiver, round_no=1, fwd=3, ao=1):
    unsigned = SignedAttestation(
        round_no=round_no,
        server=server,
        receiver=receiver,
        hash_forward=fwd,
        hash_ack_only=ao,
        signature=0,
    )
    import dataclasses

    return dataclasses.replace(
        unsigned,
        signature=context.signer.sign(
            server, unsigned.payload_bytes_desc()
        ),
    )


class TestMonitorEngineEdges:
    def test_forged_attestation_is_ignored(self, rig):
        config, context, network, sim, nodes = rig
        engine = nodes[5].monitor
        forged = SignedAttestation(
            round_no=1, server=2, receiver=3,
            hash_forward=3, hash_ack_only=1, signature=12345,
        )
        engine.on_attestation_relay(
            AttestationRelay(
                sender=3, recipient=5, round_no=1,
                attestation=forged, cofactor=7, cofactor_prime_count=1,
            )
        )
        assert engine.obligation(3, 1) == 1 % context.hasher.modulus

    def test_pair_requires_both_messages(self, rig):
        config, context, network, sim, nodes = rig
        engine = nodes[5].monitor
        att = signed_attestation(context, server=2, receiver=3)
        engine.on_attestation_relay(
            signed_relay(context, att, declarer=3, monitor=5, cofactor=7)
        )
        # Attestation alone: nothing accumulated yet.
        assert engine.obligation(3, 1) == 1 % context.hasher.modulus
        engine.on_ack_copy(
            AckCopy(
                sender=3, recipient=5, round_no=1,
                ack=signed_ack(context, receiver=3, server=2),
            )
        )
        assert engine.obligation(3, 1) != 1 % context.hasher.modulus

    def test_tampered_cofactor_relay_is_rejected(self, rig):
        """The declarer's outer signature covers the cofactor: a relay
        whose cofactor was altered in flight must be discarded — lifting
        the attested hash with a wrong cofactor would produce a bogus
        obligation and falsely convict the server downstream."""
        config, context, network, sim, nodes = rig
        engine = nodes[5].monitor
        att = signed_attestation(context, server=2, receiver=3)
        relay = signed_relay(
            context, att, declarer=3, monitor=5, cofactor=7
        )
        relay.cofactor ^= 1  # in-flight mutation, signature unchanged
        engine.on_attestation_relay(relay)
        engine.on_ack_copy(
            AckCopy(
                sender=3, recipient=5, round_no=1,
                ack=signed_ack(context, receiver=3, server=2),
            )
        )
        # The tampered relay never paired up: no obligation, no
        # DeclarationAck, and the rejection is tallied.
        assert engine.obligation(3, 1) == 1 % context.hasher.modulus
        assert engine.counters["declarations_rejected"] == 1
        assert engine.counters["declarations_processed"] == 0

    def test_duplicate_broadcasts_do_not_double_count(self, rig):
        config, context, network, sim, nodes = rig
        engine = nodes[5].monitor
        ack = signed_ack(context, receiver=3, server=2)
        msg = MonitorBroadcast(
            sender=6, recipient=5, round_no=1,
            monitored=3, predecessor=2,
            lifted_forward=17, lifted_ack_only=1, ack=ack,
        )
        engine.on_monitor_broadcast(msg)
        first = engine.obligation(3, 1)
        engine.on_monitor_broadcast(msg)  # replay
        assert engine.obligation(3, 1) == first

    def test_obligation_empty_is_identity(self, rig):
        config, context, network, sim, nodes = rig
        assert nodes[4].monitor.obligation(7, 3) == (
            1 % context.hasher.modulus
        )

    def test_inactive_engine_ignores_everything(self, rig):
        config, context, network, sim, nodes = rig
        engine = MonitorEngine(
            host_id=5, context=context, send=lambda m: None, active=False
        )
        engine.on_monitor_broadcast(
            MonitorBroadcast(
                sender=6, recipient=5, round_no=1,
                monitored=3, predecessor=2,
                lifted_forward=17, lifted_ack_only=1,
                ack=signed_ack(context, receiver=3, server=2),
            )
        )
        assert engine.obligation(3, 1) == 1 % context.hasher.modulus
        engine.end_round(5)
        assert len(engine.verdicts) == 0

    def test_bogus_probe_ack_does_not_confirm(self, rig):
        config, context, network, sim, nodes = rig
        engine = nodes[5].monitor
        from repro.core.monitor import _PendingProbe

        entry = ServeEntry(
            update=Update(uid=1, round_created=0, expiry_round=9),
            count=1, has_payload=True, ack_only=False,
        )
        engine._pending_probes[(2, 3, 1)] = _PendingProbe(
            accused=3, accuser=2, exchange_round=1,
            entries=(entry,), key_prev=13, key_prime_count=1,
        )
        # Ack with the wrong hash: stays unanswered.
        engine.on_probe_ack(
            ProbeAck(
                sender=3, recipient=5, round_no=1,
                ack=signed_ack(
                    context, receiver=3, server=2, hash_total=999
                ),
            )
        )
        assert not engine._pending_probes[(2, 3, 1)].answered


class TestNodeEdges:
    def test_duplicate_key_request_is_idempotent(self, rig):
        config, context, network, sim, nodes = rig
        node = nodes[3]
        request = KeyRequest(sender=2, recipient=3, round_no=1)
        network.begin_round(1)
        node._on_key_request(request)
        prime_first = node.state.prime_for(1, 2)
        node._on_key_request(request)
        assert node.state.prime_for(1, 2) == prime_first
        # Only one KeyResponse was queued.
        responses = 0
        while True:
            msg = network.pop()
            if msg is None:
                break
            if isinstance(msg, KeyResponse):
                responses += 1
        assert responses == 1

    def test_serve_without_attestation_never_acked(self, rig):
        config, context, network, sim, nodes = rig
        node = nodes[3]
        network.begin_round(1)
        node._on_serve(
            Serve(
                sender=2, recipient=3, round_no=1,
                key_prev=13, key_prime_count=1, entries=(),
            )
        )
        assert (1, 2) in node.state.pending_serves
        assert not sent_acks(network)

    def test_attestation_with_wrong_hash_rejected(self, rig):
        config, context, network, sim, nodes = rig
        node = nodes[3]
        network.begin_round(1)
        # Issue a prime so the attestation check can run.
        node._on_key_request(KeyRequest(sender=2, recipient=3, round_no=1))
        while network.pop() is not None:
            pass
        entry = ServeEntry(
            update=Update(uid=1, round_created=0, expiry_round=9),
            count=1, has_payload=True, ack_only=False,
        )
        node._on_serve(
            Serve(
                sender=2, recipient=3, round_no=1,
                key_prev=13, key_prime_count=1, entries=(entry,),
            )
        )
        # The attested hashes do not match the serve: B must not ack.
        node._on_attestation(
            Attestation(
                sender=2, recipient=3, round_no=1,
                attestation=signed_attestation(
                    context, server=2, receiver=3, fwd=424242, ao=1
                ),
            )
        )
        assert not sent_acks(network)

    def test_wrong_ack_hash_not_accepted_by_server(self, rig):
        config, context, network, sim, nodes = rig
        node = nodes[2]
        from repro.core.state import OutgoingExchange

        node.state.outgoing[(1, 3)] = OutgoingExchange(
            successor=3, round_no=1, entries=(),
            key_prev=13, key_prime_count=1,
            expected_ack_hash=777, served=True,
        )
        node._on_ack(
            Ack(
                sender=3, recipient=2, round_no=1,
                ack=signed_ack(
                    context, receiver=3, server=2, hash_total=999
                ),
            )
        )
        assert not node.state.outgoing[(1, 3)].acknowledged

    def test_unknown_message_type_ignored(self, rig):
        config, context, network, sim, nodes = rig
        from repro.sim.message import Message

        nodes[3].on_message(Message(sender=2, recipient=3, round_no=1))
        # No crash, no state change.
        assert nodes[3].state.pending_serves == {}
