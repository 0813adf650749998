"""Wire-size tests: every PAG message prices its real content."""

import dataclasses
from random import Random

import pytest

from repro.core.messages import (
    Accusation,
    Ack,
    AckCopy,
    AckRelay,
    Attestation,
    AttestationRelay,
    Confirm,
    InvestigateRequest,
    InvestigateResponse,
    KeyRequest,
    KeyResponse,
    MonitorBroadcast,
    MonitorProbe,
    Nack,
    ProbeAck,
    Serve,
    ServeEntry,
    SignedAck,
    SignedAttestation,
)
from repro.core.verification import entry_power, split_products
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.gossip.updates import Update
from repro.sim.message import WireSizes
from tests.net.live_traffic import SCENARIOS, live_messages

SIZES = WireSizes()


def make_entry(uid=1, payload=True, ack_only=False, count=1):
    return ServeEntry(
        update=Update(uid=uid, round_created=0, expiry_round=9),
        count=count,
        has_payload=payload,
        ack_only=ack_only,
    )


def make_ack():
    return SignedAck(
        round_no=3,
        receiver=2,
        server=1,
        hash_total=12345,
        key_prime_count=3,
        signature=999,
    )


def make_attestation():
    return SignedAttestation(
        round_no=3,
        server=1,
        receiver=2,
        hash_forward=1,
        hash_ack_only=2,
        signature=7,
    )


class TestEntrySizes:
    def test_payload_entry(self):
        e = make_entry(payload=True)
        assert e.wire_bytes(SIZES) == 938 + SIZES.update_id + 2 + 1

    def test_id_only_entry(self):
        e = make_entry(payload=False)
        assert e.wire_bytes(SIZES) == SIZES.update_id + 2 + 1


class TestMessageSizes:
    def test_key_request(self):
        msg = KeyRequest(sender=1, recipient=2, round_no=0)
        assert msg.size_bytes(SIZES) == SIZES.header + SIZES.signature

    def test_key_response_scales_with_buffermap(self):
        small = KeyResponse(
            sender=2, recipient=1, round_no=0, prime=3,
            buffermap=frozenset({1, 2}),
        )
        large = KeyResponse(
            sender=2, recipient=1, round_no=0, prime=3,
            buffermap=frozenset(range(10)),
        )
        delta = large.size_bytes(SIZES) - small.size_bytes(SIZES)
        assert delta == 8 * SIZES.hash_value

    def test_serve_prices_key_product_by_prime_count(self):
        base = Serve(
            sender=1, recipient=2, round_no=0,
            key_prev=7, key_prime_count=1, entries=(make_entry(),),
        )
        wide = Serve(
            sender=1, recipient=2, round_no=0,
            key_prev=7, key_prime_count=4, entries=(make_entry(),),
        )
        assert wide.size_bytes(SIZES) - base.size_bytes(SIZES) == (
            3 * SIZES.prime
        )

    @pytest.mark.parametrize(
        "sizes",
        [SIZES, WireSizes(update_id=5, header=3)],
        ids=["default", "non-default"],
    )
    @pytest.mark.parametrize("label", sorted(SCENARIOS))
    def test_serve_size_is_the_sum_of_its_entries(self, label, sizes):
        """``Serve.size_bytes`` prices its entries in closed form: equal
        to the per-entry sum on every ``Serve`` of two real runs."""
        serves = [m for m in live_messages(label) if type(m) is Serve]
        assert any(s.entries for s in serves)
        for serve in serves:
            envelope = Serve(
                sender=serve.sender, recipient=serve.recipient,
                round_no=serve.round_no, key_prev=serve.key_prev,
                key_prime_count=serve.key_prime_count,
            ).size_bytes(sizes)
            assert serve.size_bytes(sizes) - envelope == sum(
                entry.wire_bytes(sizes) for entry in serve.entries
            )

    def test_serve_entry_filters(self):
        """``ack_only`` puts an entry in the second of section V-D's
        two lists, the ones ``split_products`` multiplies."""
        entries = (make_entry(1), make_entry(2, ack_only=True))
        hasher = HomomorphicHasher(modulus=make_modulus(128, Random(1)))
        assert split_products(hasher, entries) == tuple(
            entry_power(hasher, entry.update, 1) for entry in entries
        )

    def test_attestation_and_ack(self):
        att = Attestation(
            sender=1, recipient=2, round_no=0,
            attestation=make_attestation(),
        )
        assert att.size_bytes(SIZES) == SIZES.header + (
            2 * SIZES.hash_value + SIZES.signature + 12
        )
        ack = Ack(sender=2, recipient=1, round_no=0, ack=make_ack())
        assert ack.size_bytes(SIZES) == SIZES.header + (
            SIZES.hash_value + SIZES.signature + 12
        )

    def test_monitor_messages(self):
        copy = AckCopy(sender=2, recipient=5, round_no=0, ack=make_ack())
        assert copy.size_bytes(SIZES) > SIZES.header
        relay = AttestationRelay(
            sender=2, recipient=5, round_no=0,
            attestation=make_attestation(),
            cofactor=77, cofactor_prime_count=2,
        )
        # Cofactor priced at 2 primes.
        base = AttestationRelay(
            sender=2, recipient=5, round_no=0,
            attestation=make_attestation(),
            cofactor=1, cofactor_prime_count=0,
        )
        assert relay.size_bytes(SIZES) - base.size_bytes(SIZES) == (
            2 * SIZES.prime
        )
        broadcast = MonitorBroadcast(
            sender=5, recipient=6, round_no=0,
            monitored=2, predecessor=1,
            lifted_forward=1, lifted_ack_only=1, ack=make_ack(),
        )
        assert broadcast.size_bytes(SIZES) > 2 * SIZES.hash_value
        ack_relay = AckRelay(
            sender=5, recipient=8, round_no=0, server=1, ack=make_ack()
        )
        assert ack_relay.size_bytes(SIZES) > SIZES.hash_value

    def test_accusation_carries_payload(self):
        acc_empty = Accusation(
            sender=1, recipient=5, round_no=1, accused=2,
            exchange_round=0, entries=(),
        )
        acc_full = Accusation(
            sender=1, recipient=5, round_no=1, accused=2,
            exchange_round=0, entries=(make_entry(),),
        )
        delta = acc_full.size_bytes(SIZES) - acc_empty.size_bytes(SIZES)
        assert delta == make_entry().wire_bytes(SIZES)

    def test_probe_and_probe_ack(self):
        probe = MonitorProbe(
            sender=5, recipient=2, round_no=1, accuser=1,
            exchange_round=0, entries=(make_entry(),),
        )
        assert probe.size_bytes(SIZES) > 938
        pa = ProbeAck(sender=2, recipient=5, round_no=1, ack=make_ack())
        assert pa.size_bytes(SIZES) > SIZES.hash_value

    def test_confirm_nack_investigations(self):
        confirm = Confirm(sender=5, recipient=8, round_no=1, ack=make_ack())
        nack = Nack(
            sender=5, recipient=8, round_no=1,
            accused=2, accuser=1, exchange_round=0,
        )
        assert confirm.size_bytes(SIZES) > nack.size_bytes(SIZES) - 64
        req = InvestigateRequest(
            sender=8, recipient=1, round_no=2, successor=2, exchange_round=0
        )
        resp_with = InvestigateResponse(
            sender=1, recipient=8, round_no=2, successor=2,
            exchange_round=0, ack=make_ack(),
        )
        resp_without = InvestigateResponse(
            sender=1, recipient=8, round_no=2, successor=2,
            exchange_round=0, ack=None,
        )
        assert req.size_bytes(SIZES) >= SIZES.header + SIZES.signature
        assert resp_with.size_bytes(SIZES) > resp_without.size_bytes(SIZES)


class TestSignedPayloadDescriptions:
    def test_ack_desc_binds_all_fields(self):
        base = make_ack().payload_bytes_desc()
        for field, value in [
            ("round_no", 4), ("receiver", 9), ("server", 9),
            ("hash_total", 1),
        ]:
            changed = dataclasses.replace(
                make_ack(), **{field: value}
            ).payload_bytes_desc()
            assert changed != base, field

    def test_attestation_desc_binds_hashes(self):
        base = make_attestation().payload_bytes_desc()
        changed = dataclasses.replace(
            make_attestation(), hash_forward=42
        ).payload_bytes_desc()
        assert changed != base

    def test_hot_messages_are_slotted(self):
        """Hot-path messages must stay ``__dict__``-free (memory/speed)."""
        instances = [
            make_ack(),
            make_attestation(),
            make_entry(),
            KeyRequest(sender=1, recipient=2, round_no=0),
            Serve(sender=1, recipient=2, round_no=0),
        ]
        for instance in instances:
            assert not hasattr(instance, "__dict__"), type(instance)
