"""The codec over live traffic, pinned by digest.

``LIVE_DIGESTS`` is the SHA-256 of the concatenated v1 payloads of
every encodable message two small real runs send, in send order.  It
was recorded on the slicing codec that preceded the cursor-walking
one, so an equal digest is byte-identity of the encoder over ~15k real
frames of every session kind, and the two round-trip directions hold
the decoder to the same traffic.
"""

import hashlib
from collections import Counter

import pytest

from repro.net.wire import decode_message, encode_message

from tests.net.live_traffic import (
    SCENARIOS,
    live_key_response,
    live_messages,
    live_serve,
)

LIVE_DIGESTS = {
    "fig9": (
        3034,
        "a83ccf5ba384b30181a962a547b45d6625e280c746c989e656ece69731a6f56e",
    ),
    "coalition-mixed": (
        11873,
        "ce8ec055af28ce8aa0741e538a46ce13096644b2bd1a66a6b72f63dccd59b93e",
    ),
}


def test_every_captured_scenario_is_pinned():
    assert sorted(LIVE_DIGESTS) == sorted(SCENARIOS)


@pytest.mark.parametrize("label", sorted(LIVE_DIGESTS))
def test_live_payloads_match_the_pinned_digest(label):
    count, digest = LIVE_DIGESTS[label]
    messages = live_messages(label)
    assert len(messages) == count
    payloads = b"".join(encode_message(m) for m in messages)
    assert hashlib.sha256(payloads).hexdigest() == digest


@pytest.mark.parametrize("label", sorted(LIVE_DIGESTS))
def test_live_traffic_round_trips_both_ways(label):
    for message in live_messages(label):
        payload = encode_message(message)
        decoded = decode_message(payload)
        assert type(decoded) is type(message)
        assert decoded == message
        assert encode_message(decoded) == payload


def test_live_traffic_covers_what_the_fixtures_do_not():
    kinds = Counter(
        type(m).__name__ for m in live_messages("coalition-mixed")
    )
    for kind in (
        "Accusation",
        "MonitorProbe",
        "Nack",
        "InvestigateRequest",
        "InvestigateResponse",
    ):
        assert kinds[kind] > 0, f"no live {kind}"
    serve = live_serve()
    assert len(serve.entries) >= 20
    # A zigzag id above 63 needs a second varint byte.
    assert any(
        entry.update.uid >= 64
        for message in live_messages("coalition-mixed")
        if type(message).__name__ == "Serve"
        for entry in message.entries
    )
    assert len(live_key_response().buffermap) >= 40
