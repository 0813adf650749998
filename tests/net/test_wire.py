"""Wire codec round-trip and fuzz suite.

Three layers of assurance:

* deterministic fixtures — every message class with a wire ``kind``
  has a registered codec, every registered kind byte round-trips
  exactly (``decode(encode(m)) == m``) and the fixture list covers the
  whole registry, so adding a message without a schema, or a schema
  without a fixture, fails here;
* Hypothesis round-trips — randomised field values over every session
  kind, including the batched relay's pair lists;
* fuzzing — truncation at *every* byte offset, byte flips at every
  offset, and raw random payloads must never raise anything but a
  :class:`~repro.net.wire.WireError`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import messages
from repro.core.messages import (
    Accusation,
    Ack,
    AttestationRelay,
    AttestationRelayBatch,
    InvestigateResponse,
    KeyRequest,
    KeyResponse,
    RelayPair,
    Serve,
    ServeEntry,
    SignedAck,
    SignedAttestation,
)
from repro.gossip.updates import Update
from repro.net import wire
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameAssembler,
    WireError,
    WireValidationError,
    decode_message,
    encodable,
    encode_message,
    frame,
    schema_table,
)

from tests.net.fixtures import all_messages, session_messages
from tests.net.live_traffic import live_key_response, live_serve

MESSAGES = all_messages()
IDS = [type(m).__name__ for m in MESSAGES]

#: The fuzzers also chew on two frames of a real run, whose entry and
#: buffermap loops run a hundred times where the fixtures' run twice.
FUZZED = MESSAGES + [live_serve(), live_key_response()]
FUZZED_IDS = IDS + ["live-Serve", "live-KeyResponse"]


# ---------------------------------------------------------------------------
# Registry coverage and deterministic round-trips
# ---------------------------------------------------------------------------


def test_fixtures_cover_every_registered_kind():
    covered = {type(m) for m in MESSAGES}
    assert covered == {cls for _, cls, _ in schema_table()}


def test_every_message_kind_has_a_registered_codec():
    registered = {cls for _, cls, _ in schema_table()}
    kinds = [getattr(messages, name) for name in messages.__all__]
    unregistered = [
        cls.__name__
        for cls in kinds
        if isinstance(getattr(cls, "kind", None), str)
        and cls not in registered
    ]
    assert unregistered == []


def test_kind_bytes_split_session_and_control():
    session = {type(m) for m in session_messages()}
    for byte, cls, control in schema_table():
        assert control == (cls not in session) == (byte >= 64), cls.kind


@pytest.mark.parametrize("message", MESSAGES, ids=IDS)
def test_round_trip_is_exact(message):
    assert encodable(message)
    payload = encode_message(message)
    assert payload[0] == WIRE_VERSION
    decoded = decode_message(payload)
    assert decoded == message
    assert type(decoded) is type(message)


@pytest.mark.parametrize("message", MESSAGES, ids=IDS)
def test_encoding_is_deterministic(message):
    assert encode_message(message) == encode_message(message)


# -- the layout table: declared order, one kind byte each, two-way bounds


@dataclasses.dataclass(frozen=True)
class _Throwaway:
    first: int
    second: int
    kind = "throwaway"


@pytest.mark.parametrize(
    "kind_byte, rows, error, names",
    [
        (99, dict(second=wire.ID, first=wire.ID), TypeError, "_Throwaway"),
        (99, dict(first=wire.ID), TypeError, "_Throwaway"),
        (64, dict(first=wire.ID, second=wire.ID), ValueError, "kind byte 64"),
    ],
    ids=["out-of-order", "omits-a-field", "duplicate-kind-byte"],
)
def test_bad_layout_is_refused_at_registration(kind_byte, rows, error, names):
    before = schema_table()
    with pytest.raises(error, match=names):
        wire._layout(kind_byte, _Throwaway, **rows)
    assert schema_table() == before


def _serve_with_session(session):
    entry = ServeEntry(Update(1, 0, 10, 100, session), 1, True, False)
    return Serve(7, 11, 4, entries=(entry,))


#: One field per bound constant: ``(bound, zigzag, build(value))``.
BOUNDED = {
    "prime-count": (
        wire._MAX_PRIME_COUNT,
        False,
        lambda v: Serve(7, 11, 4, key_prime_count=v),
    ),
    "tally": (wire._MAX_TALLY, False, lambda v: wire.StepDone(1, 2, v, 0, 0)),
    "session": (wire._MAX_SESSION, False, _serve_with_session),
    "shard": (1 << 16, False, wire.PeerHello),
    "round": (1 << 32, False, wire.RoundStart),
    "id": (wire._MAX_ID_RAW >> 1, True, lambda v: KeyRequest(v, 11, 4)),
}


def _varint(value):
    w = wire._Writer()
    w.varint(value)
    return w.getvalue()


@pytest.mark.parametrize("name", sorted(BOUNDED))
def test_value_at_its_bound_round_trips_and_the_next_is_refused(name):
    bound, zigzag, build = BOUNDED[name]
    payload = encode_message(build(bound))
    assert decode_message(payload) == build(bound)
    at, beyond = (_varint(v << zigzag) for v in (bound, bound + 1))
    assert payload.count(at) == 1
    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(payload.replace(at, beyond))


# A serve entry's own varints are written unchecked (the hot loop; the
# entry *count* is checked): ``session`` is refused on decode only.
@pytest.mark.parametrize("name", sorted(set(BOUNDED) - {"session"}))
def test_encoder_refuses_what_its_decoder_refuses(name):
    bound, _, build = BOUNDED[name]
    with pytest.raises(WireValidationError, match="exceeds bound"):
        encode_message(build(bound + 1))


def test_framing_reassembles_under_arbitrary_chunking():
    stream = b"".join(frame(encode_message(m)) for m in MESSAGES)
    for chunk_size in (1, 3, 7, 64, len(stream)):
        assembler = FrameAssembler()
        payloads = []
        for start in range(0, len(stream), chunk_size):
            payloads.extend(
                assembler.feed(stream[start:start + chunk_size])
            )
        assert [decode_message(p) for p in payloads] == MESSAGES
        assert assembler.buffered == 0


def test_oversized_length_prefix_rejected_before_buffering():
    assembler = FrameAssembler()
    header = (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(WireValidationError):
        assembler.feed(header)


# ---------------------------------------------------------------------------
# Hypothesis round-trips
# ---------------------------------------------------------------------------

ids_st = st.integers(min_value=0, max_value=(1 << 40) - 1)
bigints_st = st.integers(min_value=0, max_value=(1 << 256) - 1)
counts_st = st.integers(min_value=0, max_value=1 << 10)

updates_st = st.builds(
    Update,
    uid=ids_st,
    round_created=ids_st,
    expiry_round=ids_st,
    payload_bytes=st.integers(min_value=0, max_value=1 << 20),
    session=st.integers(min_value=0, max_value=1 << 10),
)

entries_st = st.builds(
    ServeEntry,
    update=updates_st,
    count=st.integers(min_value=1, max_value=1 << 12),
    has_payload=st.booleans(),
    ack_only=st.booleans(),
)

signed_acks_st = st.builds(
    SignedAck,
    round_no=ids_st,
    receiver=ids_st,
    server=ids_st,
    hash_total=bigints_st,
    key_prime_count=counts_st,
    signature=bigints_st,
)

attestations_st = st.builds(
    SignedAttestation,
    round_no=ids_st,
    server=ids_st,
    receiver=ids_st,
    hash_forward=bigints_st,
    hash_ack_only=bigints_st,
    signature=bigints_st,
)

pairs_st = st.builds(
    RelayPair,
    attestation=attestations_st,
    cofactor=st.integers(min_value=1, max_value=(1 << 128) - 1),
    cofactor_prime_count=counts_st,
)


def _route(**fields):
    return dict(
        sender=fields.pop("sender"),
        recipient=fields.pop("recipient"),
        round_no=fields.pop("round_no"),
        **fields,
    )


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    prime=bigints_st,
    buffermap=st.frozensets(
        st.integers(min_value=0, max_value=(1 << 160) - 1), max_size=24
    ),
    signature=bigints_st,
)
def test_key_response_round_trip(
    sender, recipient, round_no, prime, buffermap, signature
):
    message = KeyResponse(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        prime=prime,
        buffermap=buffermap,
        signature=signature,
    )
    assert decode_message(encode_message(message)) == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    key_prev=bigints_st,
    key_prime_count=counts_st,
    entries=st.lists(entries_st, max_size=8).map(tuple),
    signature=bigints_st,
)
def test_serve_round_trip(
    sender, recipient, round_no, key_prev, key_prime_count, entries,
    signature,
):
    message = Serve(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        key_prev=key_prev,
        key_prime_count=key_prime_count,
        entries=entries,
        signature=signature,
    )
    assert decode_message(encode_message(message)) == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    ack=signed_acks_st,
)
def test_ack_round_trip(sender, recipient, round_no, ack):
    message = Ack(
        sender=sender, recipient=recipient, round_no=round_no, ack=ack
    )
    assert decode_message(encode_message(message)) == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    attestation=attestations_st,
    cofactor=st.integers(min_value=1, max_value=(1 << 128) - 1),
    cofactor_prime_count=counts_st,
    signature=bigints_st,
)
def test_relay_round_trip(
    sender, recipient, round_no, attestation, cofactor,
    cofactor_prime_count, signature,
):
    message = AttestationRelay(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        attestation=attestation,
        cofactor=cofactor,
        cofactor_prime_count=cofactor_prime_count,
        signature=signature,
    )
    decoded = decode_message(encode_message(message))
    assert type(decoded) is AttestationRelay
    assert decoded == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    declarer=ids_st,
    pairs=st.lists(pairs_st, min_size=2, max_size=6).map(tuple),
    signature=bigints_st,
)
def test_relay_batch_round_trip(
    sender, recipient, round_no, declarer, pairs, signature
):
    message = AttestationRelayBatch(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        declarer=declarer,
        pairs=pairs,
        signature=signature,
    )
    decoded = decode_message(encode_message(message))
    assert type(decoded) is AttestationRelayBatch
    assert decoded == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    accused=ids_st,
    exchange_round=ids_st,
    entries=st.lists(entries_st, max_size=4).map(tuple),
    key_prev=bigints_st,
    key_prime_count=counts_st,
    attestation=st.none() | attestations_st,
    signature=bigints_st,
)
def test_accusation_round_trip(
    sender, recipient, round_no, accused, exchange_round, entries,
    key_prev, key_prime_count, attestation, signature,
):
    message = Accusation(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        accused=accused,
        exchange_round=exchange_round,
        entries=entries,
        key_prev=key_prev,
        key_prime_count=key_prime_count,
        attestation=attestation,
        signature=signature,
    )
    assert decode_message(encode_message(message)) == message


@settings(max_examples=60, deadline=None)
@given(
    sender=ids_st,
    recipient=ids_st,
    round_no=ids_st,
    successor=ids_st,
    exchange_round=ids_st,
    ack=st.none() | signed_acks_st,
    accused_instead=st.booleans(),
    signature=bigints_st,
)
def test_investigate_response_round_trip(
    sender, recipient, round_no, successor, exchange_round, ack,
    accused_instead, signature,
):
    message = InvestigateResponse(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        successor=successor,
        exchange_round=exchange_round,
        ack=ack,
        accused_instead=accused_instead,
        signature=signature,
    )
    assert decode_message(encode_message(message)) == message


# ---------------------------------------------------------------------------
# Fuzz: truncation, bit rot, random garbage
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("message", FUZZED, ids=FUZZED_IDS)
def test_every_truncation_offset_raises_wire_error(message):
    payload = encode_message(message)
    for cut in range(len(payload)):
        with pytest.raises(WireError):
            decode_message(payload[:cut])


@pytest.mark.parametrize("message", MESSAGES, ids=IDS)
def test_trailing_garbage_raises_wire_error(message):
    payload = encode_message(message)
    with pytest.raises(WireError):
        decode_message(payload + b"\x00")


@pytest.mark.parametrize("message", FUZZED, ids=FUZZED_IDS)
def test_byte_flips_never_escape_wire_error(message):
    """Flipping any payload byte either still decodes (to *something*)
    or raises a WireError — never an unhandled exception reaching the
    engine."""
    payload = encode_message(message)
    for offset in range(len(payload)):
        for flip in (0x01, 0x80, 0xFF):
            mutated = bytearray(payload)
            mutated[offset] ^= flip
            try:
                decode_message(bytes(mutated))
            except WireError:
                pass
    # Unknown-kind and version flips must raise the *specific* errors:
    wrong_version = bytes([payload[0] ^ 0xFF]) + payload[1:]
    with pytest.raises(WireError):
        decode_message(wrong_version)


@settings(max_examples=300, deadline=None)
@given(data=st.binary(max_size=256))
def test_random_payloads_never_escape_wire_error(data):
    try:
        decode_message(data)
    except WireError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=256))
def test_random_stream_chunks_never_escape_wire_error(data):
    assembler = FrameAssembler()
    try:
        for payload in assembler.feed(data):
            decode_message(payload)
    except WireError:
        pass
