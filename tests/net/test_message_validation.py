"""Bounds checks, per message kind: decode side, and encode side.

The validation satellite's contract: a crafted frame carrying negative
ids, an oversized length, a zero-length pair list, a non-positive
cofactor or any non-canonical integer is rejected by the codec —
*before* any signature verification or hash lifting could run on
attacker-controlled values.  Each test hand-crafts the hostile bytes
with the codec's own primitive writer, so the frame is structurally
plausible right up to the rejected field.  A bound is stated once, in
the kind's layout, so the encoder refuses what its decoder would (the
last section; ``test_wire.py`` sweeps every bound in both directions).
"""

import pytest

from repro.core.messages import (
    Ack,
    Attestation,
    AttestationRelay,
    AttestationRelayBatch,
    DeclarationAck,
    KeyRequest,
    Serve,
)
from repro.net.wire import (
    MAX_FRAME_BYTES,
    WIRE_VERSION,
    FrameAssembler,
    JoinRequest,
    StepDone,
    WireUnknownKindError,
    WireValidationError,
    WireVersionError,
    _Reader,
    _Writer,
    decode_message,
    encode_message,
    frame,
)

from tests.net.fixtures import PAIR_A, SIGNED_ATT, session_messages


def _craft(kind_byte: int, body_writer) -> bytes:
    """[version][kind] + body written by ``body_writer(_Writer)``."""
    w = _Writer()
    w.u8(WIRE_VERSION)
    w.u8(kind_byte)
    body_writer(w)
    return w.getvalue()


def _zigzag_negative(value: int) -> int:
    """The raw varint a zigzag encoder would emit for a negative id."""
    assert value < 0
    return (-value << 1) - 1


# ---------------------------------------------------------------------------
# Envelope: version, kind, trailing bytes, frame bound
# ---------------------------------------------------------------------------


def test_foreign_version_byte_rejected():
    payload = encode_message(session_messages()[0])
    with pytest.raises(WireVersionError):
        decode_message(bytes([WIRE_VERSION + 1]) + payload[1:])


def test_unknown_kind_byte_rejected():
    with pytest.raises(WireUnknownKindError):
        decode_message(bytes([WIRE_VERSION, 63]))


def test_trailing_bytes_rejected():
    payload = encode_message(session_messages()[0])
    with pytest.raises(WireValidationError):
        decode_message(payload + b"\x00")


def test_oversized_payload_refused_at_frame_time():
    with pytest.raises(WireValidationError):
        frame(b"\x00" * (MAX_FRAME_BYTES + 1))


def test_oversized_length_prefix_refused_before_body():
    assembler = FrameAssembler()
    with pytest.raises(WireValidationError):
        # 4-byte header only: the bound check must not wait for a body.
        assembler.feed((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    assert assembler.buffered <= 4


# ---------------------------------------------------------------------------
# Negative ids (zigzag smuggling) — encode and decode side
# ---------------------------------------------------------------------------


def test_negative_sender_id_rejected_on_decode():
    def body(w):
        w.varint(_zigzag_negative(-1))  # sender = -1
        w.id(11)
        w.id(4)
        w.bigint(0x11)

    with pytest.raises(WireValidationError, match="negative id"):
        decode_message(_craft(1, body))  # kind 1 = key_request


def test_negative_round_id_rejected_on_decode():
    def body(w):
        w.id(7)
        w.id(11)
        w.varint(_zigzag_negative(-3))  # round_no = -3
        w.bigint(0x11)

    with pytest.raises(WireValidationError, match="negative id"):
        decode_message(_craft(1, body))


def test_negative_id_refused_at_encode_time():
    message = KeyRequest(sender=-1, recipient=11, round_no=4)
    with pytest.raises(WireValidationError, match="negative id"):
        encode_message(message)


# ---------------------------------------------------------------------------
# attestation_relay (kind 7): pair-list bounds
# ---------------------------------------------------------------------------


def _relay_prelude(w):
    w.id(7)   # sender
    w.id(11)  # recipient
    w.id(4)   # round_no


def test_zero_length_pair_list_rejected():
    def body(w):
        _relay_prelude(w)
        w.id(7)      # declarer
        w.varint(0)  # empty pair list
        w.bigint(0x77)

    with pytest.raises(WireValidationError, match="zero-length"):
        decode_message(_craft(7, body))


def test_oversized_pair_count_rejected_before_reading_pairs():
    def body(w):
        _relay_prelude(w)
        w.id(7)
        w.varint(1 << 13)  # above _MAX_PAIRS; no pairs follow

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(7, body))


def test_zero_cofactor_rejected():
    def body(w):
        _relay_prelude(w)
        w.id(7)
        w.varint(1)
        w.id(SIGNED_ATT.round_no)
        w.id(SIGNED_ATT.server)
        w.id(SIGNED_ATT.receiver)
        w.bigint(SIGNED_ATT.hash_forward)
        w.bigint(SIGNED_ATT.hash_ack_only)
        w.bigint(SIGNED_ATT.signature)
        w.bigint(0)  # cofactor = 0
        w.varint(0)
        w.bigint(0x77)

    with pytest.raises(WireValidationError, match="cofactor"):
        decode_message(_craft(7, body))


def test_single_pair_relay_must_come_from_its_declarer():
    def body(w):
        _relay_prelude(w)       # sender = 7 ...
        w.id(8)                 # ... but declarer = 8
        w.varint(1)
        w.id(SIGNED_ATT.round_no)
        w.id(SIGNED_ATT.server)
        w.id(SIGNED_ATT.receiver)
        w.bigint(SIGNED_ATT.hash_forward)
        w.bigint(SIGNED_ATT.hash_ack_only)
        w.bigint(SIGNED_ATT.signature)
        w.bigint(105)
        w.varint(3)
        w.bigint(0x77)

    with pytest.raises(WireValidationError, match="declarer"):
        decode_message(_craft(7, body))


def test_encoding_a_singleton_batch_refused():
    batch = AttestationRelayBatch(
        sender=7,
        recipient=11,
        round_no=4,
        declarer=7,
        pairs=(PAIR_A,),
        signature=0x78,
    )
    with pytest.raises(WireValidationError, match="at least two"):
        encode_message(batch)


def test_encoding_a_non_positive_cofactor_refused():
    relay = AttestationRelay(
        sender=7,
        recipient=11,
        round_no=4,
        attestation=SIGNED_ATT,
        cofactor=0,
        cofactor_prime_count=0,
        signature=0x77,
    )
    with pytest.raises(WireValidationError, match="cofactor"):
        encode_message(relay)


# ---------------------------------------------------------------------------
# key_response (kind 2): buffermap bounds
# ---------------------------------------------------------------------------


def test_buffermap_count_bound_enforced():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.bigint(101)
        w.varint(1 << 21)  # above _MAX_BUFFERMAP

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(2, body))


def test_buffermap_must_be_strictly_increasing():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.bigint(101)
        w.varint(2)
        w.bigint(23)
        w.bigint(17)  # out of order
        w.bigint(0x22)

    with pytest.raises(WireValidationError, match="strictly increasing"):
        decode_message(_craft(2, body))


# ---------------------------------------------------------------------------
# serve (kind 3): entry bounds
# ---------------------------------------------------------------------------


def _serve_prelude(w):
    w.id(7)
    w.id(11)
    w.id(4)
    w.bigint(1155)  # key_prev
    w.varint(3)     # key_prime_count


def test_serve_entry_zero_count_rejected():
    def body(w):
        _serve_prelude(w)
        w.varint(1)   # one entry
        w.id(41)      # update uid
        w.id(3)
        w.id(9)
        w.varint(938)
        w.varint(0)
        w.varint(0)   # count = 0
        w.u8(1)

    with pytest.raises(WireValidationError, match="count"):
        decode_message(_craft(3, body))


def test_serve_entry_unknown_flags_rejected():
    def body(w):
        _serve_prelude(w)
        w.varint(1)
        w.id(41)
        w.id(3)
        w.id(9)
        w.varint(938)
        w.varint(0)
        w.varint(2)
        w.u8(4)  # flags beyond has_payload|ack_only

    with pytest.raises(WireValidationError, match="flags"):
        decode_message(_craft(3, body))


# ---------------------------------------------------------------------------
# Primitive canonicality
# ---------------------------------------------------------------------------


def test_non_canonical_varint_rejected():
    def body(w):
        w.raw(b"\x80\x00")  # varint 0 with a redundant group

    with pytest.raises(WireValidationError, match="non-canonical"):
        decode_message(_craft(1, body))


def test_bigint_with_leading_zero_rejected():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.varint(2)
        w.raw(b"\x00\x11")  # 0x11 padded with a zero byte

    with pytest.raises(WireValidationError, match="leading zero"):
        decode_message(_craft(1, body))


def test_bigint_length_bound_enforced():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.varint(4097)  # above _MAX_BIGINT_BYTES; no magnitude follows

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(1, body))


def test_boolean_byte_must_be_zero_or_one():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.id(9)     # successor
        w.id(3)     # exchange_round
        w.u8(2)     # has-ack flag, neither 0 nor 1

    with pytest.raises(WireValidationError, match="boolean"):
        decode_message(_craft(18, body))  # investigate_response


# ---------------------------------------------------------------------------
# Envelope ids, update sessions, barrier tallies: every varint read
# carries a bound (`_Reader.varint` cannot be called without one)
# ---------------------------------------------------------------------------


def test_oversized_sender_id_rejected():
    def body(w):
        w.varint(1 << 50)  # raw zigzag id above _MAX_ID_RAW
        w.id(11)
        w.id(4)
        w.bigint(0x77)

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(1, body))


def test_oversized_update_session_rejected():
    def body(w):
        w.id(7)
        w.id(11)
        w.id(4)
        w.bigint(5)        # key_prev
        w.varint(1)        # key_prime_count
        w.varint(1)        # one serve entry
        w.id(1)            # update uid
        w.id(0)            # round_created
        w.id(10)           # expiry_round
        w.varint(100)      # payload_bytes
        w.varint(1 << 17)  # session, above _MAX_SESSION

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(3, body))  # serve


def test_oversized_step_done_tally_rejected():
    def body(w):
        w.varint(1)         # round_no
        w.varint(2)         # step
        w.varint(1 << 33)   # delivered, above _MAX_TALLY

    with pytest.raises(WireValidationError, match="exceeds bound"):
        decode_message(_craft(70, body))  # step_done (control)


# ---------------------------------------------------------------------------
# Encode side: the encoder refuses what its decoder refuses.  (Nothing
# is decoded here: golden_wire_errors_v1.json pins every decode this
# module attempts, by test name.)
# ---------------------------------------------------------------------------


def test_encoder_refuses_what_its_decoder_refuses():
    tally = dict(delivered=0, sent_remote=0, pending_local=0)
    refused = [
        (StepDone(round_no=1 << 40, step=0, **tally), "exceeds bound"),
        (Serve(7, 11, 4, key_prime_count=1 << 21), "exceeds bound"),
        (DeclarationAck(1 << 50, 11, 4), "exceeds bound"),
        (JoinRequest(3, 2, spec_json=b"{}", peers=()), "join shard 3"),
        (Ack(7, 11, 4, ack=None), "carries no SignedAck"),
        (Attestation(7, 11, 4), "carries no SignedAttestation"),
    ]
    for message, reason in refused:
        with pytest.raises(WireValidationError, match=reason):
            encode_message(message)


def test_a_varint_cannot_be_read_without_its_bound():
    with pytest.raises(TypeError):
        _Reader(b"\x01").varint()
    assert _Reader(b"\x01").varint(1) == 1
