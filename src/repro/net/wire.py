"""Versioned binary wire codec for the PAG deployment runtime.

Every frame is::

    [u32 big-endian payload length][payload]
    payload = [u8 version][u8 kind][body]

The codec is *deterministic* — one message has exactly one encoding —
and *validated at the boundary*: every bounds check (negative ids,
oversized frames, zero-length pair lists, non-canonical integers,
trailing bytes) rejects with a crisp :class:`WireError` subclass
before any crypto work happens downstream.  Unknown kind bytes raise
:class:`WireUnknownKindError`, short reads :class:`WireTruncatedError`,
and a foreign protocol version :class:`WireVersionError`.

Primitive layer:

* ``varint`` — unsigned LEB128, at most 10 bytes, canonical (no
  redundant trailing zero groups).
* ``id`` — a zigzag-encoded varint; decode rejects negative values, so
  a crafted frame smuggling ``-1`` ids fails here, not in the engine.
* ``bigint`` — varint byte length + big-endian magnitude, canonical
  (no leading zero byte; zero is the empty string).  Hashes, primes,
  cofactors and signatures are arbitrary-precision integers.

The ``attestation_relay`` kind carries a *pair list*: one entry
round-trips to the simulator's :class:`AttestationRelay`, two or more
decode to an :class:`AttestationRelayBatch` — the signed
(hash, cofactor) pair list the fm>1 batched fold consumes (one outer
signature, one wire message, one multi-exponentiation at the monitor).

Kind bytes < 64 are session traffic (:mod:`repro.core.messages`);
bytes >= 64 are control frames defined at the bottom of this module:
64-75 the daemon runtime (join handshake, round barriers), 76-81 the
supervised service (health, event stream, operator control).

Cost model: a payload is written into one ``bytearray`` and read by one
cursor that indexes it in place — one- and two-byte varints (nearly all
of a session's) cost an index and a compare, and only magnitudes,
strings and blobs are ever sliced out.  The two loops that carry most
of the bytes, serve entries and ``key_response`` buffermaps, keep that
cursor in a local and hand anything unusual (a long varint, a
non-canonical one, a cut payload) back to the reader, so every input
is refused by the same check, with the same error, as field-by-field
decoding would (``tests/net/golden_wire_errors_v1.json``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

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

__all__ = [
    "WIRE_VERSION",
    "MAX_FRAME_BYTES",
    "WireError",
    "WireTruncatedError",
    "WireVersionError",
    "WireUnknownKindError",
    "WireValidationError",
    "encode_message",
    "decode_message",
    "encodable",
    "frame",
    "FrameAssembler",
    "registered_kinds",
    "JoinRequest",
    "JoinAccept",
    "JoinReject",
    "PeerHello",
    "RoundStart",
    "StepMark",
    "StepDone",
    "StepGo",
    "RoundDone",
    "CollectRequest",
    "SessionReport",
    "Shutdown",
    "HealthRequest",
    "HealthReport",
    "SubscribeRequest",
    "EventFrame",
    "ControlRequest",
    "ControlResponse",
]

#: Protocol version byte; frames from any other version are rejected.
WIRE_VERSION = 1

#: Hard frame ceiling — an oversized length prefix is rejected before
#: a single payload byte is read (no attacker-controlled allocation).
MAX_FRAME_BYTES = 1 << 20

# Structural bounds, enforced at decode before anything touches crypto.
_MAX_BIGINT_BYTES = 4096
_MAX_ENTRIES = 1 << 16
_MAX_BUFFERMAP = 1 << 20
_MAX_PAIRS = 1 << 12
_MAX_PRIME_COUNT = 1 << 20
_MAX_COUNT = 1 << 16
_MAX_STRING_BYTES = 1 << 16
#: Node ids, round numbers and update uids — and the queue-depth
#: tallies of the barrier protocol — are bounded integers.  Ids may
#: carry sharded-uid payloads up to 48 bits; a zigzag id doubles, so
#: the raw varint fits 49 bits.
_MAX_ID_RAW = 1 << 49
_MAX_SESSION = 1 << 16
_MAX_TALLY = 1 << 32


class WireError(Exception):
    """Base class for every codec failure."""


class WireTruncatedError(WireError):
    """The frame or a field ends before its declared length."""


class WireVersionError(WireError):
    """The payload's protocol-version byte is not ours."""


class WireUnknownKindError(WireError):
    """The payload's kind byte maps to no registered schema."""


class WireValidationError(WireError):
    """A structurally complete frame carries out-of-bounds values."""


# ---------------------------------------------------------------------------
# Primitive readers/writers
# ---------------------------------------------------------------------------


class _Writer:
    """Appends primitives to one ``bytearray`` (``buf``)."""

    __slots__ = ("buf",)

    def __init__(self, header: bytes = b"") -> None:
        self.buf = bytearray(header)

    def u8(self, value: int) -> None:
        self.buf.append(value)

    def varint(self, value: int) -> None:
        if value < 0:
            raise WireValidationError(
                f"cannot encode negative varint {value}"
            )
        buf = self.buf
        while value > 0x7F:
            buf.append(value & 0x7F | 0x80)
            value >>= 7
        buf.append(value)

    def id(self, value: int) -> None:
        """Zigzag varint; encode refuses negatives (ids are >= 0 on the
        wire — the in-memory ``-1`` defaults never travel)."""
        if value < 0:
            raise WireValidationError(f"cannot encode negative id {value}")
        if value < 0x40:
            self.buf.append(value << 1)
        else:
            self.varint(value << 1)

    def bool(self, value: bool) -> None:
        self.buf.append(1 if value else 0)

    def bigint(self, value: int) -> None:
        if value < 0:
            raise WireValidationError(
                f"cannot encode negative integer {value}"
            )
        size = (value.bit_length() + 7) >> 3
        if size > _MAX_BIGINT_BYTES:
            raise WireValidationError(
                f"integer of {size} bytes exceeds the "
                f"{_MAX_BIGINT_BYTES}-byte wire bound"
            )
        self.varint(size)
        self.buf += value.to_bytes(size, "big")

    def string(self, value: str) -> None:
        raw = value.encode("utf-8")
        if len(raw) > _MAX_STRING_BYTES:
            raise WireValidationError("string exceeds the wire bound")
        self.varint(len(raw))
        self.buf += raw

    def blob(self, value: bytes) -> None:
        if len(value) > MAX_FRAME_BYTES:
            raise WireValidationError("blob exceeds the frame bound")
        self.varint(len(value))
        self.buf += value

    def raw(self, data: bytes) -> None:
        """Verbatim bytes (tests craft non-canonical fields with it)."""
        self.buf += data

    def getvalue(self) -> bytes:
        return bytes(self.buf)


class _Reader:
    """One cursor (``pos``) walking ``data``; nothing is sliced off but
    the magnitudes, strings and blobs themselves."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def _truncated(self, n: int, pos: int) -> WireTruncatedError:
        return WireTruncatedError(
            f"field needs {n} bytes at offset {pos}, "
            f"payload has {max(len(self.data) - pos, 0)} left"
        )

    def _take(self, n: int) -> bytes:
        pos = self.pos
        end = pos + n
        if end > len(self.data):
            raise self._truncated(n, pos)
        self.pos = end
        return self.data[pos:end]

    def u8(self) -> int:
        pos = self.pos
        if pos >= len(self.data):
            raise self._truncated(1, pos)
        self.pos = pos + 1
        return self.data[pos]

    def varint(self, bound: Optional[int] = None) -> int:
        data = self.data
        pos = self.pos
        try:
            result = data[pos]
            pos += 1
            if result > 0x7F:
                shift = 7
                result &= 0x7F
                while True:
                    byte = data[pos]
                    pos += 1
                    result |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift == 70:
                        raise WireValidationError(
                            "varint longer than 10 bytes"
                        )
                if byte == 0:
                    raise WireValidationError(
                        "non-canonical varint (redundant trailing zero)"
                    )
        except IndexError:
            raise self._truncated(1, pos) from None
        self.pos = pos
        if bound is not None and result > bound:
            raise WireValidationError(
                f"varint {result} exceeds bound {bound}"
            )
        return result

    def id(self) -> int:
        data = self.data
        pos = self.pos
        end = len(data)
        raw = data[pos] if pos < end else 0x80
        if raw < 0x80:
            self.pos = pos + 1
        elif pos + 1 < end and 0 < data[pos + 1] < 0x80:
            raw = raw & 0x7F | data[pos + 1] << 7
            self.pos = pos + 2
        else:  # three bytes or more, non-canonical, or cut short
            raw = self.varint(bound=_MAX_ID_RAW)
        if raw & 1:
            raise WireValidationError(
                f"negative id {-((raw + 1) >> 1)} on the wire"
            )
        return raw >> 1

    def bool(self) -> bool:
        value = self.u8()
        if value > 1:
            raise WireValidationError(f"boolean byte must be 0/1, got {value}")
        return value == 1

    def bigint(self) -> int:
        data = self.data
        pos = self.pos
        length = data[pos] if pos < len(data) else 0x80
        if length < 0x80:
            pos += 1
        else:
            length = self.varint(bound=_MAX_BIGINT_BYTES)
            pos = self.pos
        end = pos + length
        if end > len(data):
            raise self._truncated(length, pos)
        if length and data[pos] == 0:
            raise WireValidationError(
                "non-canonical integer (leading zero byte)"
            )
        self.pos = end
        return int.from_bytes(data[pos:end], "big")

    def string(self) -> str:
        length = self.varint(bound=_MAX_STRING_BYTES)
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireValidationError(f"invalid utf-8 string: {exc}") from exc

    def blob(self) -> bytes:
        length = self.varint(bound=MAX_FRAME_BYTES)
        return bytes(self._take(length))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireValidationError(
                f"{len(self.data) - self.pos} trailing bytes after body"
            )


# ---------------------------------------------------------------------------
# Shared sub-object schemas
# ---------------------------------------------------------------------------


#: ``(bound, zigzag)`` of the six varints heading a serve entry, in
#: wire order: the update's uid, round_created and expiry_round (ids),
#: its payload_bytes and session, then the entry's count.
_ENTRY_VARINTS = (
    (_MAX_ID_RAW, True),
    (_MAX_ID_RAW, True),
    (_MAX_ID_RAW, True),
    (1 << 30, False),
    (_MAX_SESSION, False),
    (_MAX_COUNT, False),
)


def _put_entries(w: _Writer, entries: Tuple[ServeEntry, ...]) -> None:
    w.varint(len(entries))
    for entry in entries:
        update = entry.update
        w.id(update.uid)
        w.id(update.round_created)
        w.id(update.expiry_round)
        w.varint(update.payload_bytes)
        w.varint(update.session)
        w.varint(entry.count)
        w.u8((1 if entry.has_payload else 0) | (2 if entry.ack_only else 0))


def _get_entries(r: _Reader) -> Tuple[ServeEntry, ...]:
    """The entry list of a serve, accusation or probe.

    This loop carries most of a session's decoded bytes, so it walks a
    local cursor: one- and two-byte varints are read in place, anything
    longer (or cut short) goes through the reader, which raises what
    the field-by-field path would.
    """
    count = r.varint(bound=_MAX_ENTRIES)
    data = r.data
    pos = r.pos
    end = len(data)
    entries = []
    for _ in range(count):
        fields = []
        for bound, zigzag in _ENTRY_VARINTS:
            value = data[pos] if pos < end else 0x80
            pos += 1
            if value > 0x7F:
                follow = data[pos] if pos < end else 0
                pos += 1
                if 0 < follow < 0x80:
                    value = value & 0x7F | follow << 7
                else:  # longer, non-canonical or cut short
                    r.pos = pos - 2
                    value = r.varint(bound=bound)
                    pos = r.pos
            if value > bound:
                raise WireValidationError(
                    f"varint {value} exceeds bound {bound}"
                )
            if zigzag:
                if value & 1:
                    raise WireValidationError(
                        f"negative id {-((value + 1) >> 1)} on the wire"
                    )
                value >>= 1
            fields.append(value)
        uid, created, expiry, size, session, copies = fields
        if copies < 1:
            raise WireValidationError("serve entry count must be positive")
        if pos >= end:
            raise r._truncated(1, pos)
        flags = data[pos]
        pos += 1
        if flags > 3:
            raise WireValidationError(f"unknown serve entry flags {flags:#x}")
        entries.append(
            ServeEntry(
                Update(uid, created, expiry, size, session),
                copies,
                flags & 1 == 1,
                flags & 2 == 2,
            )
        )
    r.pos = pos
    return tuple(entries)


def _put_signed_ack(w: _Writer, ack: SignedAck) -> None:
    if ack is None:
        raise WireValidationError("message carries no SignedAck")
    w.id(ack.round_no)
    w.id(ack.receiver)
    w.id(ack.server)
    w.bigint(ack.hash_total)
    w.varint(ack.key_prime_count)
    w.bigint(ack.signature)


def _get_signed_ack(r: _Reader) -> SignedAck:
    # Positional, in field order: round_no, receiver, server,
    # hash_total, key_prime_count, signature.
    return SignedAck(
        r.id(),
        r.id(),
        r.id(),
        r.bigint(),
        r.varint(bound=_MAX_PRIME_COUNT),
        r.bigint(),
    )


def _put_attestation(w: _Writer, att: SignedAttestation) -> None:
    if att is None:
        raise WireValidationError("message carries no SignedAttestation")
    w.id(att.round_no)
    w.id(att.server)
    w.id(att.receiver)
    w.bigint(att.hash_forward)
    w.bigint(att.hash_ack_only)
    w.bigint(att.signature)


def _get_attestation(r: _Reader) -> SignedAttestation:
    # Positional, in field order: round_no, server, receiver,
    # hash_forward, hash_ack_only, signature.
    return SignedAttestation(
        r.id(), r.id(), r.id(), r.bigint(), r.bigint(), r.bigint()
    )


# ---------------------------------------------------------------------------
# Schema registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Schema:
    kind_byte: int
    cls: Type
    encode: Callable  # (writer, message) -> None
    decode: Callable  # (reader, sender, recipient, round_no) -> message
    control: bool = False
    #: ``[version][kind]``, the two bytes every payload of this kind
    #: starts with.
    header: bytes = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "header", bytes((WIRE_VERSION, self.kind_byte))
        )


_BY_BYTE: Dict[int, _Schema] = {}
_BY_CLASS: Dict[Type, _Schema] = {}

#: Encoder half of a codec pair: ``(writer, message) -> None``.
_EncodeFn = Callable[..., None]
#: Decoder half: ``(reader[, sender, recipient, round_no]) -> message``.
_DecodeFn = Callable[..., Any]
#: A builder producing one ``(encode, decode)`` pair.
_BuildFn = Callable[[], Tuple[_EncodeFn, _DecodeFn]]


def _register(schema: _Schema) -> None:
    if schema.kind_byte in _BY_BYTE:
        raise ValueError(f"duplicate kind byte {schema.kind_byte}")
    _BY_BYTE[schema.kind_byte] = schema
    _BY_CLASS[schema.cls] = schema


def _session(
    kind_byte: int, cls: Type
) -> Callable[[_BuildFn], _BuildFn]:
    """Register a session-message schema from a builder returning
    ``(encode, decode)``."""

    def wrap(build: _BuildFn) -> _BuildFn:
        encode, decode = build()
        _register(_Schema(kind_byte, cls, encode, decode))
        return build

    return wrap


# -- messages 1-5 -----------------------------------------------------------


@_session(1, KeyRequest)
def _key_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: KeyRequest) -> None:
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> KeyRequest:
        return KeyRequest(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            signature=r.bigint(),
        )

    return encode, decode



@_session(2, KeyResponse)
def _key_response() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: KeyResponse) -> None:
        w.bigint(m.prime)
        # Buffermap members are *encrypted* uids (section V-A), i.e.
        # wide integers; sorted order makes the encoding canonical.
        uids = sorted(m.buffermap)
        w.varint(len(uids))
        for uid in uids:
            w.bigint(uid)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> KeyResponse:
        prime = r.bigint()
        count = r.varint(bound=_MAX_BUFFERMAP)
        data = r.data
        pos = r.pos
        end = len(data)
        from_bytes = int.from_bytes
        uids = []
        last = -1
        for _ in range(count):
            size = data[pos] if pos < end else 0x80
            start = pos + 1
            pos = start + size
            if size > 0x7F or pos > end:  # long, or cut short
                r.pos = start - 1
                uid = r.bigint()
                pos = r.pos
            elif size and data[start] == 0:
                raise WireValidationError(
                    "non-canonical integer (leading zero byte)"
                )
            else:
                uid = from_bytes(data[start:pos], "big")
            if uid <= last:
                raise WireValidationError(
                    "buffermap uids must be strictly increasing"
                )
            uids.append(uid)
            last = uid
        r.pos = pos
        return KeyResponse(
            sender, recipient, round_no, prime, frozenset(uids), r.bigint()
        )

    return encode, decode



@_session(3, Serve)
def _serve() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Serve) -> None:
        w.bigint(m.key_prev)
        w.varint(m.key_prime_count)
        _put_entries(w, m.entries)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Serve:
        return Serve(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            key_prev=r.bigint(),
            key_prime_count=r.varint(bound=_MAX_PRIME_COUNT),
            entries=_get_entries(r),
            signature=r.bigint(),
        )

    return encode, decode



@_session(4, Attestation)
def _attestation() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Attestation) -> None:
        _put_attestation(w, m.attestation)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Attestation:
        return Attestation(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            attestation=_get_attestation(r),
        )

    return encode, decode



@_session(5, Ack)
def _ack() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Ack) -> None:
        _put_signed_ack(w, m.ack)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Ack:
        return Ack(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            ack=_get_signed_ack(r),
        )

    return encode, decode



# -- messages 6-9 and the declaration seam ----------------------------------


@_session(6, AckCopy)
def _ack_copy() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: AckCopy) -> None:
        _put_signed_ack(w, m.ack)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> AckCopy:
        return AckCopy(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            ack=_get_signed_ack(r),
        )

    return encode, decode



def _put_relay_pair(w: _Writer, pair: RelayPair) -> None:
    _put_attestation(w, pair.attestation)
    if pair.cofactor < 1:
        raise WireValidationError("relay cofactor must be positive")
    w.bigint(pair.cofactor)
    w.varint(pair.cofactor_prime_count)


def _get_relay_pair(r: _Reader) -> RelayPair:
    attestation = _get_attestation(r)
    cofactor = r.bigint()
    if cofactor < 1:
        raise WireValidationError("relay cofactor must be positive")
    return RelayPair(
        attestation=attestation,
        cofactor=cofactor,
        cofactor_prime_count=r.varint(bound=_MAX_PRIME_COUNT),
    )


def _encode_relay(w: _Writer, m: AttestationRelay) -> None:
    w.id(m.sender)  # the declarer: a lone relay is never forwarded
    w.varint(1)
    _put_relay_pair(
        w,
        RelayPair(
            attestation=m.attestation,
            cofactor=m.cofactor,
            cofactor_prime_count=m.cofactor_prime_count,
        ),
    )
    w.bigint(m.signature)


def _encode_relay_batch(w: _Writer, m: AttestationRelayBatch) -> None:
    if len(m.pairs) < 2:
        raise WireValidationError(
            "a relay batch needs at least two pairs; send a lone pair "
            "as a plain attestation_relay"
        )
    w.id(m.declarer)
    w.varint(len(m.pairs))
    for pair in m.pairs:
        _put_relay_pair(w, pair)
    w.bigint(m.signature)


def _decode_relay(
    r: _Reader, sender: int, recipient: int, round_no: int
) -> AttestationRelay | AttestationRelayBatch:
    declarer = r.id()
    count = r.varint(bound=_MAX_PAIRS)
    if count < 1:
        raise WireValidationError("zero-length relay pair list")
    pairs = tuple(_get_relay_pair(r) for _ in range(count))
    signature = r.bigint()
    if count == 1:
        if declarer != sender:
            raise WireValidationError(
                "a single-pair relay must come from its declarer"
            )
        pair = pairs[0]
        return AttestationRelay(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            attestation=pair.attestation,
            cofactor=pair.cofactor,
            cofactor_prime_count=pair.cofactor_prime_count,
            signature=signature,
        )
    return AttestationRelayBatch(
        sender=sender,
        recipient=recipient,
        round_no=round_no,
        declarer=declarer,
        pairs=pairs,
        signature=signature,
    )


_register(_Schema(7, AttestationRelay, _encode_relay, _decode_relay))
_BY_CLASS[AttestationRelayBatch] = _Schema(
    7, AttestationRelayBatch, _encode_relay_batch, _decode_relay
)


@_session(8, MonitorBroadcast)
def _monitor_broadcast() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: MonitorBroadcast) -> None:
        w.id(m.monitored)
        w.id(m.predecessor)
        w.bigint(m.lifted_forward)
        w.bigint(m.lifted_ack_only)
        _put_signed_ack(w, m.ack)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> MonitorBroadcast:
        return MonitorBroadcast(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            monitored=r.id(),
            predecessor=r.id(),
            lifted_forward=r.bigint(),
            lifted_ack_only=r.bigint(),
            ack=_get_signed_ack(r),
            signature=r.bigint(),
        )

    return encode, decode



@_session(9, AckRelay)
def _ack_relay() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: AckRelay) -> None:
        w.id(m.server)
        _put_signed_ack(w, m.ack)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> AckRelay:
        return AckRelay(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            server=r.id(),
            ack=_get_signed_ack(r),
            signature=r.bigint(),
        )

    return encode, decode



@_session(10, DeclarationAck)
def _declaration_ack() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: DeclarationAck) -> None:
        w.id(m.server)
        w.id(m.exchange_round)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> DeclarationAck:
        return DeclarationAck(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            server=r.id(),
            exchange_round=r.id(),
            signature=r.bigint(),
        )

    return encode, decode



@_session(11, SelfCheck)
def _self_check() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: SelfCheck) -> None:
        w.id(m.predecessor)
        w.bigint(m.lifted_forward)
        w.bigint(m.lifted_ack_only)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> SelfCheck:
        return SelfCheck(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            predecessor=r.id(),
            lifted_forward=r.bigint(),
            lifted_ack_only=r.bigint(),
            signature=r.bigint(),
        )

    return encode, decode



# -- accusation path and investigations -------------------------------------


@_session(12, Accusation)
def _accusation() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Accusation) -> None:
        w.id(m.accused)
        w.id(m.exchange_round)
        _put_entries(w, m.entries)
        w.bigint(m.key_prev)
        w.varint(m.key_prime_count)
        w.bool(m.attestation is not None)
        if m.attestation is not None:
            _put_attestation(w, m.attestation)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Accusation:
        return Accusation(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            accused=r.id(),
            exchange_round=r.id(),
            entries=_get_entries(r),
            key_prev=r.bigint(),
            key_prime_count=r.varint(bound=_MAX_PRIME_COUNT),
            attestation=_get_attestation(r) if r.bool() else None,
            signature=r.bigint(),
        )

    return encode, decode



@_session(13, MonitorProbe)
def _monitor_probe() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: MonitorProbe) -> None:
        w.id(m.accuser)
        w.id(m.exchange_round)
        _put_entries(w, m.entries)
        w.bigint(m.key_prev)
        w.varint(m.key_prime_count)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> MonitorProbe:
        return MonitorProbe(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            accuser=r.id(),
            exchange_round=r.id(),
            entries=_get_entries(r),
            key_prev=r.bigint(),
            key_prime_count=r.varint(bound=_MAX_PRIME_COUNT),
            signature=r.bigint(),
        )

    return encode, decode



@_session(14, ProbeAck)
def _probe_ack() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: ProbeAck) -> None:
        _put_signed_ack(w, m.ack)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> ProbeAck:
        return ProbeAck(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            ack=_get_signed_ack(r),
        )

    return encode, decode



@_session(15, Confirm)
def _confirm() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Confirm) -> None:
        _put_signed_ack(w, m.ack)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Confirm:
        return Confirm(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            ack=_get_signed_ack(r),
            signature=r.bigint(),
        )

    return encode, decode



@_session(16, Nack)
def _nack() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Nack) -> None:
        w.id(m.accused)
        w.id(m.accuser)
        w.id(m.exchange_round)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> Nack:
        return Nack(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            accused=r.id(),
            accuser=r.id(),
            exchange_round=r.id(),
            signature=r.bigint(),
        )

    return encode, decode



@_session(17, InvestigateRequest)
def _investigate_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: InvestigateRequest) -> None:
        w.id(m.successor)
        w.id(m.exchange_round)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> InvestigateRequest:
        return InvestigateRequest(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            successor=r.id(),
            exchange_round=r.id(),
            signature=r.bigint(),
        )

    return encode, decode



@_session(18, InvestigateResponse)
def _investigate_response() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: InvestigateResponse) -> None:
        w.id(m.successor)
        w.id(m.exchange_round)
        w.bool(m.ack is not None)
        if m.ack is not None:
            _put_signed_ack(w, m.ack)
        w.bool(m.accused_instead)
        w.bigint(m.signature)

    def decode(
        r: _Reader, sender: int, recipient: int, round_no: int
    ) -> InvestigateResponse:
        return InvestigateResponse(
            sender=sender,
            recipient=recipient,
            round_no=round_no,
            successor=r.id(),
            exchange_round=r.id(),
            ack=_get_signed_ack(r) if r.bool() else None,
            accused_instead=r.bool(),
            signature=r.bigint(),
        )

    return encode, decode



# ---------------------------------------------------------------------------
# Daemon control frames (kind bytes >= 64): join handshake + barriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JoinRequest:
    """Coordinator -> daemon: host this shard of the scenario.

    ``spec_json`` is the canonical JSON of the ScenarioSpec every
    daemon rebuilds its session from (replica-from-spec determinism);
    ``peers`` are the listen endpoints of all daemons, indexed by
    shard, so daemon ``shard`` dials every lower-numbered peer.
    """

    shard: int
    shards: int
    spec_json: bytes
    peers: Tuple[str, ...]
    batch_relays: bool = True
    kind = "join_request"


@dataclass(frozen=True)
class JoinAccept:
    """Daemon -> coordinator: session built, peer links up."""

    shard: int
    nodes_owned: int
    spec_digest: str
    kind = "join_accept"


@dataclass(frozen=True)
class JoinReject:
    """Daemon -> coordinator: cannot host this scenario."""

    reason: str
    kind = "join_reject"


@dataclass(frozen=True)
class PeerHello:
    """Daemon -> daemon: identifies the dialing shard on a new link."""

    shard: int
    kind = "peer_hello"


@dataclass(frozen=True)
class RoundStart:
    """Coordinator -> daemons: run the begin fan-out of a round."""

    round_no: int
    kind = "round_start"


@dataclass(frozen=True)
class StepMark:
    """Daemon -> peer daemons: all my step-``step`` payload frames for
    this link are ahead of this mark (FIFO barrier)."""

    round_no: int
    step: int
    kind = "step_mark"


@dataclass(frozen=True)
class StepDone:
    """Daemon -> coordinator: step finished; activity counters let the
    coordinator detect global quiescence."""

    round_no: int
    step: int
    delivered: int
    sent_remote: int
    pending_local: int
    kind = "step_done"


@dataclass(frozen=True)
class StepGo:
    """Coordinator -> daemons: run the next step, or (``proceed`` False)
    end the round's drain."""

    round_no: int
    step: int
    proceed: bool
    kind = "step_go"


@dataclass(frozen=True)
class RoundDone:
    """Daemon -> coordinator: end fan-out of the round completed."""

    round_no: int
    kind = "round_done"


@dataclass(frozen=True)
class CollectRequest:
    """Coordinator -> daemons: report your shard's outcomes."""

    kind = "collect"


@dataclass(frozen=True)
class SessionReport:
    """Daemon -> coordinator: JSON outcome payload for the shard."""

    payload: bytes
    kind = "session_report"


@dataclass(frozen=True)
class Shutdown:
    """Coordinator -> daemon: close links and exit cleanly."""

    kind = "shutdown"


# ---------------------------------------------------------------------------
# Service frames (kinds 76-81): health, event stream, operator control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HealthRequest:
    """Observer -> service: report the supervised session's state."""

    kind = "health_request"


@dataclass(frozen=True)
class HealthReport:
    """Service -> observer: liveness snapshot of the supervised run."""

    state: str
    scenario: str
    current_round: int
    total_rounds: int
    nodes: int
    subscribers: int
    events_published: int
    restarts: int
    kind = "health_report"


@dataclass(frozen=True)
class SubscribeRequest:
    """Observer -> service: switch this link to the event stream.

    ``kinds`` filters by event kind (``round``, ``meter``, ``counters``,
    ``verdict``, ``state``); an empty tuple subscribes to everything.
    """

    kinds: Tuple[str, ...] = ()
    kind = "subscribe"


@dataclass(frozen=True)
class EventFrame:
    """Service -> observer: one NDJSON event, sequence-numbered.

    ``dropped`` counts events this subscriber lost to backpressure
    since the previous delivered frame (bounded queue, drop-oldest), so
    a slow consumer can tell its view has gaps.
    """

    seq: int
    payload: bytes
    dropped: int = 0
    kind = "event"


@dataclass(frozen=True)
class ControlRequest:
    """Operator -> service: one mid-run control operation.

    ``op`` names the operation (``pause``, ``resume``, ``churn``,
    ``admit``, ``strategy``, ``snapshot``, ``drain``); ``node_id``
    targets a node for the membership/strategy ops (``None``
    otherwise) and ``arg`` carries the strategy name.
    """

    op: str
    node_id: Optional[int] = None
    arg: str = ""
    kind = "control_request"


@dataclass(frozen=True)
class ControlResponse:
    """Service -> operator: outcome of one control operation.

    ``detail`` is a human-readable note (or the snapshot JSON for the
    ``snapshot`` op); ``state`` reports the supervisor state after the
    operation was applied.
    """

    ok: bool
    detail: str
    state: str
    kind = "control_response"


def _control(
    kind_byte: int, cls: Type
) -> Callable[[_BuildFn], _BuildFn]:
    def wrap(build: _BuildFn) -> _BuildFn:
        encode, decode = build()
        _register(_Schema(kind_byte, cls, encode, decode, control=True))
        return build

    return wrap


@_control(64, JoinRequest)
def _join_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: JoinRequest) -> None:
        w.varint(m.shard)
        w.varint(m.shards)
        w.blob(m.spec_json)
        w.varint(len(m.peers))
        for peer in m.peers:
            w.string(peer)
        w.bool(m.batch_relays)

    def decode(r: _Reader) -> JoinRequest:
        shard = r.varint(bound=1 << 16)
        shards = r.varint(bound=1 << 16)
        if shards < 1 or shard >= shards:
            raise WireValidationError(
                f"join shard {shard} outside 0..{shards - 1}"
            )
        return JoinRequest(
            shard=shard,
            shards=shards,
            spec_json=r.blob(),
            peers=tuple(
                r.string() for _ in range(r.varint(bound=1 << 16))
            ),
            batch_relays=r.bool(),
        )

    return encode, decode



@_control(65, JoinAccept)
def _join_accept() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: JoinAccept) -> None:
        w.varint(m.shard)
        w.varint(m.nodes_owned)
        w.string(m.spec_digest)

    def decode(r: _Reader) -> JoinAccept:
        return JoinAccept(
            shard=r.varint(bound=1 << 16),
            nodes_owned=r.varint(bound=1 << 32),
            spec_digest=r.string(),
        )

    return encode, decode



@_control(66, JoinReject)
def _join_reject() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: JoinReject) -> None:
        w.string(m.reason)

    def decode(r: _Reader) -> JoinReject:
        return JoinReject(reason=r.string())

    return encode, decode



@_control(67, PeerHello)
def _peer_hello() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: PeerHello) -> None:
        w.varint(m.shard)

    def decode(r: _Reader) -> PeerHello:
        return PeerHello(shard=r.varint(bound=1 << 16))

    return encode, decode



@_control(68, RoundStart)
def _round_start() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: RoundStart) -> None:
        w.varint(m.round_no)

    def decode(r: _Reader) -> RoundStart:
        return RoundStart(round_no=r.varint(bound=1 << 32))

    return encode, decode



@_control(69, StepMark)
def _step_mark() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: StepMark) -> None:
        w.varint(m.round_no)
        w.varint(m.step)

    def decode(r: _Reader) -> StepMark:
        return StepMark(
            round_no=r.varint(bound=1 << 32),
            step=r.varint(bound=1 << 32),
        )

    return encode, decode



@_control(70, StepDone)
def _step_done() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: StepDone) -> None:
        w.varint(m.round_no)
        w.varint(m.step)
        w.varint(m.delivered)
        w.varint(m.sent_remote)
        w.varint(m.pending_local)

    def decode(r: _Reader) -> StepDone:
        return StepDone(
            round_no=r.varint(bound=1 << 32),
            step=r.varint(bound=1 << 32),
            delivered=r.varint(bound=_MAX_TALLY),
            sent_remote=r.varint(bound=_MAX_TALLY),
            pending_local=r.varint(bound=_MAX_TALLY),
        )

    return encode, decode



@_control(71, StepGo)
def _step_go() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: StepGo) -> None:
        w.varint(m.round_no)
        w.varint(m.step)
        w.bool(m.proceed)

    def decode(r: _Reader) -> StepGo:
        return StepGo(
            round_no=r.varint(bound=1 << 32),
            step=r.varint(bound=1 << 32),
            proceed=r.bool(),
        )

    return encode, decode



@_control(72, RoundDone)
def _round_done() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: RoundDone) -> None:
        w.varint(m.round_no)

    def decode(r: _Reader) -> RoundDone:
        return RoundDone(round_no=r.varint(bound=1 << 32))

    return encode, decode



@_control(73, CollectRequest)
def _collect_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: CollectRequest) -> None:
        pass

    def decode(r: _Reader) -> CollectRequest:
        return CollectRequest()

    return encode, decode



@_control(74, SessionReport)
def _session_report() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: SessionReport) -> None:
        w.blob(m.payload)

    def decode(r: _Reader) -> SessionReport:
        return SessionReport(payload=r.blob())

    return encode, decode



@_control(75, Shutdown)
def _shutdown() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: Shutdown) -> None:
        pass

    def decode(r: _Reader) -> Shutdown:
        return Shutdown()

    return encode, decode



@_control(76, HealthRequest)
def _health_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: HealthRequest) -> None:
        pass

    def decode(r: _Reader) -> HealthRequest:
        return HealthRequest()

    return encode, decode



@_control(77, HealthReport)
def _health_report() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: HealthReport) -> None:
        w.string(m.state)
        w.string(m.scenario)
        w.varint(m.current_round)
        w.varint(m.total_rounds)
        w.varint(m.nodes)
        w.varint(m.subscribers)
        w.varint(m.events_published)
        w.varint(m.restarts)

    def decode(r: _Reader) -> HealthReport:
        return HealthReport(
            state=r.string(),
            scenario=r.string(),
            current_round=r.varint(bound=1 << 32),
            total_rounds=r.varint(bound=1 << 32),
            nodes=r.varint(bound=1 << 32),
            subscribers=r.varint(bound=1 << 16),
            events_published=r.varint(bound=_MAX_TALLY),
            restarts=r.varint(bound=1 << 16),
        )

    return encode, decode



@_control(78, SubscribeRequest)
def _subscribe_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: SubscribeRequest) -> None:
        w.varint(len(m.kinds))
        for name in m.kinds:
            w.string(name)

    def decode(r: _Reader) -> SubscribeRequest:
        return SubscribeRequest(
            kinds=tuple(
                r.string() for _ in range(r.varint(bound=1 << 8))
            ),
        )

    return encode, decode



@_control(79, EventFrame)
def _event_frame() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: EventFrame) -> None:
        w.varint(m.seq)
        w.blob(m.payload)
        w.varint(m.dropped)

    def decode(r: _Reader) -> EventFrame:
        return EventFrame(
            seq=r.varint(bound=_MAX_TALLY),
            payload=r.blob(),
            dropped=r.varint(bound=_MAX_TALLY),
        )

    return encode, decode



@_control(80, ControlRequest)
def _control_request() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: ControlRequest) -> None:
        w.string(m.op)
        w.bool(m.node_id is not None)
        if m.node_id is not None:
            w.id(m.node_id)
        w.string(m.arg)

    def decode(r: _Reader) -> ControlRequest:
        return ControlRequest(
            op=r.string(),
            node_id=r.id() if r.bool() else None,
            arg=r.string(),
        )

    return encode, decode



@_control(81, ControlResponse)
def _control_response() -> Tuple[_EncodeFn, _DecodeFn]:
    def encode(w: _Writer, m: ControlResponse) -> None:
        w.bool(m.ok)
        w.string(m.detail)
        w.string(m.state)

    def decode(r: _Reader) -> ControlResponse:
        return ControlResponse(
            ok=r.bool(),
            detail=r.string(),
            state=r.string(),
        )

    return encode, decode



# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def registered_kinds() -> Dict[str, int]:
    """kind string -> kind byte for every registered schema."""
    return {
        schema.cls.kind: schema.kind_byte
        for schema in _BY_CLASS.values()
    }


def schema_table() -> List[Tuple[int, type, bool]]:
    """``(kind_byte, message class, is_control)`` per registered schema.

    Ordered by kind byte then class name.  This is the coverage
    contract the ``repro lint`` wire cross-check verifies: every row
    must have a fixture in ``tests/net/fixtures.py`` and a pinned
    frame in ``tests/net/golden_wire_v1.json``, and every message
    class must appear here.
    """
    return sorted(
        (
            (schema.kind_byte, cls, schema.control)
            for cls, schema in _BY_CLASS.items()
        ),
        key=lambda row: (row[0], row[1].__name__),
    )


def encodable(message: object) -> bool:
    """Does this message type have a wire schema?

    Baseline protocols (the AcTinG comparator, the push baseline)
    define their own message types outside the PAG wire catalogue; the
    loopback policy passes those through unencoded.
    """
    return type(message) in _BY_CLASS


def encode_message(message: Any) -> bytes:
    """Message -> payload bytes (``[version][kind][body]``, unframed)."""
    schema = _BY_CLASS.get(type(message))
    if schema is None:
        raise WireUnknownKindError(
            f"no wire schema for message type {type(message).__name__!r}"
        )
    w = _Writer(schema.header)
    if not schema.control:
        w.id(message.sender)
        w.id(message.recipient)
        w.id(message.round_no)
    schema.encode(w, message)
    payload = w.getvalue()
    if len(payload) > MAX_FRAME_BYTES:
        raise WireValidationError(
            f"encoded payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame bound"
        )
    return payload


def decode_message(payload: bytes) -> Any:
    """Payload bytes -> message object, fully validated.

    All structural and bounds validation happens here — before any
    signature verification or hash lifting downstream — so a malformed
    or hostile frame never reaches crypto code.
    """
    r = _Reader(payload)
    version = r.u8()
    if version != WIRE_VERSION:
        raise WireVersionError(
            f"protocol version {version}, this build speaks "
            f"{WIRE_VERSION}"
        )
    kind_byte = r.u8()
    schema = _BY_BYTE.get(kind_byte)
    if schema is None:
        raise WireUnknownKindError(f"unknown kind byte {kind_byte}")
    if schema.control:
        message = schema.decode(r)
    else:
        message = schema.decode(r, r.id(), r.id(), r.id())
    r.expect_end()
    return message


def frame(payload: bytes) -> bytes:
    """Length-prefix one payload for a byte-stream transport."""
    if len(payload) > MAX_FRAME_BYTES:
        raise WireValidationError(
            f"payload of {len(payload)} bytes exceeds the frame bound"
        )
    return struct.pack(">I", len(payload)) + payload


class FrameAssembler:
    """Incremental splitter of a length-prefixed byte stream.

    Feed arbitrary chunks; complete payloads come back in order.  An
    oversized length prefix raises :class:`WireValidationError`
    immediately — before buffering the body — so a hostile peer cannot
    drive allocation with a forged header.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> List[bytes]:
        # A chunk is walked where it lies; only what follows its last
        # whole frame is kept, so the buffer is touched once per feed
        # (and copied into only while a frame is pending).
        buffer = self._buffer
        if buffer:
            buffer += data
            data = buffer
        payloads: List[bytes] = []
        pos = 0
        end = len(data)
        try:
            while end - pos >= 4:
                body = pos + 4
                length = int.from_bytes(data[pos:body], "big")
                if length > MAX_FRAME_BYTES:
                    raise WireValidationError(
                        f"frame of {length} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte bound"
                    )
                if end - body < length:
                    break
                pos = body + length
                payloads.append(bytes(data[body:pos]))
        finally:
            if data is buffer:
                del buffer[:pos]
            else:
                buffer += data[pos:]
        return payloads

    @property
    def buffered(self) -> int:
        """Bytes awaiting a complete frame (0 when drained)."""
        return len(self._buffer)
