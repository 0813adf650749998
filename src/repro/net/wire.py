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

Layouts: a frame kind's wire form is declared once, as one ``name=field
type`` row per field of its dataclass, in declaration order
(``_layout``; ``STRUCT`` for a nested object).  A field type is a
``put``/``get`` pair: a primitive above, ``VARINT(bound)`` (there is no
varint without its bound), ``OPTIONAL``, ``LIST``, a ``STRUCT``.  Rows
are composed into one ``put`` and one ``get`` per kind at import, so a
field's position and bound have one owner and both directions enforce
them: the encoder refuses what the decoder would.  Three things are
not field lists and stay hand-written: the two volume loops (field
types ``ENTRIES`` and ``BUFFERMAP``, see the cost model), kind 7, and
``JoinRequest``'s cross-field ``shard < shards`` rule.

The ``attestation_relay`` kind (7) carries a *pair list*: one entry
round-trips to the simulator's :class:`AttestationRelay`, two or more
decode to an :class:`AttestationRelayBatch` — the signed
(hash, cofactor) pair list the fm>1 batched fold consumes (one outer
signature, one wire message, one fold at the monitor).

Kind bytes < 64 are session traffic (:mod:`repro.core.messages`);
bytes >= 64 are control frames declared at the bottom of this module:
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

import dataclasses
import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Type

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
    serve_entry,
)

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

# Structural bounds: enforced at decode before anything touches crypto,
# and at encode, so the sender of a bad frame fails, not its peer's link.
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


def _exceeds(value: int, bound: int) -> WireValidationError:
    return WireValidationError(f"varint {value} exceeds bound {bound}")


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
        wire — the in-memory ``-1`` defaults never travel) and, like
        decode, raw values past ``_MAX_ID_RAW``."""
        if value < 0:
            raise WireValidationError(f"cannot encode negative id {value}")
        if value < 0x40:
            self.buf.append(value << 1)
        elif value < 0x2000:  # two bytes, the other common case
            buf = self.buf
            buf.append(value << 1 & 0x7F | 0x80)
            buf.append(value >> 6)
        elif value << 1 > _MAX_ID_RAW:
            raise _exceeds(value << 1, _MAX_ID_RAW)
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

    def varint(self, bound: int) -> int:
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
        if result > bound:
            raise _exceeds(result, bound)
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
            raw = self.varint(_MAX_ID_RAW)
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
            length = self.varint(_MAX_BIGINT_BYTES)
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
        length = self.varint(_MAX_STRING_BYTES)
        try:
            return self._take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireValidationError(f"invalid utf-8 string: {exc}") from exc

    def blob(self) -> bytes:
        length = self.varint(MAX_FRAME_BYTES)
        return bytes(self._take(length))

    def expect_end(self) -> None:
        if self.pos != len(self.data):
            raise WireValidationError(
                f"{len(self.data) - self.pos} trailing bytes after body"
            )


# ---------------------------------------------------------------------------
# Field types
# ---------------------------------------------------------------------------


class _FieldType(NamedTuple):
    """How one value travels: ``put`` appends it to a writer, ``get``
    reads it back.  A type states its bound once; both enforce it."""

    put: Callable[[_Writer, Any], None]
    get: Callable[[_Reader], Any]


ID = _FieldType(_Writer.id, _Reader.id)
BIGINT = _FieldType(_Writer.bigint, _Reader.bigint)
BOOL = _FieldType(_Writer.bool, _Reader.bool)
STRING = _FieldType(_Writer.string, _Reader.string)
BLOB = _FieldType(_Writer.blob, _Reader.blob)


def VARINT(bound: int) -> _FieldType:
    """An unsigned varint of at most ``bound``."""

    def put(w: _Writer, value: int) -> None:
        if value > bound:
            raise _exceeds(value, bound)
        w.varint(value)

    def get(r: _Reader) -> int:
        return r.varint(bound)

    return _FieldType(put, get)


PRIME_COUNT = VARINT(_MAX_PRIME_COUNT)
SHARD = VARINT(1 << 16)
ROUND = VARINT(1 << 32)
TALLY = VARINT(_MAX_TALLY)


def OPTIONAL(kind: _FieldType) -> _FieldType:
    """A presence byte, then the value unless it is ``None``."""
    put_value, get_value = kind

    def put(w: _Writer, value: Any) -> None:
        w.bool(value is not None)
        if value is not None:
            put_value(w, value)

    def get(r: _Reader) -> Any:
        return get_value(r) if r.bool() else None

    return _FieldType(put, get)


def LIST(kind: _FieldType, bound: int) -> _FieldType:
    """A count of at most ``bound``, then that many values (a tuple)."""
    put_count, get_count = VARINT(bound)
    put_item, get_item = kind

    def put(w: _Writer, items: Tuple[Any, ...]) -> None:
        put_count(w, len(items))
        for item in items:
            put_item(w, item)

    def get(r: _Reader) -> Tuple[Any, ...]:
        return tuple([get_item(r) for _ in range(get_count(r))])

    return _FieldType(put, get)


def STRUCT(
    cls: Type,
    check: Optional[Callable[[Any], None]] = None,
    /,
    **rows: _FieldType,
) -> _FieldType:
    """The layout of a dataclass: one ``name=field type`` row per
    declared field, in declaration order, which is wire order and lets
    ``get`` build the object positionally.  Rows that are not exactly
    the declared fields are a ``TypeError``, at import.  ``check`` is a
    rule across fields (it raises), run on the object both ways."""
    declared = tuple(f.name for f in dataclasses.fields(cls))
    if tuple(rows) != declared:
        raise TypeError(
            f"layout of {cls.__name__} lists {tuple(rows)}, "
            f"the class declares {declared}"
        )
    putters = tuple((kind.put, name) for name, kind in rows.items())
    getters = tuple(kind.get for kind in rows.values())

    def put(w: _Writer, value: Any) -> None:
        if value is None:
            raise WireValidationError(f"message carries no {cls.__name__}")
        if check is not None:
            check(value)
        for put_field, name in putters:
            put_field(w, getattr(value, name))

    def get(r: _Reader) -> Any:
        value = cls(*[get_field(r) for get_field in getters])
        if check is not None:
            check(value)
        return value

    return _FieldType(put, get)


SIGNED_ACK = STRUCT(
    SignedAck,
    round_no=ID,
    receiver=ID,
    server=ID,
    hash_total=BIGINT,
    key_prime_count=PRIME_COUNT,
    signature=BIGINT,
)

SIGNED_ATTESTATION = STRUCT(
    SignedAttestation,
    round_no=ID,
    server=ID,
    receiver=ID,
    hash_forward=BIGINT,
    hash_ack_only=BIGINT,
    signature=BIGINT,
)


# -- the two volume loops, kept as cursor code ------------------------------

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
    if len(entries) > _MAX_ENTRIES:
        raise _exceeds(len(entries), _MAX_ENTRIES)
    w.varint(len(entries))
    # The hot loop: payload_bytes, session and count go out unchecked.
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
    count = r.varint(_MAX_ENTRIES)
    data = r.data
    pos = r.pos
    end = len(data)
    entries = []
    for _ in range(count):
        # (3.11 compiles ``fields.append`` 6 us a serve slower if the
        # module also has ``from dataclasses import fields``.)
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
                    value = r.varint(bound)
                    pos = r.pos
            if value > bound:
                raise _exceeds(value, bound)
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
            serve_entry((uid, created, expiry, size, session), copies, flags)
        )
    r.pos = pos
    return tuple(entries)


ENTRIES = _FieldType(_put_entries, _get_entries)


def _put_buffermap(w: _Writer, buffermap: frozenset[int]) -> None:
    # Buffermap members are *encrypted* uids (section V-A), i.e.
    # wide integers; sorted order makes the encoding canonical.
    uids = sorted(buffermap)
    if len(uids) > _MAX_BUFFERMAP:
        raise _exceeds(len(uids), _MAX_BUFFERMAP)
    w.varint(len(uids))
    for uid in uids:
        w.bigint(uid)


def _get_buffermap(r: _Reader) -> frozenset[int]:
    count = r.varint(_MAX_BUFFERMAP)
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
    return frozenset(uids)


BUFFERMAP = _FieldType(_put_buffermap, _get_buffermap)


# ---------------------------------------------------------------------------
# Schema registry
# ---------------------------------------------------------------------------


#: The first control kind byte; a kind below it is a ``Message``.
_CONTROL_KINDS = 64
_ENVELOPE = dict(sender=ID, recipient=ID, round_no=ID)


@dataclass(frozen=True, slots=True)
class _Schema:
    kind_byte: int
    cls: Type
    put: Callable[[_Writer, Any], None]
    get: Callable[[_Reader], Any]
    #: ``[version][kind]``, the two bytes every payload of this kind
    #: starts with.
    header: bytes

    @property
    def control(self) -> bool:
        return self.kind_byte >= _CONTROL_KINDS


_BY_BYTE: Dict[int, _Schema] = {}
_BY_CLASS: Dict[Type, _Schema] = {}


def _register(kind_byte: int, cls: Type, codec: _FieldType) -> None:
    if kind_byte in _BY_BYTE:
        raise ValueError(f"duplicate kind byte {kind_byte}")
    _BY_BYTE[kind_byte] = _BY_CLASS[cls] = _Schema(
        kind_byte, cls, *codec, bytes((WIRE_VERSION, kind_byte))
    )


def _layout(
    kind_byte: int,
    cls: Type,
    check: Optional[Callable[[Any], None]] = None,
    /,
    **rows: _FieldType,
) -> None:
    """Register ``cls`` under ``kind_byte``; ``check`` and ``rows`` are
    :func:`STRUCT`'s.  A session kind (byte < 64) is a ``Message``: its
    rows are its own fields, the envelope it inherits goes in front."""
    if kind_byte < _CONTROL_KINDS:
        rows = {**_ENVELOPE, **rows}
    _register(kind_byte, cls, STRUCT(cls, check, **rows))


# -- messages 1-5 -----------------------------------------------------------

_layout(1, KeyRequest, signature=BIGINT)

_layout(2, KeyResponse, prime=BIGINT, buffermap=BUFFERMAP, signature=BIGINT)

_layout(
    3,
    Serve,
    key_prev=BIGINT,
    key_prime_count=PRIME_COUNT,
    entries=ENTRIES,
    signature=BIGINT,
)

_layout(4, Attestation, attestation=SIGNED_ATTESTATION)

_layout(5, Ack, ack=SIGNED_ACK)

# -- messages 6-9 and the declaration seam ----------------------------------

_layout(6, AckCopy, ack=SIGNED_ACK)


# Kind 7 is written by hand: its byte serves two classes, told apart by
# the pair count.  On the wire both are the batch's fields; a lone
# relay is a batch of one whose declarer is its sender (it is never
# forwarded).


def _put_cofactor(w: _Writer, value: int) -> None:
    if value < 1:
        raise WireValidationError("relay cofactor must be positive")
    w.bigint(value)


def _get_cofactor(r: _Reader) -> int:
    value = r.bigint()
    if value < 1:
        raise WireValidationError("relay cofactor must be positive")
    return value


_RELAY_PAIRS = LIST(
    STRUCT(
        RelayPair,
        attestation=SIGNED_ATTESTATION,
        cofactor=_FieldType(_put_cofactor, _get_cofactor),
        cofactor_prime_count=PRIME_COUNT,
    ),
    _MAX_PAIRS,
)


def _get_relay_pairs(r: _Reader) -> Tuple[RelayPair, ...]:
    pairs = _RELAY_PAIRS.get(r)
    if not pairs:
        raise WireValidationError("zero-length relay pair list")
    return pairs


_RELAY_FRAME = STRUCT(
    AttestationRelayBatch,
    **_ENVELOPE,
    declarer=ID,
    pairs=_FieldType(_RELAY_PAIRS.put, _get_relay_pairs),
    signature=BIGINT,
)


def _put_relay(w: _Writer, m: AttestationRelay) -> None:
    pair = RelayPair(m.attestation, m.cofactor, m.cofactor_prime_count)
    _RELAY_FRAME.put(
        w,
        AttestationRelayBatch(
            m.sender, m.recipient, m.round_no, m.sender, (pair,), m.signature
        ),
    )


def _put_relay_batch(w: _Writer, m: AttestationRelayBatch) -> None:
    if len(m.pairs) < 2:
        raise WireValidationError(
            "a relay batch needs at least two pairs; send a lone pair "
            "as a plain attestation_relay"
        )
    _RELAY_FRAME.put(w, m)


def _get_relay(r: _Reader) -> AttestationRelay | AttestationRelayBatch:
    batch: AttestationRelayBatch = _RELAY_FRAME.get(r)
    if len(batch.pairs) > 1:
        return batch
    if batch.declarer != batch.sender:
        raise WireValidationError(
            "a single-pair relay must come from its declarer"
        )
    (pair,) = batch.pairs
    return AttestationRelay(
        batch.sender,
        batch.recipient,
        batch.round_no,
        pair.attestation,
        pair.cofactor,
        pair.cofactor_prime_count,
        batch.signature,
    )


_register(7, AttestationRelay, _FieldType(_put_relay, _get_relay))
_BY_CLASS[AttestationRelayBatch] = dataclasses.replace(
    _BY_BYTE[7], cls=AttestationRelayBatch, put=_put_relay_batch
)

_layout(
    8,
    MonitorBroadcast,
    monitored=ID,
    predecessor=ID,
    lifted_forward=BIGINT,
    lifted_ack_only=BIGINT,
    ack=SIGNED_ACK,
    signature=BIGINT,
)

_layout(9, AckRelay, server=ID, ack=SIGNED_ACK, signature=BIGINT)

_layout(10, DeclarationAck, server=ID, exchange_round=ID, signature=BIGINT)

_layout(
    11,
    SelfCheck,
    predecessor=ID,
    lifted_forward=BIGINT,
    lifted_ack_only=BIGINT,
    signature=BIGINT,
)

# -- accusation path and investigations -------------------------------------

_layout(
    12,
    Accusation,
    accused=ID,
    exchange_round=ID,
    entries=ENTRIES,
    key_prev=BIGINT,
    key_prime_count=PRIME_COUNT,
    attestation=OPTIONAL(SIGNED_ATTESTATION),
    signature=BIGINT,
)

_layout(
    13,
    MonitorProbe,
    accuser=ID,
    exchange_round=ID,
    entries=ENTRIES,
    key_prev=BIGINT,
    key_prime_count=PRIME_COUNT,
    signature=BIGINT,
)

_layout(14, ProbeAck, ack=SIGNED_ACK)

_layout(15, Confirm, ack=SIGNED_ACK, signature=BIGINT)

_layout(16, Nack, accused=ID, accuser=ID, exchange_round=ID, signature=BIGINT)

_layout(
    17, InvestigateRequest, successor=ID, exchange_round=ID, signature=BIGINT
)

_layout(
    18,
    InvestigateResponse,
    successor=ID,
    exchange_round=ID,
    ack=OPTIONAL(SIGNED_ACK),
    accused_instead=BOOL,
    signature=BIGINT,
)


# ---------------------------------------------------------------------------
# Daemon control frames (kind bytes >= 64): join handshake + barriers
# ---------------------------------------------------------------------------
# Each dataclass sits directly above its layout: a new frame is one edit.


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
    kind = "join_request"


def _check_join_shard(m: JoinRequest) -> None:
    if m.shards < 1 or m.shard >= m.shards:
        raise WireValidationError(
            f"join shard {m.shard} outside 0..{m.shards - 1}"
        )


_layout(
    64,
    JoinRequest,
    _check_join_shard,
    shard=SHARD,
    shards=SHARD,
    spec_json=BLOB,
    peers=LIST(STRING, 1 << 16),
)


@dataclass(frozen=True)
class JoinAccept:
    """Daemon -> coordinator: session built, peer links up."""

    shard: int
    nodes_owned: int
    spec_digest: str
    kind = "join_accept"


_layout(
    65,
    JoinAccept,
    shard=SHARD,
    nodes_owned=VARINT(1 << 32),
    spec_digest=STRING,
)


@dataclass(frozen=True)
class JoinReject:
    """Daemon -> coordinator: cannot host this scenario."""

    reason: str
    kind = "join_reject"


_layout(66, JoinReject, reason=STRING)


@dataclass(frozen=True)
class PeerHello:
    """Daemon -> daemon: identifies the dialing shard on a new link."""

    shard: int
    kind = "peer_hello"


_layout(67, PeerHello, shard=SHARD)


@dataclass(frozen=True)
class RoundStart:
    """Coordinator -> daemons: run the begin fan-out of a round."""

    round_no: int
    kind = "round_start"


_layout(68, RoundStart, round_no=ROUND)


@dataclass(frozen=True)
class StepMark:
    """Daemon -> peer daemons: all my step-``step`` payload frames for
    this link are ahead of this mark (FIFO barrier)."""

    round_no: int
    step: int
    kind = "step_mark"


_layout(69, StepMark, round_no=ROUND, step=ROUND)


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


_layout(
    70,
    StepDone,
    round_no=ROUND,
    step=ROUND,
    delivered=TALLY,
    sent_remote=TALLY,
    pending_local=TALLY,
)


@dataclass(frozen=True)
class StepGo:
    """Coordinator -> daemons: run the next step, or (``proceed`` False)
    end the round's drain."""

    round_no: int
    step: int
    proceed: bool
    kind = "step_go"


_layout(71, StepGo, round_no=ROUND, step=ROUND, proceed=BOOL)


@dataclass(frozen=True)
class RoundDone:
    """Daemon -> coordinator: end fan-out of the round completed."""

    round_no: int
    kind = "round_done"


_layout(72, RoundDone, round_no=ROUND)


@dataclass(frozen=True)
class CollectRequest:
    """Coordinator -> daemons: report your shard's outcomes."""

    kind = "collect"


_layout(73, CollectRequest)


@dataclass(frozen=True)
class SessionReport:
    """Daemon -> coordinator: JSON outcome payload for the shard."""

    payload: bytes
    kind = "session_report"


_layout(74, SessionReport, payload=BLOB)


@dataclass(frozen=True)
class Shutdown:
    """Coordinator -> daemon: close links and exit cleanly."""

    kind = "shutdown"


_layout(75, Shutdown)


# ---------------------------------------------------------------------------
# Service frames (kinds 76-81): health, event stream, operator control
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HealthRequest:
    """Observer -> service: report the supervised session's state."""

    kind = "health_request"


_layout(76, HealthRequest)


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


_layout(
    77,
    HealthReport,
    state=STRING,
    scenario=STRING,
    current_round=ROUND,
    total_rounds=ROUND,
    nodes=VARINT(1 << 32),
    subscribers=VARINT(1 << 16),
    events_published=TALLY,
    restarts=VARINT(1 << 16),
)


@dataclass(frozen=True)
class SubscribeRequest:
    """Observer -> service: switch this link to the event stream.

    ``kinds`` filters by event kind (``round``, ``meter``, ``counters``,
    ``verdict``, ``state``); an empty tuple subscribes to everything.
    """

    kinds: Tuple[str, ...] = ()
    kind = "subscribe"


_layout(78, SubscribeRequest, kinds=LIST(STRING, 1 << 8))


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


_layout(79, EventFrame, seq=TALLY, payload=BLOB, dropped=TALLY)


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


_layout(80, ControlRequest, op=STRING, node_id=OPTIONAL(ID), arg=STRING)


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


_layout(81, ControlResponse, ok=BOOL, detail=STRING, state=STRING)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def schema_table() -> List[Tuple[int, type, bool]]:
    """``(kind_byte, message class, is_control)`` per registered schema.

    Ordered by kind byte then class name.  This is the coverage
    contract ``tests/net/test_wire.py`` and ``test_wire_golden.py``
    check: every row has a fixture in ``tests/net/fixtures.py`` and a
    pinned frame in ``tests/net/golden_wire_v1.json``, and every
    message class with a wire ``kind`` appears here.
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
    define their own message types outside the PAG wire catalogue.
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
    schema.put(w, message)
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
    message = schema.get(r)
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

