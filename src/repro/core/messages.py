"""PAG wire messages.

Messages 1-5 are the update exchange of Fig. 5; messages 6-9 are the
monitoring traffic of Fig. 6; the remaining types implement the
accusation path of Fig. 3 and the investigation step of section IV-A
("they ask node A for the acknowledgement that node B should have
sent").

Wire sizing: every message computes its byte size from the session's
:class:`~repro.sim.message.WireSizes`.  Products of k primes are priced
as ``k * prime`` bytes (their true width), independent of the smaller
primes the simulation may use for the algebra — the ``prime_count``
fields exist for exactly this purpose.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, ClassVar, Dict, Optional, Tuple, Type, TypeVar

from repro.gossip.updates import Update
from repro.sim.message import Message, WireSizes

__all__ = [
    "ServeEntry",
    "serve_entry",
    "forget_expired_entries",
    "ack_payload",
    "attestation_payload",
    "SignedAck",
    "SignedAttestation",
    "KeyRequest",
    "KeyResponse",
    "Serve",
    "Attestation",
    "Ack",
    "AckCopy",
    "AttestationRelay",
    "RelayPair",
    "AttestationRelayBatch",
    "DeclarationAck",
    "MonitorBroadcast",
    "SelfCheck",
    "AckRelay",
    "Accusation",
    "MonitorProbe",
    "ProbeAck",
    "Confirm",
    "Nack",
    "InvestigateRequest",
    "InvestigateResponse",
]

_T = TypeVar("_T")

#: Bytes used for a reception-multiplicity counter on the wire.
_COUNT_BYTES = 2


def wire_kinds() -> frozenset:
    """All message ``kind`` strings a PAG session can put on the wire.

    Fault schedules validate their kind filters against this catalogue,
    so a typo in a scenario declaration fails fast instead of silently
    matching nothing.
    """
    import sys

    module = sys.modules[__name__]
    kinds = set()
    for name in __all__:
        kind = getattr(getattr(module, name), "kind", None)
        if isinstance(kind, str):
            kinds.add(kind)
    return frozenset(kinds)


def _pickled_by_constructor(cls: Type[_T]) -> Type[_T]:
    """Make a value class pickle as ``(cls, field values)``.

    A ``frozen=True, slots=True`` dataclass otherwise pickles through
    the Python-level ``_dataclass_getstate`` / ``_dataclass_setstate``
    pair (a ``fields()`` call and an ``object.__setattr__`` per field),
    half of what the parallel policy paid to pickle cross-shard
    messages.  Read off the finished class (two or more fields, all
    constructor arguments), the reduction cannot go stale.
    """
    names = [f.name for f in fields(cls)]  # type: ignore[arg-type]
    values = attrgetter(*names)
    cls.__reduce__ = (  # type: ignore[method-assign,assignment]
        lambda self: (cls, values(self))
    )
    return cls


@_pickled_by_constructor
@dataclass(frozen=True, slots=True)
class ServeEntry:
    """One update inside a Serve message.

    Attributes:
        update: the chunk (payload travels only when ``has_payload``).
        count: how many times the sender received the update during the
            previous round (section V-D "Multiple receptions"); it is
            the exponent of the update in every hash that covers it.
        has_payload: False when the receiver already owns the chunk (it
            was advertised in the buffermap) — only the identifier and
            count travel.
        ack_only: True when the entry joins the receiver's
            acknowledge-only list (expiring next round, or already owned)
            rather than its forwarding obligation (section V-D
            "Expiration of updates", extended to duplicates so that
            ghost obligations do not cascade).
    """

    update: Update
    count: int
    has_payload: bool
    ack_only: bool

    def wire_bytes(self, sizes: WireSizes) -> int:
        body = sizes.update_id + _COUNT_BYTES + 1  # id, count, flags
        if self.has_payload:
            body += self.update.payload_bytes
        return body


#: expiry round -> update's five fields -> (its Update, {count << 2 | flags:
#: ServeEntry}); per process, as the wire decoder has no session.
_INTERNED: Dict[int, Dict[tuple, Any]] = defaultdict(dict)


def serve_entry(
    update_key: tuple, count: int, flags: int, update: Optional[Update] = None
) -> ServeEntry:
    """The one entry per process of the update ``update_key`` (``uid,
    round_created, expiry_round, payload_bytes, session``), ``count`` and
    ``flags`` (1 has_payload, 2 ack_only, as on the wire); ``update`` is
    used if none of its value is interned yet."""
    values = _INTERNED[update_key[2]]
    interned = values.get(update_key)
    if interned is None:
        interned = values[update_key] = (update or Update(*update_key), {})
    code = count << 2 | flags
    entry = interned[1].get(code)
    if entry is None:
        entry = interned[1][code] = ServeEntry(
            interned[0], count, flags & 1 == 1, flags & 2 == 2
        )
    return entry


def forget_expired_entries(round_no: int) -> None:
    """Release the interned values of updates expired by ``round_no``."""
    for expiry in [r for r in _INTERNED if r < round_no]:
        del _INTERNED[expiry]


def ack_payload(
    round_no: int,
    receiver: int,
    server: int,
    hash_total: int,
    key_prime_count: int,
) -> bytes:
    """What B signs in a :class:`SignedAck`, from its fields in order.

    The signer calls this before the object exists, so an exhibit is
    built once, with its signature.
    """
    return (
        f"ack|{round_no}|{receiver}|{server}|"
        f"{hash_total}|{key_prime_count}".encode()
    )


def attestation_payload(
    round_no: int,
    server: int,
    receiver: int,
    hash_forward: int,
    hash_ack_only: int,
) -> bytes:
    """What A signs in a :class:`SignedAttestation` (see
    :func:`ack_payload`)."""
    return (
        f"att|{round_no}|{server}|{receiver}|"
        f"{hash_forward}|{hash_ack_only}".encode()
    )


@_pickled_by_constructor
@dataclass(frozen=True, slots=True)
class SignedAck:
    """Message 5 content: ``<Ack, R, B, A, H(prod u_i)_(K(R-1,A), M)>_B``.

    Relayed verbatim in messages 6 and 9 and exhibited in disputes, so it
    is a standalone signed object.

    Attributes:
        round_no: round of the exchange.
        receiver: B, the acknowledging node (the signer).
        server: A, whose serve is acknowledged.
        hash_total: homomorphic hash of the full served product (forward
            and ack-only parts) under A's previous-round key product.
        key_prime_count: number of primes in A's key product (sizing).
        signature: B's signature over the payload.
    """

    round_no: int
    receiver: int
    server: int
    hash_total: int
    key_prime_count: int
    signature: int

    def payload_bytes_desc(self) -> bytes:
        return ack_payload(
            self.round_no,
            self.receiver,
            self.server,
            self.hash_total,
            self.key_prime_count,
        )

    def wire_bytes(self, sizes: WireSizes) -> int:
        return sizes.hash_value + sizes.signature + 12


@_pickled_by_constructor
@dataclass(frozen=True, slots=True)
class SignedAttestation:
    """Message 4 content: ``<Attestation, R, A, B, H(.)_(p_j,M)>_A``.

    Split into the forwarding obligation and the acknowledge-only part
    (section V-D's two-list mechanism).
    """

    round_no: int
    server: int
    receiver: int
    hash_forward: int
    hash_ack_only: int
    signature: int

    def payload_bytes_desc(self) -> bytes:
        return attestation_payload(
            self.round_no,
            self.server,
            self.receiver,
            self.hash_forward,
            self.hash_ack_only,
        )

    def wire_bytes(self, sizes: WireSizes) -> int:
        return 2 * sizes.hash_value + sizes.signature + 12


# ---------------------------------------------------------------------------
# Messages 1-5: the exchange of Fig. 5.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class KeyRequest(Message):
    """Message 1: ``<KeyRequest, R, A, B>_A`` — A asks B for a prime."""

    signature: int = 0
    kind: ClassVar[str] = "key_request"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + sizes.signature


@dataclass(slots=True)
class KeyResponse(Message):
    """Message 2: ``{<KeyResponse, R, B, A, p_j, H(u_{i in S_B})_(p_j,M)>_B}pk(A)``.

    B issues a fresh prime for the link and advertises, hashed under that
    prime, the updates it owns from the last ``buffermap_depth`` rounds.
    """

    prime: int = 0
    buffermap: frozenset[int] = field(default_factory=frozenset)
    signature: int = 0
    kind: ClassVar[str] = "key_response"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header
            + sizes.prime
            + len(self.buffermap) * sizes.hash_value
            + sizes.signature
            + sizes.encryption_overhead
        )


@dataclass(slots=True)
class Serve(Message):
    """Message 3: ``{<Serve, R, A, B, K(R-1,A), updates, intersections>_A}pk(B)``."""

    key_prev: int = 1
    key_prime_count: int = 0
    entries: Tuple[ServeEntry, ...] = ()
    signature: int = 0
    kind: ClassVar[str] = "serve"

    def size_bytes(self, sizes: WireSizes) -> int:
        # sum(entry.wire_bytes(sizes)) in closed form (id, count and
        # flags per entry, plus the payloads that travel): one Serve
        # per exchange carries the whole forward set.
        entries = self.entries
        payloads = sum(
            [e.update.payload_bytes for e in entries if e.has_payload]
        )
        key_bytes = self.key_prime_count * sizes.prime
        return (
            sizes.header
            + key_bytes
            + len(entries) * (sizes.update_id + _COUNT_BYTES + 1)
            + payloads
            + sizes.signature
            + sizes.encryption_overhead
        )


@dataclass(slots=True)
class Attestation(Message):
    """Message 4: the signed attestation A sends to B."""

    attestation: Optional[SignedAttestation] = None
    kind: ClassVar[str] = "attestation"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + self.attestation.wire_bytes(sizes)


@dataclass(slots=True)
class Ack(Message):
    """Message 5: B's signed acknowledgement back to A."""

    ack: Optional[SignedAck] = None
    kind: ClassVar[str] = "ack"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + self.ack.wire_bytes(sizes)


# ---------------------------------------------------------------------------
# Messages 6-9: monitoring traffic of Fig. 6.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AckCopy(Message):
    """Message 6: B copies its Ack to one of its own monitors."""

    ack: Optional[SignedAck] = None
    kind: ClassVar[str] = "ack_copy"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + self.ack.wire_bytes(sizes)


@dataclass(slots=True)
class AttestationRelay(Message):
    """Message 7: ``{<attestation, prod_{k!=j} p_k>_B}pk(D)``.

    B forwards A's attestation to its designated monitor together with
    the product of the primes B issued to its *other* predecessors, so
    the monitor can homomorphically lift the attested hash to the full
    round key.  Sent to a per-predecessor monitor so no single monitor
    collects all cofactors (two cofactors reveal primes via gcd).
    """

    attestation: Optional[SignedAttestation] = None
    cofactor: int = 1
    cofactor_prime_count: int = 0
    signature: int = 0
    kind: ClassVar[str] = "attestation_relay"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header
            + self.attestation.wire_bytes(sizes)
            + self.cofactor_prime_count * sizes.prime
            + sizes.signature
            + sizes.encryption_overhead
        )


@_pickled_by_constructor
@dataclass(frozen=True, slots=True)
class RelayPair:
    """One (attestation, cofactor) pair inside a batched relay.

    The raw material of one message-7 declaration: the server's signed
    attestation plus the cofactor that lifts it to the declarer's full
    round key.  ``cofactor_prime_count`` prices the cofactor on the
    wire (a product of k primes is k * prime bytes wide).
    """

    attestation: SignedAttestation
    cofactor: int = 1
    cofactor_prime_count: int = 0

    def wire_bytes(self, sizes: WireSizes) -> int:
        return (
            self.attestation.wire_bytes(sizes)
            + self.cofactor_prime_count * sizes.prime
        )


@dataclass(slots=True)
class AttestationRelayBatch(Message):
    """Message 7, batched: several raw (hash, cofactor) pairs, one
    signature.

    The wire form the fm>1 batched fold waits on (ROADMAP item 1): when
    a declarer owes one monitor several per-predecessor declarations in
    a round (its designation rotation wraps because it has more
    predecessors than monitors, or it redeclares after a monitor
    failure), the raw pairs travel in a single signed message instead
    of one :class:`AttestationRelay` per pair.  Each attestation keeps
    its server's inner signature; the declarer signs the pair list once
    (:meth:`payload_desc`).  Receiving monitors fold the raw pairs
    straight into their round :class:`~repro.core.verification.BatchVerifier`
    without materialising per-pair lifts, and the designated monitor
    forwards the *same signed batch* to its peer monitors in place of
    per-pair MonitorBroadcasts.

    The in-process simulator never emits this type — it exists for the
    daemon wire path (``repro.net``), which is held to verdict parity
    with the simulator, not byte parity.  ``declarer`` names the node
    whose declarations these are; it differs from ``sender`` when a
    designated monitor forwards the batch to its peers.
    """

    declarer: int = -1
    pairs: Tuple[RelayPair, ...] = ()
    signature: int = 0
    kind: ClassVar[str] = "attestation_relay_batch"

    def payload_desc(self) -> bytes:
        body = "|".join(
            f"{pair.attestation.round_no}|{pair.attestation.server}|"
            f"{pair.cofactor}"
            for pair in self.pairs
        )
        return f"attbatch|{self.round_no}|{self.declarer}|{body}".encode()

    def size_bytes(self, sizes: WireSizes) -> int:
        body = sum(pair.wire_bytes(sizes) for pair in self.pairs)
        return (
            sizes.header
            + body
            + sizes.signature
            + sizes.encryption_overhead
        )


@dataclass(slots=True)
class DeclarationAck(Message):
    """Monitor -> declarer: the message 6/7 pair was received.

    Lets a node detect a crashed designated monitor and re-send its
    declaration to the next monitor in its set, so a single monitor
    failure does not sever the relay chain (the paper assumes at least
    one correct monitor per set; this realises that redundancy without
    giving any monitor two cofactors on the happy path).
    """

    server: int = -1
    exchange_round: int = -1
    signature: int = 0
    kind: ClassVar[str] = "declaration_ack"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 8 + sizes.signature


@dataclass(slots=True)
class MonitorBroadcast(Message):
    """Message 8: the designated monitor shares the lifted hash pair.

    ``<H(prod u)_(K(R,B), M)>`` for one predecessor's serve, broadcast to
    the other monitors of B together with the ack copy, so all monitors
    of B converge on the same obligation product (section V-C).
    """

    monitored: int = -1
    predecessor: int = -1
    lifted_forward: int = 1
    lifted_ack_only: int = 1
    ack: Optional[SignedAck] = None
    signature: int = 0
    kind: ClassVar[str] = "monitor_broadcast"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header
            + 2 * sizes.hash_value
            + self.ack.wire_bytes(sizes)
            + sizes.signature
        )


@dataclass(slots=True)
class SelfCheck(Message):
    """Monitored node -> each of its monitors: my own lifted hash pair.

    The section V-B cross-check: "nodes can compute this value and send
    it to their monitors.  Monitors are then able to check each other's
    correctness."  The node knows all its primes, so it can compute
    ``H(.)_(K(R, self))`` directly; a designated monitor that broadcasts
    a different value is lying (or the node is — the successors'
    acknowledgements arbitrate, since they hash the real product under
    the real key).
    """

    predecessor: int = -1
    lifted_forward: int = 1
    lifted_ack_only: int = 1
    signature: int = 0
    kind: ClassVar[str] = "self_check"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 2 * sizes.hash_value + sizes.signature

    def payload_desc(self) -> bytes:
        return (
            f"selfcheck|{self.round_no}|{self.sender}|{self.predecessor}|"
            f"{self.lifted_forward}|{self.lifted_ack_only}".encode()
        )


@dataclass(slots=True)
class AckRelay(Message):
    """Message 9: B's monitors forward B's ack to A's monitors.

    This is how A's monitors learn that A's successor B acknowledged the
    right product under A's previous-round key.
    """

    server: int = -1
    ack: Optional[SignedAck] = None
    signature: int = 0
    kind: ClassVar[str] = "ack_relay"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header + self.ack.wire_bytes(sizes) + sizes.signature
        )


# ---------------------------------------------------------------------------
# Accusation path (Fig. 3) and investigations (section IV-A).
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Accusation(Message):
    """A tells M(B): B did not acknowledge my serve; here is the serve.

    The accusation re-sends the update set to B's monitors "making them
    forward it to node B and ask for an acknowledgement".  On this
    failure path the monitors do see the payload — the privacy of the
    exchange is sacrificed to resolve the dispute, which is why the
    paper calls PAG *partially* privacy-preserving.
    """

    accused: int = -1
    exchange_round: int = -1
    entries: Tuple[ServeEntry, ...] = ()
    key_prev: int = 1
    key_prime_count: int = 0
    attestation: Optional[SignedAttestation] = None
    signature: int = 0
    kind: ClassVar[str] = "accusation"

    def size_bytes(self, sizes: WireSizes) -> int:
        body = sum(entry.wire_bytes(sizes) for entry in self.entries)
        att = self.attestation.wire_bytes(sizes) if self.attestation else 0
        return (
            sizes.header
            + body
            + self.key_prime_count * sizes.prime
            + att
            + sizes.signature
        )


@dataclass(slots=True)
class MonitorProbe(Message):
    """M(B) forwards the accused serve to B and demands an Ack."""

    accuser: int = -1
    exchange_round: int = -1
    entries: Tuple[ServeEntry, ...] = ()
    key_prev: int = 1
    key_prime_count: int = 0
    signature: int = 0
    kind: ClassVar[str] = "monitor_probe"

    def size_bytes(self, sizes: WireSizes) -> int:
        body = sum(entry.wire_bytes(sizes) for entry in self.entries)
        return (
            sizes.header
            + body
            + self.key_prime_count * sizes.prime
            + sizes.signature
        )


@dataclass(slots=True)
class ProbeAck(Message):
    """B answers a probe with a signed Ack."""

    ack: Optional[SignedAck] = None
    kind: ClassVar[str] = "probe_ack"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + self.ack.wire_bytes(sizes)


@dataclass(slots=True)
class Confirm(Message):
    """M(B) -> M(A): ``Confirm(<Ack(u, A)>_B)`` — B did acknowledge."""

    ack: Optional[SignedAck] = None
    signature: int = 0
    kind: ClassVar[str] = "confirm"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header + self.ack.wire_bytes(sizes) + sizes.signature
        )


@dataclass(slots=True)
class Nack(Message):
    """M(B) -> M(A): B never answered the probe; B is unresponsive."""

    accused: int = -1
    accuser: int = -1
    exchange_round: int = -1
    signature: int = 0
    kind: ClassVar[str] = "nack"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 12 + sizes.signature


@dataclass(slots=True)
class InvestigateRequest(Message):
    """M(A) -> A: exhibit the Ack that successor B should have produced."""

    successor: int = -1
    exchange_round: int = -1
    signature: int = 0
    kind: ClassVar[str] = "investigate_request"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 8 + sizes.signature


@dataclass(slots=True)
class InvestigateResponse(Message):
    """A -> M(A): the exhibited Ack, or nothing (which convicts A)."""

    successor: int = -1
    exchange_round: int = -1
    ack: Optional[SignedAck] = None
    accused_instead: bool = False
    signature: int = 0
    kind: ClassVar[str] = "investigate_response"

    def size_bytes(self, sizes: WireSizes) -> int:
        ack_bytes = self.ack.wire_bytes(sizes) if self.ack else 0
        return sizes.header + 9 + ack_bytes + sizes.signature
