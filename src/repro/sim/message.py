"""Base message type for all simulated protocols.

Bandwidth is the paper's primary metric, so every message must declare
its wire size.  Sizes are computed from the same constants the paper's
deployment used (section VII-A): 938-byte updates, RSA-2048 signatures
(256 B), 512-bit homomorphic hashes and primes (64 B each).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["Message", "WireSizes"]


@dataclass(frozen=True, slots=True)
class WireSizes:
    """Wire-size constants shared by all protocols in a run.

    Attributes:
        header: transport + protocol header per message (type, round,
            sender/recipient identifiers, session id).
        signature: one RSA signature (RSA-2048 -> 256 bytes).
        hash_value: one homomorphic hash (512-bit modulus -> 64 bytes).
        prime: one hashing prime (512 bits -> 64 bytes).
        update_id: compact identifier of an update (sequence number).
        encryption_overhead: padding/session-key overhead when a message
            body is encrypted under a recipient's public key (hybrid
            encryption of one RSA block).
    """

    header: int = 24
    signature: int = 256
    hash_value: int = 64
    prime: int = 64
    update_id: int = 8
    encryption_overhead: int = 256


@dataclass(slots=True)
class Message:
    """A protocol message travelling between two simulated nodes.

    Subclasses add payload fields and override :meth:`size_bytes`.
    Hot-path subclasses (the PAG wire messages) also declare
    ``slots=True``: millions of message instances flow through a long
    simulation, and slotted instances are smaller and faster to create
    and to read attributes from than ``__dict__``-backed ones.
    """

    sender: int
    recipient: int
    round_no: int

    #: human-readable message kind; subclasses override.
    kind: ClassVar[str] = "message"

    def size_bytes(self, sizes: WireSizes) -> int:
        """Wire size of this message under the given size constants."""
        return sizes.header
