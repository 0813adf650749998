"""Signing abstraction used inside PAG simulations.

The protocol's accountability rests on every Ack and Attestation being
signed: they are the exhibits in disputes ("nodes register the messages
they send or receive, and can use them to prove their correctness or
that another node deviated", section VI-B).

Two interchangeable implementations:

* :class:`RsaSigner` — real RSA signatures via :mod:`repro.crypto.rsa`;
  used in tests/examples that exercise the genuine cryptography.
* :class:`TokenSigner` — a deterministic stand-in (SHA-256 of signer and
  payload) for large simulations; unforgeable within the simulation
  because a token only matches the one signer id and payload it was
  computed from, and the simulated adversary model (selfish nodes,
  section III) cannot forge signatures by assumption.  Signature *bytes
  on the wire* are always priced at the real RSA-2048 size.

Both count operations so Table I can be reproduced either way, and both
remember for one round what this process signed or checked: a repeated
check is a lookup that counts one verification (docs/INVARIANTS.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Set

from repro.crypto.keystore import CryptoCounters, KeyStore

__all__ = ["Signer", "RsaSigner", "TokenSigner"]


class Signer:
    """Signs and verifies opaque payload descriptions for node ids."""

    def __post_init__(self) -> None:
        self.counters = CryptoCounters()
        #: (claimed signer, SignedAck or SignedAttestation) found valid.
        self.exhibits: Set[tuple] = set()
        #: (signer, fields, signature) of each KeyResponse not yet read.
        self.records: Set[tuple] = set()

    def sign(self, signer_id: int, payload: bytes) -> int:
        raise NotImplementedError

    def verify(self, signer_id: int, payload: bytes, signature: int) -> bool:
        raise NotImplementedError

    def remember(self, signer_id: int, exhibit: Any) -> None:
        """``exhibit`` is valid as signed by ``signer_id``."""
        self.exhibits.add((signer_id, exhibit))

    def check(self, signer_id: int, exhibit: Any) -> bool:
        """:meth:`verify` of ``exhibit``'s payload and signature as
        signed by ``signer_id``; one held pair answers it."""
        if (signer_id, exhibit) in self.exhibits:
            self.counters.verifications += 1
            return True
        payload = exhibit.payload_bytes_desc()
        if not self.verify(signer_id, payload, exhibit.signature):
            return False
        self.remember(signer_id, exhibit)
        return True

    def take(self, record: tuple) -> bool:
        """Whether ``record`` is held (a verification); consumes it."""
        if record not in self.records:
            return False
        self.records.remove(record)
        self.counters.verifications += 1
        return True

    def forget_round(self) -> None:
        """Every node of this process has ended the round."""
        self.exhibits.clear()
        self.records.clear()


@dataclass
class RsaSigner(Signer):
    """Real RSA signatures backed by a :class:`KeyStore`."""

    keystore: KeyStore

    def sign(self, signer_id: int, payload: bytes) -> int:
        self.counters.signatures += 1
        return self.keystore.register(signer_id).private.sign(payload)

    def verify(self, signer_id: int, payload: bytes, signature: int) -> bool:
        self.counters.verifications += 1
        return self.keystore.public_key(signer_id).verify(payload, signature)


@dataclass
class TokenSigner(Signer):
    """Deterministic signature tokens for fast large-scale simulation."""

    #: signer id -> ``b"token-sig:" + id`` (8 bytes, big-endian).
    _prefixes: Dict[int, bytes] = field(
        default_factory=dict, repr=False, compare=False
    )

    def _token(self, signer_id: int, payload: bytes) -> int:
        prefix = self._prefixes.get(signer_id)
        if prefix is None:
            prefix = b"token-sig:" + signer_id.to_bytes(8, "big")
            self._prefixes[signer_id] = prefix
        return int.from_bytes(
            hashlib.sha256(prefix + payload).digest(), "big"
        )

    def sign(self, signer_id: int, payload: bytes) -> int:
        self.counters.signatures += 1
        return self._token(signer_id, payload)

    def verify(self, signer_id: int, payload: bytes, signature: int) -> bool:
        self.counters.verifications += 1
        return signature == self._token(signer_id, payload)
