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
  because honest verification recomputes the token, and the simulated
  adversary model (selfish nodes, section III) cannot forge signatures
  by assumption.  Signature *bytes on the wire* are always priced at the
  real RSA-2048 size.

Both count operations so Table I can be reproduced either way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Protocol

from repro.crypto.keystore import CryptoCounters, KeyStore

__all__ = ["Signer", "RsaSigner", "TokenSigner"]


class Signer(Protocol):
    """Signs and verifies opaque payload descriptions for node ids."""

    counters: CryptoCounters

    def sign(self, signer_id: int, payload: bytes) -> int:
        """Produce a signature integer for ``payload`` by ``signer_id``."""
        ...

    def verify(self, signer_id: int, payload: bytes, signature: int) -> bool:
        """Check a signature produced by :meth:`sign`."""
        ...


@dataclass
class RsaSigner:
    """Real RSA signatures backed by a :class:`KeyStore`."""

    keystore: KeyStore
    counters: CryptoCounters = field(default_factory=CryptoCounters)

    def sign(self, signer_id: int, payload: bytes) -> int:
        self.counters.signatures += 1
        return self.keystore.register(signer_id).private.sign(payload)

    def verify(self, signer_id: int, payload: bytes, signature: int) -> bool:
        self.counters.verifications += 1
        return self.keystore.public_key(signer_id).verify(payload, signature)


@dataclass
class TokenSigner:
    """Deterministic signature tokens for fast large-scale simulation."""

    counters: CryptoCounters = field(default_factory=CryptoCounters)
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
