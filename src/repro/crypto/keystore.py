"""Public-key directory for simulated nodes.

Section III of the paper: "Nodes interested in a content have to obtain
the public key of its source using an external service."  Similarly the
per-node keys used in ``{m}pk(B)`` encryptions and ``<m>B`` signatures
must be resolvable by identity.  This module plays the role of that
external PKI in simulations.

Key generation of thousands of RSA-2048 pairs is prohibitively slow in
pure Python, so the keystore supports two modes:

* ``real`` — every node gets a genuine (small, configurable) RSA pair;
  used in tests/examples that exercise the actual algebra.
* ``counted`` — keys are lightweight stand-ins and only operation counts
  and byte sizes are tracked; used in large-scale bandwidth simulations,
  where the paper itself reports operation counts rather than CPU load
  (section VII-C).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_keypair

__all__ = ["KeyStore", "CryptoCounters"]


@dataclass
class CryptoCounters:
    """Tally of cryptographic operations, in the units of Table I.

    The paper measures "the number of generated RSA encryptions and
    homomorphic hashes per second rather than the CPU load, which depends
    on the hardware used".
    """

    signatures: int = 0
    verifications: int = 0
    encryptions: int = 0
    decryptions: int = 0
    homomorphic_hashes: int = 0
    prime_generations: int = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "signatures": self.signatures,
            "verifications": self.verifications,
            "encryptions": self.encryptions,
            "decryptions": self.decryptions,
            "homomorphic_hashes": self.homomorphic_hashes,
            "prime_generations": self.prime_generations,
        }


#: Default seed for key generation.  The keystore's documented
#: contract is "seeded randomness so two runs produce identical keys";
#: an unseeded ``random.Random()`` default silently broke it for every
#: caller that never passed an rng (caught by ``repro lint`` DET102).
DEFAULT_KEYSTORE_SEED = 0x6B657973  # b"keys"


def _default_rng() -> random.Random:
    return random.Random(DEFAULT_KEYSTORE_SEED)


@dataclass
class KeyStore:
    """Maps node identifiers to RSA key pairs.

    Attributes:
        key_bits: modulus size for generated pairs (tests shrink this).
        rng: seeded randomness so two runs produce identical keys; the
            default is seeded with :data:`DEFAULT_KEYSTORE_SEED`.
    """

    key_bits: int = 512
    rng: random.Random = field(default_factory=_default_rng)
    _pairs: Dict[int, RsaKeyPair] = field(default_factory=dict)

    def register(self, node_id: int) -> RsaKeyPair:
        """Create (or return the existing) key pair for ``node_id``."""
        if node_id not in self._pairs:
            self._pairs[node_id] = generate_keypair(self.key_bits, self.rng)
        return self._pairs[node_id]

    def public_key(self, node_id: int) -> RsaPublicKey:
        """Resolve a node's public key, registering it on first use."""
        return self.register(node_id).public

    def key_pair(self, node_id: int) -> RsaKeyPair:
        if node_id not in self._pairs:
            raise KeyError(f"node {node_id} has no registered key pair")
        return self._pairs[node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

