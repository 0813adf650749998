"""Pure-Python RSA: key generation, encryption, and signatures.

PAG's system model (section III) assumes nodes "have access to secure
asymmetric key encryptions and signatures".  The deployment in the paper
uses RSA-2048 signatures; message confidentiality between nodes (the
``{...}pk(B)`` notation of Fig. 5) also uses the recipient's RSA key.

This is a from-scratch textbook implementation sufficient for protocol
simulation and for exercising the real algebra end to end.  It is NOT
hardened cryptography (no constant-time arithmetic, simplified padding)
and must never protect real data; the simulation only needs the
mathematical behaviour and honest operation counts.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from repro.crypto.backend import powmod
from repro.crypto.primes import generate_prime

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "RsaKeyPair",
    "generate_keypair",
    "DEFAULT_KEY_BITS",
    "DEFAULT_PUBLIC_EXPONENT",
]

DEFAULT_KEY_BITS = 2048
DEFAULT_PUBLIC_EXPONENT = 65537

# Domain-separation prefixes so an encryption can never double as a
# signature on the same integer.
_ENCRYPT_DOMAIN = b"pag-enc:"
_SIGN_DOMAIN = b"pag-sig:"


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(n, e)``.

    The paper writes ``pk(X)`` for the public key of node X, ``{m}X``
    for an encryption under it, and ``<m>X`` for a signed message.
    """

    modulus: int
    exponent: int

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    @property
    def byte_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def encrypt_int(self, message: int) -> int:
        """Raw RSA encryption of an integer already below the modulus."""
        if not 0 <= message < self.modulus:
            raise ValueError("message out of range for raw RSA")
        return powmod(message, self.exponent, self.modulus)

    def encrypt(self, plaintext: bytes) -> int:
        """Encrypt a short byte string (must fit under the modulus)."""
        padded = _ENCRYPT_DOMAIN + plaintext
        message = int.from_bytes(padded, "big")
        if message >= self.modulus:
            raise ValueError(
                f"plaintext of {len(plaintext)} bytes does not fit under a "
                f"{self.bits}-bit modulus"
            )
        return self.encrypt_int(message)

    def verify(self, message: bytes, signature: int) -> bool:
        """Verify a signature produced by the matching private key."""
        if not 0 <= signature < self.modulus:
            return False
        recovered = powmod(signature, self.exponent, self.modulus)
        return recovered == _signature_representative(message, self.modulus)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; keeps the CRT parameters for fast operations."""

    modulus: int
    public_exponent: int
    private_exponent: int
    prime_p: int
    prime_q: int

    def _crt_power(self, base: int) -> int:
        """Compute ``base ** d mod n`` via the Chinese Remainder Theorem."""
        p, q = self.prime_p, self.prime_q
        d = self.private_exponent
        dp = d % (p - 1)
        dq = d % (q - 1)
        q_inv = pow(q, -1, p)
        m1 = powmod(base % p, dp, p)
        m2 = powmod(base % q, dq, q)
        h = (q_inv * (m1 - m2)) % p
        return m2 + h * q

    def decrypt_int(self, ciphertext: int) -> int:
        if not 0 <= ciphertext < self.modulus:
            raise ValueError("ciphertext out of range")
        return self._crt_power(ciphertext)

    def decrypt(self, ciphertext: int) -> bytes:
        """Decrypt and strip the domain prefix; raises on malformed input."""
        message = self.decrypt_int(ciphertext)
        raw = message.to_bytes((message.bit_length() + 7) // 8, "big")
        if not raw.startswith(_ENCRYPT_DOMAIN):
            raise ValueError("decryption failed: bad padding domain")
        return raw[len(_ENCRYPT_DOMAIN):]

    def sign(self, message: bytes) -> int:
        """Full-domain-hash style signature over ``message``."""
        return self._crt_power(
            _signature_representative(message, self.modulus)
        )


@dataclass(frozen=True)
class RsaKeyPair:
    """A public/private key pair owned by one simulated node."""

    public: RsaPublicKey
    private: RsaPrivateKey

    @property
    def bits(self) -> int:
        return self.public.bits


def _signature_representative(message: bytes, modulus: int) -> int:
    """Map a message to a fixed integer below ``modulus``.

    Expands SHA-256 output with counter blocks (a simple MGF) so the
    representative covers most of the modulus width, then reduces.
    """
    target_bytes = (modulus.bit_length() + 7) // 8
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < target_bytes:
        blocks.append(
            hashlib.sha256(
                _SIGN_DOMAIN + counter.to_bytes(4, "big") + message
            ).digest()
        )
        counter += 1
    expanded = b"".join(blocks)[:target_bytes]
    return int.from_bytes(expanded, "big") % modulus


def generate_keypair(
    bits: int = DEFAULT_KEY_BITS,
    rng: random.Random | None = None,
    public_exponent: int = DEFAULT_PUBLIC_EXPONENT,
) -> RsaKeyPair:
    """Generate an RSA key pair of roughly ``bits`` bits.

    Args:
        bits: modulus size; the paper deploys RSA-2048, tests use smaller
            keys for speed (the algebra is identical).
        rng: seeded random source for reproducible simulations.  When
            omitted, a generator seeded from ``(bits, exponent)`` is
            used so two parameter-identical calls agree — simulations
            must never consume ambient entropy (``repro lint`` DET102
            flagged the previous unseeded fallback).
        public_exponent: must be odd and at least 3.
    """
    if bits < 64:
        raise ValueError("RSA modulus below 64 bits is meaningless")
    if public_exponent < 3 or public_exponent % 2 == 0:
        raise ValueError("public exponent must be an odd integer >= 3")
    if rng is None:
        rng = random.Random((bits << 20) | public_exponent)
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        if math.gcd(public_exponent, (p - 1) * (q - 1)) != 1:
            continue
        n = p * q
        phi = (p - 1) * (q - 1)
        d = pow(public_exponent, -1, phi)
        public = RsaPublicKey(modulus=n, exponent=public_exponent)
        private = RsaPrivateKey(
            modulus=n,
            public_exponent=public_exponent,
            private_exponent=d,
            prime_p=p,
            prime_q=q,
        )
        return RsaKeyPair(public=public, private=private)
