"""Cryptographic substrate for the PAG reproduction.

Everything here is implemented from scratch in pure Python: Miller-Rabin
prime generation, RSA key generation / encryption / signatures, and the
unpadded-RSA homomorphic hash of section IV-B of the paper.  The goal is
to exercise the *actual algebra* of the protocol (every homomorphic
identity the monitors rely on is computed for real in tests and small
simulations), while also exposing operation counters for the large-scale
cost accounting of section VII.
"""

from __future__ import annotations

from repro.crypto.backend import (
    Backend,
    FixedBaseCache,
    Gmpy2Backend,
    OpenSSLBackend,
    PythonBackend,
    available_backends,
    default_backend,
    gmpy2_available,
    resolve_backend,
)
from repro.crypto.homomorphic import (
    DEFAULT_MODULUS_BITS,
    DEFAULT_PRIME_BITS,
    HomomorphicHasher,
    fresh_hasher,
    make_modulus,
)
from repro.crypto.keystore import CryptoCounters, KeyStore
from repro.crypto.primes import (
    PrimePool,
    generate_distinct_primes,
    generate_prime,
    is_prime,
    next_prime,
    product,
)
from repro.crypto.rsa import (
    DEFAULT_KEY_BITS,
    RsaKeyPair,
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
)

__all__ = [
    "DEFAULT_KEY_BITS",
    "DEFAULT_MODULUS_BITS",
    "DEFAULT_PRIME_BITS",
    "Backend",
    "CryptoCounters",
    "FixedBaseCache",
    "Gmpy2Backend",
    "HomomorphicHasher",
    "KeyStore",
    "OpenSSLBackend",
    "PrimePool",
    "PythonBackend",
    "available_backends",
    "default_backend",
    "gmpy2_available",
    "resolve_backend",
    "RsaKeyPair",
    "RsaPrivateKey",
    "RsaPublicKey",
    "fresh_hasher",
    "generate_distinct_primes",
    "generate_keypair",
    "generate_prime",
    "is_prime",
    "make_modulus",
    "next_prime",
    "product",
]
