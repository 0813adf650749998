"""libcrypto's ``BN_mod_exp`` behind ``OpenSSLBackend``: exact and thread-safe.

The backend marshals Python ints through bytes into scratch BIGNUMs and
back, so what can go wrong is not the arithmetic but its edges: a base
wider than the modulus, zero operands, results with leading zero bytes,
even moduli (libcrypto leaves Montgomery for them), operands either side
of the builtin crossover, and two threads sharing one backend object.  Every
value is compared with builtin ``pow``.
"""

import random
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    _BUILTIN_MAX_WORK,
    available_backends,
    resolve_backend,
)
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.crypto.primes import generate_prime

BUCKETS = ("memo_hits", "fixed_base_hits", "cold_powmods", "batched_lifts")

pytestmark = pytest.mark.skipif(
    "openssl" not in available_backends(),
    reason="libcrypto is not reachable through _hashlib",
)


@pytest.fixture(scope="module")
def backend():
    return resolve_backend("openssl")


_M512 = (1 << 512) - 2  # the test adds one: 512 bits, odd


def _wide(max_bits):
    """Integers of every width up to ``max_bits``, short ones included."""
    return st.integers(min_value=1, max_value=max_bits).flatmap(
        lambda bits: st.integers(min_value=0, max_value=(1 << bits) - 1)
    )


@given(base=_wide(4096), exponent=_wide(4096), modulus=_wide(4096))
@example(base=0, exponent=1 << 64, modulus=(1 << 512) - 1)
@example(base=(1 << 600) + 1, exponent=1 << 64, modulus=(1 << 512) - 1)
@example(base=7, exponent=0, modulus=1 << 512)
@example(base=7, exponent=1, modulus=1 << 512)
# the widest call left to builtin pow at a 512-bit modulus, and the
# narrowest one handed to BN_mod_exp
@example(base=7, exponent=(1 << _BUILTIN_MAX_WORK // 512) - 1, modulus=_M512)
@example(base=7, exponent=1 << _BUILTIN_MAX_WORK // 512, modulus=_M512)
@example(base=3, exponent=1 << 64, modulus=1 << 512)  # even modulus
@example(base=1 << 64, exponent=1 << 10, modulus=1 << 512)  # result 0
@example(base=2, exponent=600, modulus=(1 << 1024) - 1)  # leading zero bytes
@example(base=5, exponent=1 << 64, modulus=1)
@settings(max_examples=150, deadline=None)
def test_powmod_matches_builtin_pow(backend, base, exponent, modulus):
    modulus += 1  # the strategy starts at 0
    result = backend.powmod(base, exponent, modulus)
    assert type(result) is int
    assert result == pow(base, exponent, modulus)


def test_powmod_edges_answer_as_builtin_does(backend):
    wide = 1 << 300
    assert backend.powmod(-5, wide, 77) == pow(-5, wide, 77)
    assert backend.powmod(5, wide, -77) == pow(5, wide, -77)
    assert backend.powmod(5, -1, 77) == pow(5, -1, 77)
    with pytest.raises(ValueError):
        backend.powmod(5, wide, 0)
    with pytest.raises(ValueError):
        backend.powmod(7, -1, 77)  # not invertible


def test_one_backend_object_serves_four_threads(backend):
    """ctypes drops the GIL in every call: scratch must be per thread."""
    failures = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(2000):
            bits = rng.choice((64, 256, 512, 1024))
            modulus = rng.getrandbits(bits) | 1 << (bits - 1)
            base = rng.getrandbits(bits + 64)
            exponent = rng.getrandbits(rng.choice((16, 64, bits)))
            if backend.powmod(base, exponent, modulus) != pow(
                base, exponent, modulus
            ):
                failures.append((seed, base, exponent, modulus))
                return

    threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


def test_paper_size_hasher_matches_the_python_backend(backend):
    """Same values and ``operations``; the ladder is off, the memo on."""
    rng = random.Random(512)
    modulus = make_modulus(512, rng)
    primes = [generate_prime(512, rng) for _ in range(3)]
    # a link prime is fresh per link: under a repeated one the second
    # batch would be answered by the link memo, not by the tables
    narrow = [generate_prime(32, rng) for _ in range(3)]
    updates = [rng.getrandbits(1024) for _ in range(6)]
    others = [rng.getrandbits(1024) for _ in range(6)]  # one table per base
    seen = {}
    for name in ("python", "openssl"):
        hasher = HomomorphicHasher(
            modulus=modulus, backend=resolve_backend(name)
        )
        values = [hasher.hash(u, p) for u in updates for p in primes]
        values += [hasher.hash(u, p) for u in updates[:2] for p in primes]
        values += hasher.hash_many(updates, primes[0])
        for prime in narrow:  # the narrow tables stay on under openssl
            values += hasher.hash_many(others, prime)
        lifted = [
            hasher.rekey(values[i], primes[1] * primes[2]) for i in (0, 3, 0)
        ]
        values += lifted + [hasher.combine(lifted)]
        stats = hasher.cache_stats()
        assert hasher.operations == sum(stats[bucket] for bucket in BUCKETS)
        seen[name] = (values, hasher.operations, stats)
    assert seen["python"][:2] == seen["openssl"][:2]
    python_stats, openssl_stats = seen["python"][2], seen["openssl"][2]
    assert openssl_stats["memo_hits"] == python_stats["memo_hits"] > 0
    # Narrow-prime hashes read tables on both; wide ones do so only
    # where the ladder runs, and are cold native calls under openssl.
    assert openssl_stats["fixed_base_hits"] == len(others)
    assert python_stats["fixed_base_hits"] > len(others)
    assert openssl_stats["cold_powmods"] > python_stats["cold_powmods"]
