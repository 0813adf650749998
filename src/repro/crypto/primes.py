"""Prime number generation for PAG's homomorphic hashing keys.

PAG (Decouchant et al., ICDCS 2016, section III) assumes that "nodes can
generate prime numbers".  Every node, at every round, draws one fresh
prime per predecessor; the *product* of those primes becomes the round
key ``K(R, B)`` used in the homomorphic forwarding checks (section IV-B).

This module provides a deterministic Miller-Rabin primality test (exact
for 64-bit inputs, probabilistic with a negligible error bound above)
and seeded random prime generation so that simulations are reproducible.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Iterable, List, Optional, Set

__all__ = [
    "is_prime",
    "generate_prime",
    "generate_distinct_primes",
    "next_prime",
    "product",
    "PrimePool",
    "SMALL_PRIMES",
]

# Primes below 1000, used for cheap trial division before Miller-Rabin.
SMALL_PRIMES: List[int] = []


def _sieve_small_primes(limit: int = 1000) -> List[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(limit ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


SMALL_PRIMES = _sieve_small_primes()

# Deterministic Miller-Rabin witness sets.  Testing against these bases
# is *exact* (no false positives) for all n below the listed bounds;
# see Sinclair / Jaeschke and the references collected at
# https://miller-rabin.appspot.com/.
_DETERMINISTIC_WITNESSES = (
    (341531, (9345883071009581737,)),
    (1050535501, (336781006125, 9639812373923155)),
    (3215031751, (2, 3, 5, 7)),
    # Jaeschke: {2, 7, 61} is exact below 4,759,123,141 — every 32-bit
    # simulation prime (top two bits set, so >= 3,221,225,472) lands
    # here instead of paying the nine-witness row.
    (4759123141, (2, 7, 61)),
    (3825123056546413051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318665857834031151167461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_PROBABILISTIC_ROUNDS = 40


def _miller_rabin_witness(n: int, a: int, d: int, r: int) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _miller_rabin(n: int, rng: Optional[random.Random]) -> bool:
    """Miller-Rabin stage only — callers must have trial-divided first."""
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, witnesses in _DETERMINISTIC_WITNESSES:
        if n < bound:
            return not any(
                _miller_rabin_witness(n, a, d, r) for a in witnesses
            )
    rng = rng if rng is not None else random.Random(n & 0xFFFFFFFF)
    bases = (rng.randrange(2, n - 1) for _ in range(_PROBABILISTIC_ROUNDS))
    return not any(_miller_rabin_witness(n, a, d, r) for a in bases)


def is_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Primality test: exact below ~3.3e23, Miller-Rabin above.

    Above the deterministic range the error probability is at most
    ``4**-40``, far below any failure mode relevant to a protocol
    simulation.

    Args:
        n: candidate integer.
        rng: source of randomness for the probabilistic bases; a private
            deterministic generator is used when omitted.
    """
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return _miller_rabin(n, rng)


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The paper sets the size of the per-predecessor primes to 512 bits
    (section VII-A).  The top two bits are forced to one so that the
    product of two such primes reaches the full RSA modulus width, and
    the bottom bit is forced odd.

    Args:
        bits: bit length of the prime, at least 2.
        rng: seeded random source (simulations must be reproducible).
    """
    if bits < 2:
        raise ValueError(f"cannot generate a prime of {bits} bits")
    if bits == 2:
        return rng.choice((2, 3))
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_prime(candidate, rng):
            return candidate


def generate_distinct_primes(
    count: int, bits: int, rng: random.Random
) -> List[int]:
    """Generate ``count`` pairwise-distinct primes of ``bits`` bits.

    A node with ``fp`` predecessors draws one prime per predecessor each
    round; distinctness keeps each link's hash key independent.
    """
    primes: List[int] = []
    seen = set()
    while len(primes) < count:
        p = generate_prime(bits, rng)
        if p not in seen:
            seen.add(p)
            primes.append(p)
    return primes


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def product(values: Iterable[int]) -> int:
    """Product of an iterable of integers (1 for an empty iterable).

    Used for the round keys ``K(R, B) = prod_i p_i`` of section V-A.
    """
    result = 1
    for value in values:
        result *= value
    return result


class PrimePool:
    """Amortised prime generation: sieve a window, test the survivors.

    Every node draws one fresh prime per predecessor per round
    (section V-A), so prime generation sits on the round hot path.
    :func:`generate_prime` pays full trial division on every random
    candidate; the pool instead draws one random window base per refill
    and crosses out all small-prime multiples across the whole window in
    bulk (a segmented sieve), so only the ~1/4 of candidates that
    survive the wheel reach Miller-Rabin — and those skip trial division
    entirely, since the sieve already performed it.

    The pool consumes randomness only from its own ``rng`` and in a
    fixed order, so draws are reproducible under a fixed seed.  Primes
    returned by :meth:`take` are pairwise distinct for the lifetime of
    the pool.

    Attributes:
        bits: bit length of generated primes; the top two bits are set
            (like :func:`generate_prime`) so prime products reach full
            modulus width.
        window: candidates sieved per refill (odd numbers, so a window
            spans ``2 * window`` integers).
    """

    def __init__(
        self, bits: int, rng: random.Random, window: int = 256
    ) -> None:
        if bits < 8:
            raise ValueError("prime pool needs at least 8-bit primes")
        if window < 1:
            raise ValueError("window must be positive")
        self.bits = bits
        self.window = window
        self._rng = rng
        self._ready: Deque[int] = deque()
        self._seen: Set[int] = set()
        self.generated = 0
        self.candidates_tested = 0

    #: Refills that yield no new prime before declaring exhaustion.  At
    #: practical sizes (>= 32 bits) tens of millions of eligible primes
    #: exist and this bound is unreachable; it exists so degenerate
    #: widths fail loudly instead of spinning forever once every
    #: eligible prime has been handed out.
    _MAX_BARREN_REFILLS = 64

    def take(self) -> int:
        """Return the next pooled prime, refilling when the pool runs dry.

        Raises:
            RuntimeError: when the distinct-prime space for this bit
                width is exhausted (only reachable at tiny widths).
        """
        barren = 0
        while not self._ready:
            before = len(self._seen)
            self._refill()
            if len(self._seen) == before:
                barren += 1
                if barren >= self._MAX_BARREN_REFILLS:
                    raise RuntimeError(
                        f"prime pool exhausted: all distinct {self.bits}-bit "
                        f"primes ({len(self._seen)}) have been drawn"
                    )
            else:
                barren = 0
        prime = self._ready.popleft()
        self.generated += 1
        return prime

    def take_many(self, count: int) -> List[int]:
        return [self.take() for _ in range(count)]

    def _refill(self) -> None:
        bits = self.bits
        base = self._rng.getrandbits(bits)
        base |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        span = self.window
        top = (1 << bits) - 1
        if base + 2 * (span - 1) > top:
            span = (top - base) // 2 + 1
        # survivors[k] == 0 <=> base + 2k has no small-prime factor.
        survivors = bytearray(span)
        for p in SMALL_PRIMES:
            if p == 2:
                continue  # all candidates are odd
            # Smallest k >= 0 with base + 2k ≡ 0 (mod p); the modular
            # inverse of 2 mod an odd p is (p + 1) // 2.
            k = (-base % p) * ((p + 1) // 2) % p
            if base + 2 * k == p:
                k += p  # p itself is prime, not a composite multiple
            if k < span:
                run = len(range(k, span, p))
                survivors[k::p] = b"\x01" * run
        for k in range(span):
            if survivors[k]:
                continue
            candidate = base + 2 * k
            self.candidates_tested += 1
            if _miller_rabin(candidate, self._rng):
                if candidate not in self._seen:
                    self._seen.add(candidate)
                    self._ready.append(candidate)
