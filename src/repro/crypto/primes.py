"""Prime number generation for PAG's homomorphic hashing keys.

PAG (Decouchant et al., ICDCS 2016, section III) assumes that "nodes can
generate prime numbers".  Every node, at every round, draws one fresh
prime per predecessor; the *product* of those primes becomes the round
key ``K(R, B)`` used in the homomorphic forwarding checks (section IV-B).

This module provides a deterministic Miller-Rabin primality test (exact
below 3.18e23, probabilistic with a negligible error bound above) and
seeded random prime generation so that simulations are reproducible.

Two questions, two testers
--------------------------
Above the deterministic range the number of Miller-Rabin rounds depends
on who chose the number.

*"Is this number, which someone handed me, prime?"* --
:func:`is_prime`, :func:`next_prime`, the hasher's prime-modulus
rejection.  The input may be adversarial, so only the worst-case bound
applies: a composite passes one random-base round with probability at
most 1/4 (Rabin), hence ``_PROBABILISTIC_ROUNDS = 40`` rounds and
``4**-40 = 2**-80``.

*"Find me a prime among candidates I drew myself"* --
:class:`PrimePool` and :func:`generate_prime` (per-link primes, modulus
halves, RSA key halves).  The candidates come from the caller's own
seeded RNG, and almost every composite has far fewer strong liars than
the worst case.  Damgard, Landrock and Pomerance ("Average case error
estimates for the strong probable prime test", Math. Comp. 61, 1993;
Handbook of Applied Cryptography, Fact 4.48) bound ``p(k, t)``, the
probability that an odd ``k``-bit integer drawn uniformly at random is
composite given that it passed ``t`` random-base rounds:

* ``k**1.5 * 2**t * t**-0.5 * 4**(2 - sqrt(t*k))`` for ``t = 2, k >= 88``
  or ``3 <= t <= k/9, k >= 21``;
* ``7/20 * k * 2**(-5t) + 1/7 * k**3.75 * 2**(-k/2 - 2t)
  + 12 * k * 2**(-k/4 - 3t)`` for ``k/9 <= t <= k/4, k >= 21``;
* ``1/7 * k**3.75 * 2**(-k/2 - 2t)`` for ``t >= k/4, k >= 21``.

HAC Table 4.4 lists the smallest ``t`` with ``p(k, t) <= 2**-80`` at
twelve widths (27 rounds at 100 bits, 6 at 450, 2 at 1300).

The search here is not quite the experiment that bound describes, so
it is charged a factor.  Write ``a(n)`` for the fraction of bases that
are strong liars for ``n``, ``M`` for the odd ``k``-bit integers,
``S = sum of a(n)**t over the composites of M`` and ``P`` for the number
of primes in ``M``; the bound says ``S / (S + P) <= p(k, t)``, i.e.
``S <= P * p / (1 - p)``.  Both search routines force the top two bits,
so their candidates live in the upper half ``X`` of ``M``
(``|X| = 2**(k-3)``), and each candidate examined equals any given
``n`` of ``X`` with probability at most ``1 / |X|``:
:func:`generate_prime` draws them uniformly and independently, the pool
draws a uniform window start ``n0`` and examines ``n0 + 2j``.  The pool tests
*every* sieve survivor of its window and queues every one that passes
-- it never stops at the first hit -- so no stopping rule skews those
marginals.  (Stopping at the first hit is the classical incremental
search; it over-samples numbers that follow long prime gaps, and
Brandt and Damgard, "On generation of probable primes by incremental
search", CRYPTO '92, pay a polynomial factor in ``k`` for it.  Testing
the whole window reduces the factor to the union bound below.)  The
bases are drawn from ``[2, n-2]``, which leaves out the two trivial
liars, and the sieve only removes composites; both help.  Hence:

* per returned number: the expected count of composites returned per
  candidate examined is at most ``S / |X|`` and that of primes at least
  ``(P_X - window) / |X|`` with ``P_X`` the primes of ``X``, so the
  share of returned numbers that are composite is at most
  ``S / P_X <= (P / P_X) * p / (1 - p) < 2.1 * p(k, t)`` (``P / P_X``
  is 2 by the prime number theorem and below 2.03 for ``k >= 79`` by
  Dusart's explicit bounds);
* per window: a given ``n`` lies in the window for at most ``window``
  of the ``|X|`` starts, so the probability that a refill queues any
  composite at all is at most ``window * S / |X|
  <= 8 * window * pi(2**k) / 2**k * p / (1 - p)
  < 14.5 * window / k * p(k, t)`` (Rosser-Schoenfeld:
  ``pi(x) < 1.25506 x / ln x``).

``_search_rounds`` therefore takes the Table 4.4 row at or below the
width and adds ``_SEARCH_MARGIN_ROUNDS = 2``.  With the default window
of 256 the larger of the two factors is ``2**5.2`` at 100 bits,
``2**2.9`` at 512 and ``2**1.5`` at 1300; two more rounds buy ``2**-4``
at 100 bits, ``2**-15`` at 512 and ``2**-40`` at 1300, and
``tests/crypto/test_primes.py`` evaluates the three inequalities above
at every width from 79 to 8192 bits to check that factor times bound
stays below ``2**-80`` (tightest at 100 bits, ``2**-80.7``; the bare
table, read as a step function, would exceed ``2**-80`` between 163 and
171 bits).  Below 100 bits the search keeps all 40 rounds (the third
inequality gives ``2**-98`` at 79 bits), and below 3.18e23 both testers
use the same deterministic witness rows, so nothing differs at
simulation widths.  Every primality decision on either path is a
Miller-Rabin decision; only the number of rounds differs.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import deque
from functools import lru_cache
from math import prod
from typing import Callable, Deque, Iterable, List, Optional, Set, Tuple

from repro.crypto.backend import default_backend

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

#: Worst-case round count: a composite chosen by someone else passes a
#: round with probability at most 1/4, so 40 rounds give 4**-40 = 2**-80.
_PROBABILISTIC_ROUNDS = 40

#: Widest bit length whose every value the deterministic rows decide.
_DETERMINISTIC_BITS = _DETERMINISTIC_WITNESSES[-1][0].bit_length() - 1

#: HAC Table 4.4: (width, smallest t with p(width, t) <= 2**-80), widest
#: first.  The module docstring derives the margin added on top.
_HAC_TABLE_4_4 = (
    (1300, 2),
    (850, 3),
    (650, 4),
    (550, 5),
    (450, 6),
    (400, 7),
    (350, 8),
    (300, 9),
    (250, 12),
    (200, 15),
    (150, 18),
    (100, 27),
)
_SEARCH_MARGIN_ROUNDS = 2

_PowMod = Callable[[int, int, int], int]


def _search_rounds(bits: int) -> int:
    """Miller-Rabin rounds for a self-drawn ``bits``-bit candidate.

    Average-case count (module docstring): the Table 4.4 row at or below
    ``bits`` plus the search margin, and the worst-case count below the
    table's first row.
    """
    for width, rounds in _HAC_TABLE_4_4:
        if bits >= width:
            return rounds + _SEARCH_MARGIN_ROUNDS
    return _PROBABILISTIC_ROUNDS


def _miller_rabin_witness(
    n: int, a: int, d: int, r: int, powmod: _PowMod = pow
) -> bool:
    """Return True if ``a`` witnesses that ``n`` is composite."""
    a %= n
    if a == 0:
        return False
    x = powmod(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return False
    return True


def _miller_rabin_tests(
    n: int,
    rng: Optional[random.Random],
    rounds: int,
    powmod: _PowMod = pow,
) -> Tuple[bool, int]:
    """Miller-Rabin stage only: ``(probably prime, witnesses tried)``.

    Callers must have trial-divided or sieved first.  Below 3.18e23 the
    deterministic rows decide and ``rng``, ``rounds`` and ``powmod`` are
    not touched; above, up to ``rounds`` random bases are drawn from
    ``rng`` and exponentiated through ``powmod``.
    """
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, witnesses in _DETERMINISTIC_WITNESSES:
        if n < bound:
            for tried, a in enumerate(witnesses, 1):
                if _miller_rabin_witness(n, a, d, r):
                    return False, tried
            return True, len(witnesses)
    rng = rng if rng is not None else random.Random(n & 0xFFFFFFFF)
    for tried in range(1, rounds + 1):
        if _miller_rabin_witness(n, rng.randrange(2, n - 1), d, r, powmod):
            return False, tried
    return True, rounds


def _miller_rabin(n: int, rng: Optional[random.Random]) -> bool:
    """Worst-case tester, Miller-Rabin stage: 40 rounds, builtin ``pow``."""
    return _miller_rabin_tests(n, rng, _PROBABILISTIC_ROUNDS)[0]


def _small_prime_verdict(n: int) -> Optional[bool]:
    """What ``SMALL_PRIMES`` alone decide about ``n``; None if nothing."""
    if n < 2:
        return False
    for p in SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return None


def is_prime(n: int, rng: Optional[random.Random] = None) -> bool:
    """Primality test for a number someone else chose.

    Exact below ~3.18e23.  Above, 40 random-base Miller-Rabin rounds:
    whatever ``n`` is, a composite is accepted with probability at most
    ``4**-40`` (the worst-case bound, which is the only one that holds
    for an input the caller did not draw).

    Args:
        n: candidate integer.
        rng: source of randomness for the probabilistic bases; a private
            deterministic generator is used when omitted.
    """
    verdict = _small_prime_verdict(n)
    if verdict is None:
        verdict = _miller_rabin(n, rng)
    return verdict


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime of exactly ``bits`` bits.

    The paper sets the size of the per-predecessor primes to 512 bits
    (section VII-A).  The top two bits are forced to one so that the
    product of two such primes reaches the full RSA modulus width, and
    the bottom bit is forced odd.

    The candidates are this function's own uniform draws, so above the
    deterministic range they get the search tester: ``_search_rounds``
    rounds (8 at 512 bits, 5 at 1024) keep the chance that the returned
    number is composite below ``2**-80`` (module docstring).

    Args:
        bits: bit length of the prime, at least 2.
        rng: seeded random source (simulations must be reproducible).
    """
    if bits < 2:
        raise ValueError(f"cannot generate a prime of {bits} bits")
    if bits == 2:
        return rng.choice((2, 3))
    rounds = _search_rounds(bits)
    powmod = default_backend().powmod
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        verdict = _small_prime_verdict(candidate)
        if verdict is None:
            verdict, _ = _miller_rabin_tests(candidate, rng, rounds, powmod)
        if verdict:
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


#: Sieve bounds of the pool.  Crossing a prime p out of a 256-candidate
#: window costs ~0.5 us while it strides (p <= 2 * window: 96 primes) and
#: ~0.08 us above that (a residue of the base's remainder modulo the
#: product of p's group, a mark on the one window in p / 512 it hits),
#: and spares each of the ~25 survivors an exponentiation with
#: probability 1/p.  That one costs 30 / 100 / 600 / 3,250 us at 128 /
#: 256 / 512 / 1024 bits under builtin ``pow`` and 18 / 53 / 274 us at
#: 256 / 512 / 1024 under libcrypto's
#: ``BN_mod_exp``, which ``auto`` picks wherever it loads
#: (``.github/scripts/ci_prime_search.py`` is the stopwatch).  At the
#: paper's 512 bits the two meet near ``p = 2**16.7`` for ``pow`` and
#: ``2**13`` for libcrypto, whose measured cost a window is flat from
#: 2**13 to 2**15 and 7% higher at 2**16.  The bound stays where ``pow``
#: put it, ``bits**2 / 4`` capped at 2**16 (a 2 ms table): every backend
#: must draw the same primes, so there is one depth, and moving it
#: changes which candidates reach Miller-Rabin, hence the RNG stream and
#: every prime above 78 bits of every seed.  In the deterministic-witness
#: range the bound stays at ``SMALL_PRIMES``: simulation runs must not
#: move.
_SHALLOW_SIEVE_LIMIT = 1000
_DEEP_SIEVE_LIMIT = 1 << 16


def _sieve_limit(bits: int) -> int:
    if bits <= _DETERMINISTIC_BITS:
        return _SHALLOW_SIEVE_LIMIT
    return min(_DEEP_SIEVE_LIMIT, bits * bits // 4)


#: Sieve primes per remainder group: a 512-bit window base is reduced
#: once modulo the group's ~180-bit product, and each prime of the group
#: then divides that short remainder.  Per window of the 6,445 primes of
#: a 512-bit sieve: 0.73 ms one residue of the base per prime, 0.65 ms
#: in groups of 8, 0.53 ms of 12, 0.54 ms of 16; no change at 32 bits.
_SIEVE_GROUP = 12


@lru_cache(maxsize=None)
def _sieve_table(
    limit: int, window: int
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, Tuple[int, ...]], ...]]:
    """Odd primes up to ``limit``, split at ``2 * window`` and shared by
    every pool of that width and window (all candidates are odd, so 2 is
    left out): those that can hit a window more than once, and the rest
    as ``(product, primes)`` groups of ``_SIEVE_GROUP``.
    """
    odd = _sieve_small_primes(limit)[1:]
    cut = bisect_right(odd, 2 * window)
    groups = (
        tuple(odd[i : i + _SIEVE_GROUP])
        for i in range(cut, len(odd), _SIEVE_GROUP)
    )
    return tuple(odd[:cut]), tuple((prod(g), g) for g in groups)


def _sieve_window(base: int, span: int, bits: int, window: int) -> bytearray:
    """Cross the sieve's multiples out of ``base, base + 2, ...`` (``span``
    odd candidates, ``span <= window``): ``result[k] == 0`` iff
    ``base + 2k`` has no factor in the sieve or is one of its primes.
    """
    limit = _sieve_limit(bits)
    # The table is built by the first refill that needs it, so building
    # a session never pays for the deep one.
    striding, groups = _sieve_table(limit, window)
    if base <= limit:
        # The window can hold a sieve prime, which must survive; only
        # the striding pass steps over it.
        striding += tuple(p for _, group in groups for p in group)
        groups = ()
    crossed = bytearray(span)
    negated = -base
    for p in striding:
        # Smallest k >= 0 with base + 2k = 0 (mod p): half of whichever
        # of t, t + p is even.
        t = negated % p
        k = (t + p if t & 1 else t) >> 1
        if p >= base:
            k += p  # base + 2k is p itself, not a composite multiple
        if k < span:
            crossed[k::p] = b"\x01" * len(range(k, span, p))
    # A prime above 2 * window divides at most one candidate, at k = t / 2
    # when that is a whole number inside the window; t is -base mod p,
    # taken from -base mod the product of p's group.
    twice = 2 * span
    for group_product, group in groups:
        for t in map((negated % group_product).__mod__, group):
            if t < twice and not t & 1:
                crossed[t >> 1] = 1
    return crossed


class PrimePool:
    """Amortised prime generation: sieve a window, test the survivors.

    Every node draws one fresh prime per predecessor per round
    (section V-A), so prime generation sits on the round hot path.
    :func:`generate_prime` pays full trial division on every random
    candidate; the pool instead draws one random window base per refill
    and crosses out all small-prime multiples across the whole window in
    bulk (a segmented sieve), so only the survivors reach Miller-Rabin
    -- 16% of the odd candidates after the primes below 1,000 (32-bit
    simulation primes), 10% after the primes below 2**16 (512-bit paper
    primes; the depth follows the width, see ``_sieve_limit``) -- and
    those skip trial division entirely, since the sieve already
    performed it.  Crossing a 512-bit window is ~1 ms (0.08 us a
    non-striding sieve prime) beside the ~36 exponentiations of its ~25
    survivors: 1.9 ms under libcrypto (53 us each), 22 ms under builtin
    ``pow``.

    The window base is the pool's own uniform draw and every survivor of
    the window is tested, so above the deterministic range the pool uses
    the search tester: ``_search_rounds(bits)`` Miller-Rabin rounds
    (8 at 512 bits) instead of :func:`is_prime`'s worst-case 40, for the
    same ``2**-80`` (module docstring).  The exponentiations of those
    rounds go through the process's crypto backend.

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
        generated: primes handed out.
        candidates_tested: sieve survivors that reached Miller-Rabin.
        witness_tests: Miller-Rabin rounds spent on them (one modular
            exponentiation each).
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
        self._rounds = _search_rounds(bits)
        self._ready: Deque[int] = deque()
        self._seen: Set[int] = set()
        self.generated = 0
        self.candidates_tested = 0
        self.witness_tests = 0

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
        crossed = _sieve_window(base, span, bits, self.window)
        powmod = default_backend().powmod
        for k in range(span):
            if crossed[k]:
                continue
            candidate = base + 2 * k
            self.candidates_tested += 1
            passed, tried = _miller_rabin_tests(
                candidate, self._rng, self._rounds, powmod
            )
            self.witness_tests += tried
            if passed and candidate not in self._seen:
                self._seen.add(candidate)
                self._ready.append(candidate)
