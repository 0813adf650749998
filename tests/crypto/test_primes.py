"""Unit and property tests for prime generation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes as primes_module
from repro.crypto.primes import (
    SMALL_PRIMES,
    PrimePool,
    _sieve_small_primes,
    generate_distinct_primes,
    generate_prime,
    is_prime,
    next_prime,
    product,
)

KNOWN_PRIMES = [2, 3, 5, 7, 11, 101, 7919, 104729, 2**61 - 1]
KNOWN_COMPOSITES = [0, 1, 4, 6, 9, 100, 7917, 2**61 - 3, 561, 41041, 825265]
# 561, 41041, 825265 are Carmichael numbers: Fermat pseudoprimes to every
# coprime base, the classic trap for weak primality tests.


def test_small_prime_table_starts_correctly():
    assert SMALL_PRIMES[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


@pytest.mark.parametrize("n", KNOWN_PRIMES)
def test_known_primes_pass(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", KNOWN_COMPOSITES)
def test_known_composites_fail(n):
    assert not is_prime(n)


def test_negative_numbers_are_not_prime():
    assert not is_prime(-7)


def test_is_prime_matches_sieve_below_10000():
    sieve = bytearray([1]) * 10000
    sieve[0] = sieve[1] = 0
    for i in range(2, 100):
        if sieve[i]:
            for j in range(i * i, 10000, i):
                sieve[j] = 0
    for n in range(10000):
        assert is_prime(n) == bool(sieve[n]), n


@pytest.mark.parametrize("bits", [8, 16, 64, 128, 512])
def test_generate_prime_has_requested_bit_length(bits):
    rng = random.Random(42)
    p = generate_prime(bits, rng)
    assert p.bit_length() == bits
    assert is_prime(p)


def test_generate_prime_rejects_tiny_sizes():
    with pytest.raises(ValueError):
        generate_prime(1, random.Random(0))


def test_generate_prime_two_bits():
    rng = random.Random(7)
    assert generate_prime(2, rng) in (2, 3)


def test_generate_prime_is_deterministic_under_seed():
    a = generate_prime(128, random.Random(123))
    b = generate_prime(128, random.Random(123))
    assert a == b


def test_generate_distinct_primes_are_distinct():
    rng = random.Random(5)
    primes = generate_distinct_primes(8, 32, rng)
    assert len(primes) == 8
    assert len(set(primes)) == 8
    assert all(is_prime(p) for p in primes)


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(13) == 17
    assert next_prime(7918) == 7919


def test_product():
    assert product([]) == 1
    assert product([7]) == 7
    assert product([2, 3, 5]) == 30


@given(st.integers(min_value=2, max_value=10**6))
@settings(max_examples=200)
def test_miller_rabin_no_false_negatives_on_products(n):
    """A product of two integers >= 2 must never be declared prime."""
    assert not is_prime(n * (n + 1))


@given(st.integers(min_value=0, max_value=2**48))
@settings(max_examples=100)
def test_next_prime_is_prime_and_greater(n):
    p = next_prime(n)
    assert p > n
    assert is_prime(p)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_generated_primes_are_coprime_pairwise(data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    primes = generate_distinct_primes(4, 48, rng)
    import math

    for i in range(4):
        for j in range(i + 1, 4):
            assert math.gcd(primes[i], primes[j]) == 1


# ---------------------------------------------------------------------------
# PrimePool: the sieve-windowed batch generator of the round hot path.
# ---------------------------------------------------------------------------


class TestPrimePool:
    def test_pooled_primes_are_prime(self):
        pool = PrimePool(32, random.Random(123))
        for p in pool.take_many(300):
            assert is_prime(p), p

    def test_pooled_primes_are_distinct(self):
        pool = PrimePool(24, random.Random(9))
        drawn = pool.take_many(500)
        assert len(set(drawn)) == len(drawn)

    def test_reproducible_under_fixed_seed(self):
        first = PrimePool(32, random.Random(42)).take_many(100)
        second = PrimePool(32, random.Random(42)).take_many(100)
        assert first == second

    def test_different_seeds_diverge(self):
        a = PrimePool(32, random.Random(1)).take_many(20)
        b = PrimePool(32, random.Random(2)).take_many(20)
        assert a != b

    @pytest.mark.parametrize("bits", [8, 16, 32, 64, 128])
    def test_bit_length_and_top_bits(self, bits):
        """Top two bits set, like generate_prime, so products of two
        primes reach full modulus width."""
        pool = PrimePool(bits, random.Random(5))
        for p in pool.take_many(10):
            assert p.bit_length() == bits
            assert p & (1 << (bits - 2)), "second-highest bit must be set"
            assert p % 2 == 1

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            PrimePool(4, random.Random(0))
        with pytest.raises(ValueError):
            PrimePool(32, random.Random(0), window=0)

    def test_survivors_have_no_small_factors(self):
        """The wheel must actually strip small-prime multiples: every
        candidate that reached Miller-Rabin is coprime to the wheel."""
        pool = PrimePool(32, random.Random(3), window=64)
        pool.take_many(50)
        # Candidates tested should be well below the raw window count:
        # ~4/5 of odd numbers have a factor below 1000.
        assert 0 < pool.candidates_tested < pool.generated * 12

    def test_large_primes(self):
        pool = PrimePool(256, random.Random(77))
        p, q = pool.take_many(2)
        assert p != q
        assert is_prime(p) and is_prime(q)
        assert (p * q).bit_length() == 512

    def test_exhaustion_raises_instead_of_hanging(self):
        """Only 11 eligible 8-bit primes exist (top two bits set); the
        12th draw must fail loudly, not spin forever."""
        pool = PrimePool(8, random.Random(0))
        drawn = pool.take_many(11)
        assert len(set(drawn)) == 11
        with pytest.raises(RuntimeError, match="exhausted"):
            pool.take()


# ---------------------------------------------------------------------------
# The {2, 7, 61} witness row: 32-bit simulation primes have their top two
# bits set, so they sit just above the {2, 3, 5, 7} bound and used to pay
# the nine-witness row.
# ---------------------------------------------------------------------------

_NINE_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
_JAESCHKE_BOUND = 4_759_123_141


def _verdict(n, witnesses):
    """Miller-Rabin on ``n`` against exactly ``witnesses``."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    return not any(
        primes_module._miller_rabin_witness(n, a, d, r) for a in witnesses
    )


def _trial_division_is_prime(n, small=_sieve_small_primes(69_000)):
    return all(n % p for p in small if p * p <= n)


def test_32_bit_sim_primes_take_the_three_witness_row():
    rows = dict(primes_module._DETERMINISTIC_WITNESSES)
    assert rows[_JAESCHKE_BOUND] == (2, 7, 61)
    bounds = [bound for bound, _ in primes_module._DETERMINISTIC_WITNESSES]
    assert bounds == sorted(bounds)
    lowest, highest = (0b11 << 30) | 1, (1 << 32) - 1
    assert 3_215_031_751 <= lowest and highest < _JAESCHKE_BOUND


def test_three_witness_row_agrees_with_the_old_row_on_sieve_windows():
    """Every odd candidate of a few 256-wide windows, sieved or not."""
    rng = random.Random(2016)
    for _ in range(6):
        base = rng.getrandbits(32) | (0b11 << 30) | 1
        for n in range(base, min(base + 512, 1 << 32), 2):
            truth = _trial_division_is_prime(n)
            assert _verdict(n, (2, 7, 61)) == truth, n
            assert _verdict(n, _NINE_WITNESSES) == truth, n
            assert primes_module._miller_rabin(n, None) == truth, n


def test_three_witness_row_rejects_strong_pseudoprimes_below_its_bound():
    """Composites that fool some of the bases 2, 3, 5, 7 — including
    3,215,031,751, which fools all four — fool neither row."""
    fooled = [3_215_031_751]  # = 151 * 751 * 28351, psi_4
    # (k + 1)(2k + 1) with both factors prime is the classic family of
    # strong pseudoprimes; keep those inside the row's range that fool
    # at least one of the old small bases.
    for k in range(40_000, 48_800, 2):
        p, q = k + 1, 2 * k + 1
        n = p * q
        if not 3_215_031_751 <= n < _JAESCHKE_BOUND:
            continue
        if not (_trial_division_is_prime(p) and _trial_division_is_prime(q)):
            continue
        if any(_verdict(n, (a,)) for a in (2, 3, 5, 7)):
            fooled.append(n)
    assert len(fooled) > 10
    assert _verdict(3_215_031_751, (2, 3, 5, 7))
    for n in fooled:
        assert not _verdict(n, (2, 7, 61)), n
        assert not _verdict(n, _NINE_WITNESSES), n
        assert not primes_module._miller_rabin(n, None), n


def test_new_row_moves_no_prime_and_no_rng_draw(monkeypatch):
    new_rng = random.Random(77)
    new = PrimePool(32, new_rng).take_many(400)
    monkeypatch.setattr(
        primes_module,
        "_DETERMINISTIC_WITNESSES",
        tuple(
            row
            for row in primes_module._DETERMINISTIC_WITNESSES
            if row[0] != _JAESCHKE_BOUND
        ),
    )
    old_rng = random.Random(77)
    old = PrimePool(32, old_rng).take_many(400)
    assert new == old
    assert new_rng.getstate() == old_rng.getstate()
