"""Unit and property tests for prime generation."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primes as primes_module
from repro.crypto.backend import (
    Backend,
    available_backends,
    resolve_backend,
)
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

    def test_survivors_have_no_small_factors(self, monkeypatch):
        """The wheel must actually strip small-prime multiples: every
        candidate that reached Miller-Rabin is coprime to the wheel --
        the primes below 1,000 at simulation widths, below 2**16 at the
        paper's 512 bits."""
        reached = []
        tester = primes_module._miller_rabin_tests

        def recording(n, *args):
            reached.append(n)
            return tester(n, *args)

        monkeypatch.setattr(primes_module, "_miller_rabin_tests", recording)
        for bits, limit, count, most in (
            (32, 1000, 50, 12),
            (512, 1 << 16, 3, 40),
        ):
            del reached[:]
            pool = PrimePool(bits, random.Random(3), window=64)
            pool.take_many(count)
            assert len(reached) == pool.candidates_tested
            wheel = _sieve_small_primes(limit)
            for n in reached:
                assert all(n % p for p in wheel), n
            # Measured survivor shares of the odd candidates: 16% after
            # the primes below 1,000, 10% after those below 2**16
            # (Mertens: 2 e^-gamma / ln limit), against a prime density
            # of 2 / (bits ln 2) -- about 2 candidates per 32-bit prime,
            # 18 per 512-bit.
            assert 0 < pool.candidates_tested < len(pool._seen) * most

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


#: First primes, sha256 of all of them and of the RNG state left behind,
#: captured at the commit before the search tester existed (b00240d):
#: (bits, count) -> (head, primes digest, state digest, candidates).
_PARENT_POOL_GOLDEN = {
    (32, 400): (
        [3432174413, 3432174419, 3432174433, 3432174439],
        "13fcf2e1bc4b5939",
        "3f5d3919b20c48f3",
        747,
    ),
    (64, 200): (
        [
            13885389311577346907,
            13885389311577346909,
            13885389311577346919,
            13885389311577346921,
        ],
        "baf2cd7c8dcf155f",
        "217fefa271231212",
        711,
    ),
    # 78 bits is the widest pool the deterministic rows fully cover.
    (78, 50): (
        [
            249607556078638665487183,
            249607556078638665487213,
            249607556078638665487249,
            249607556078638665487277,
        ],
        "336ed614c49e07fe",
        "3f5d3919b20c48f3",
        249,
    ),
}


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


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


@pytest.mark.parametrize("bits, count", sorted(_PARENT_POOL_GOLDEN))
def test_simulation_width_pools_are_frozen(bits, count):
    """Inside the deterministic-witness range the search tester and the
    width-scaled sieve change nothing: same primes, same RNG draws, same
    candidates as before they existed."""
    head, primes_digest, state_digest, candidates = _PARENT_POOL_GOLDEN[
        bits, count
    ]
    rng = random.Random(77)
    pool = PrimePool(bits, rng)
    drawn = pool.take_many(count)
    assert drawn[: len(head)] == head
    assert _digest(drawn) == primes_digest
    assert _digest(rng.getstate()) == state_digest
    assert pool.candidates_tested == candidates
    assert primes_module._sieve_limit(bits) == 1000


def test_generate_prime_is_frozen_at_simulation_widths():
    for bits, head, digest, after in (
        (32, 3244611641, "93b9f4e7e6359ea3", 2533014395),
        (64, 15837184877706723481, "aa9f9ffc00985669", 1045668267),
    ):
        rng = random.Random(5)
        drawn = [generate_prime(bits, rng) for _ in range(20)]
        assert drawn[0] == head
        assert _digest(drawn) == digest
        assert rng.getrandbits(32) == after


def test_serial_simulation_never_builds_the_deep_sieve(monkeypatch):
    from repro.api import run_scenario

    limits = []
    sieve = primes_module._sieve_small_primes

    def recording(limit=1000):
        limits.append(limit)
        return sieve(limit)

    primes_module._odd_primes_upto.cache_clear()
    monkeypatch.setattr(primes_module, "_sieve_small_primes", recording)
    try:
        result = run_scenario("fig9", nodes=14, rounds=6)
        assert result.crypto_hashes > 0
        assert limits and max(limits) <= 1000
        PrimePool(512, random.Random(1)).take()
        assert max(limits) == 1 << 16
    finally:
        primes_module._odd_primes_upto.cache_clear()


# ---------------------------------------------------------------------------
# The search tester: average-case round counts on self-drawn candidates.
# ---------------------------------------------------------------------------

_HAC_TABLE_4_4 = {
    100: 27,
    150: 18,
    200: 15,
    250: 12,
    300: 9,
    350: 8,
    400: 7,
    450: 6,
    550: 5,
    650: 4,
    850: 3,
    1300: 2,
}
_MARGIN = 2


def _dlp_log2(k, t):
    """log2 of the tightest applicable Damgard-Landrock-Pomerance bound
    on p(k, t) (HAC Fact 4.48 (ii)-(iv)); 0 when none applies."""
    best = 0.0
    log_k = math.log2(k)
    if (t == 2 and k >= 88) or (3 <= t <= k / 9 and k >= 21):
        best = min(
            best,
            1.5 * log_k + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k)),
        )
    if k >= 21 and k / 9 <= t <= k / 4:
        best = min(
            best,
            math.log2(
                7 / 20 * k * 2.0 ** (-5 * t)
                + 1 / 7 * k**3.75 * 2.0 ** (-k / 2 - 2 * t)
                + 12 * k * 2.0 ** (-k / 4 - 3 * t)
            ),
        )
    if k >= 21 and t >= k / 4:
        best = min(best, math.log2(1 / 7) + 3.75 * log_k - k / 2 - 2 * t)
    return best


def _search_factor_log2(k, window=256):
    """The larger of the two factors the module docstring derives: 2.1
    per returned number, 8 * 1.25506 / ln 2 * window / k per window."""
    return math.log2(max(2.1, 8 * 1.25506 / math.log(2) * window / k))


def test_dlp_transcription_reproduces_hac_table_4_4():
    """The inequalities as typed above give back the published table, so
    the checks below test the module and not a typo."""
    for k, rounds in _HAC_TABLE_4_4.items():
        assert _dlp_log2(k, rounds) <= -80, k
        assert _dlp_log2(k, rounds - 1) > -80, k


def test_search_rounds_are_the_table_plus_the_margin():
    search_rounds = primes_module._search_rounds
    assert primes_module._SEARCH_MARGIN_ROUNDS == _MARGIN
    assert dict(primes_module._HAC_TABLE_4_4) == _HAC_TABLE_4_4
    for k, rounds in _HAC_TABLE_4_4.items():
        assert search_rounds(k) == rounds + _MARGIN
        assert search_rounds(k - 1) >= search_rounds(k)
    assert search_rounds(512) == 8
    assert search_rounds(1024) == 5
    for k in range(8, 100):
        assert search_rounds(k) == primes_module._PROBABILISTIC_ROUNDS == 40
    counts = [search_rounds(k) for k in range(8, 4097)]
    assert counts == sorted(counts, reverse=True)
    assert counts[-1] == 2 + _MARGIN


def test_search_error_stays_below_two_to_the_minus_80_at_every_width():
    """Factor times bound, recomputed here: per returned prime and per
    256-candidate window, from the first probabilistic width up."""
    search_rounds = primes_module._search_rounds
    assert primes_module._DETERMINISTIC_BITS == 78
    worst = max(
        _dlp_log2(k, search_rounds(k)) + _search_factor_log2(k)
        for k in range(79, 8193)
    )
    assert worst <= -80
    assert worst > -81  # tightest at 100 bits: the margin is not slack
    # The bare table read as a step function would not do: it is only
    # stated at its twelve widths.
    assert _dlp_log2(165, _HAC_TABLE_4_4[150]) > -80


def _search_verdict(n, rng):
    return primes_module._miller_rabin_tests(
        n, rng, primes_module._search_rounds(n.bit_length())
    )[0]


@pytest.mark.parametrize("bits", [128, 256, 512])
def test_search_path_primes_pass_the_worst_case_tester(bits):
    """Independent check: whatever the reduced-round search returns, the
    unchanged 40-round is_prime accepts."""
    pool = PrimePool(bits, random.Random(bits))
    rng = random.Random(bits + 1)
    found = pool.take_many(6) + [generate_prime(bits, rng) for _ in range(3)]
    for p in found:
        assert p.bit_length() == bits
        assert is_prime(p, random.Random(p & 0xFFFF)), p


def test_search_tester_rejects_semiprimes_and_wide_carmichael_numbers():
    rng = random.Random(2016)
    composites = []
    for _ in range(3):
        p, q = generate_prime(256, rng), generate_prime(256, rng)
        composites.append(p * q)
    # Chernick: (6k+1)(12k+1)(18k+1) is a Carmichael number when all
    # three factors are prime -- a Fermat pseudoprime to every coprime
    # base, with one base in eight a strong liar for odd k.
    k = 1 << 40
    while len(composites) < 6:
        k += 1
        factors = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        if all(is_prime(f) for f in factors):
            n = math.prod(factors)
            assert pow(2, n - 1, n) == 1
            composites.append(n)
    bound = primes_module._DETERMINISTIC_WITNESSES[-1][0]
    for n in composites:
        assert n > bound
        for seed in range(5):
            assert not _search_verdict(n, random.Random(seed)), n
            assert not is_prime(n, random.Random(seed)), n


def test_witness_tests_count_is_pinned_at_paper_size():
    """One exponentiation per Miller-Rabin round; repeatable, so a
    change in search cost shows as a count.  36 primes is what one
    table1_paper pass hands out (6 nodes x 3 predecessors x 2 rounds).
    With the 40-round tester behind a sieve to 1,000 the same pool spent
    2,395 exponentiations on 952 candidates."""
    pool = PrimePool(512, random.Random(20160627))
    assert len(pool.take_many(36)) == 36
    assert pool.generated == 36
    assert (pool.candidates_tested, pool.witness_tests) == (615, 867)
    # 36 primes at 8 rounds, 579 composites at one round each.
    assert pool.witness_tests == 8 * 36 + (615 - 36)


def test_witness_tests_counts_the_deterministic_rows_too():
    pool = PrimePool(32, random.Random(1))
    pool.take_many(20)
    # Three witnesses per prime, at least one per composite survivor.
    assert pool.witness_tests >= pool.candidates_tested + 2 * len(pool._seen)
    assert pool.witness_tests <= 3 * pool.candidates_tested


class _CountingBackend(Backend):
    name = "counting"

    def __init__(self):
        self.calls = 0

    def powmod(self, base, exponent, modulus):
        self.calls += 1
        return pow(base, exponent, modulus)


def test_wide_search_exponentiates_through_the_backend(monkeypatch):
    backend = _CountingBackend()
    monkeypatch.setattr(primes_module, "default_backend", lambda bits: backend)
    narrow = PrimePool(32, random.Random(4))
    narrow.take_many(30)
    generate_prime(64, random.Random(4))
    assert backend.calls == 0  # deterministic rows stay on builtin pow
    wide = PrimePool(256, random.Random(4))
    found = wide.take()
    assert backend.calls == wide.witness_tests > 0
    before = backend.calls
    generate_prime(256, random.Random(4))
    assert backend.calls > before
    # The worst-case tester is unchanged: builtin pow whatever the width.
    before = backend.calls
    assert is_prime(found)
    assert backend.calls == before


def _search_backends():
    return [_CountingBackend()] + [
        resolve_backend(name) for name in available_backends()
    ]


@pytest.mark.parametrize("bits", [256, 512])
def test_search_draws_the_same_primes_on_every_backend(monkeypatch, bits):
    outcomes = []
    for backend in _search_backends():
        monkeypatch.setattr(
            primes_module, "default_backend", lambda bits, b=backend: b
        )
        rng = random.Random(bits)
        pool = PrimePool(bits, rng)
        drawn = pool.take_many(3) + [generate_prime(bits, rng)]
        assert all(type(p) is int for p in drawn)
        outcomes.append((drawn, pool.witness_tests, rng.getstate()))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])
