"""Unit and property tests for prime generation."""

import functools
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


#: Above the deterministic range, captured at the commit before the
#: two-pass window sieve (4719338) at seed 20160627: (bits, count, window)
#: -> (first four primes in hex, primes digest, state digest, candidates,
#: witness tests).  A shallower sieve, another round count or a survivor
#: lost or gained moves every one of them.
_PAPER_POOL_GOLDEN = {
    (128, 24, 256): (
        [
            "fc231b8101ac9c86f3c4ebceca4a4777",
            "fc231b8101ac9c86f3c4ebceca4a47b5",
            "fc231b8101ac9c86f3c4ebceca4a47df",
            "fc231b8101ac9c86f3c4ebceca4a4885",
        ],
        "fc0b9b832d107711",
        "d871686d1e9d2c14",
        177,
        905,
    ),
    (256, 12, 256): (
        [
            "d006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a47d5",
            "d006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a4843",
            "d006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a486d",
            "d006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a48a9",
        ],
        "447a7bd28444f2c8",
        "e791438845631d45",
        123,
        292,
    ),
    (512, 36, 256): (
        [
            "fda6d420a20202265f0afafc0fbf55700b92a26d23a5355b8523ce052c764ebc"
            "9006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a4877",
            "e462df147f7303a332af5bb2c0b5a43d7fd9d49df887f79fabdedaab3b9df711"
            "83fde5ddacad318d32f43431e66dac6978d6cd1880d43c2175a19ab10732e511",
            "e462df147f7303a332af5bb2c0b5a43d7fd9d49df887f79fabdedaab3b9df711"
            "83fde5ddacad318d32f43431e66dac6978d6cd1880d43c2175a19ab10732e643",
            "fb8e179004993b4ae68d62c4b50e01cd9e2d9e0d6a1a1ff37bc056fe3f392263"
            "0f94200ec9e3e47bc54549f6e429a91496fecfd1b7e157b5006b7a88a0dd8f21",
        ],
        "e6088ec6ccc362eb",
        "098d013872228085",
        615,
        867,
    ),
    (1024, 4, 256): (
        [
            "d73a5ba50318b4bfb08318ab73a4889fe1b430b19a312e39825d28e7f2da01e0"
            "63b61beba39efa71eb9db073dcc5e41c0202d40cf851b15389463489c7f23924"
            "fda6d420a20202265f0afafc0fbf55700b92a26d23a5355b8523ce052c764ebc"
            "9006de5b38deaa4d39ca5860117e93533c231b8101ac9c86f3c4ebceca4a47df",
            "f225c73fa3a5f73ab2700a1291111c44d92115e7b33cd9a5a8e30456c1601ab1"
            "1e25a43a115b702119df3c95b4fd3b4d085a068b66dfdf55e5e67c7fc5f8a109"
            "82d754f642113de0dba86db61f2ab94767473a4002989b89ef28876eeb17c0d4"
            "38fd8a897773e0974d4136481ca63d7bedadc02ee372997fb42638aecfcfbbe5",
            "c09a84aec44a6811798bf95629f9c26ba8104680ca2f1e70431d1ddccd5134c3"
            "a11cd80c6354e1bcd9ad4d22d1c6b6f293ab87f71bdd267218470baf574cd909"
            "f69c24c5d6107dc9f3c50ee6566b9568ed328747949dcf9c293039c136e097d1"
            "978d335a20b0f9fc8cdbc3bcb319a63542948bb06f78fe5ac4d408524f293f33",
            "f87b7084a20c537b472e202849a7f9db2dc498c050742b8ce8b1da275183c078"
            "79a72aed7d19127cfff55ee0e7277a95397a0b19548e363f222896d5d3cd4f54"
            "82d08b6e3538cf64acec0197ac1a06d6afd8230b6c2a4a92bdc88024b5980143"
            "0a53413aed365d9be98cfbe49a83c343b44de70c31f8fa6af908625a45de947f",
        ],
        "1fdd743f9cd8faea",
        "9d004c944c25a4e7",
        132,
        148,
    ),
    (512, 6, 64): (
        [
            "faf4a19cf9ba57f05ec67f530cea58c1e08dace3cf95986fcce7d5f0c2d3a9d0"
            "44595da1bd6eb5bf1d47d605348fd3c97663067416c57a50512de85b3cc89e75",
            "d148f3d1a0b054b168f9a84b6d8429e0d6f9264c6b6a62e1ae6d15d0e99c14f9"
            "26f514b4d5597da601923dbf7325054fc4a55695bceed892d4734393b4e171c3",
            "e6dada1556527adac486b5b35de2fe4bdd99b5f1eec560f47053d9c085a831f1"
            "61bf5720d1e43c12b7fa1b04ca8071e8cc06365a5f3ad19af1edde56ed5abe65",
            "d703e689e56d620fd8e9061bbbd0c07badfdcbe832cbad31b7faaa9f30858f2f"
            "0222798c34e390372ea6c5b4d92715c12c17c966d331577becc555bb72a85849",
        ],
        "b97f951e6da99b06",
        "2b5a7714b960431c",
        110,
        152,
    ),
}


@pytest.mark.parametrize("bits, count, window", sorted(_PAPER_POOL_GOLDEN))
def test_paper_width_pools_are_frozen(bits, count, window):
    head, primes_digest, state_digest, candidates, witnesses = (
        _PAPER_POOL_GOLDEN[bits, count, window]
    )
    rng = random.Random(20160627)
    pool = PrimePool(bits, rng, window=window)
    drawn = pool.take_many(count)
    assert [f"{p:x}" for p in drawn[: len(head)]] == head
    assert _digest(drawn) == primes_digest
    assert _digest(rng.getstate()) == state_digest
    assert pool.candidates_tested == candidates
    assert pool.witness_tests == witnesses


def test_serial_simulation_never_builds_the_deep_sieve(monkeypatch):
    from repro.api import run_scenario

    limits = []
    sieve = primes_module._sieve_small_primes

    def recording(limit=1000):
        limits.append(limit)
        return sieve(limit)

    primes_module._sieve_table.cache_clear()
    monkeypatch.setattr(primes_module, "_sieve_small_primes", recording)
    try:
        result = run_scenario("fig9", nodes=14, rounds=6)
        assert result.crypto_hashes > 0
        assert limits and max(limits) <= 1000
        PrimePool(512, random.Random(1)).take()
        assert max(limits) == 1 << 16
        # One table per (bound, window), whatever the number of pools.
        PrimePool(512, random.Random(2)).take()
        PrimePool(1024, random.Random(3)).take()
        assert limits.count(1 << 16) == 1
        PrimePool(512, random.Random(1), window=64).take()
        assert limits.count(1 << 16) == 2
    finally:
        primes_module._sieve_table.cache_clear()


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
    monkeypatch.setattr(primes_module, "default_backend", lambda: backend)
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
            primes_module, "default_backend", lambda b=backend: b
        )
        rng = random.Random(bits)
        pool = PrimePool(bits, rng)
        drawn = pool.take_many(3) + [generate_prime(bits, rng)]
        assert all(type(p) is int for p in drawn)
        outcomes.append((drawn, pool.witness_tests, rng.getstate()))
    assert all(outcome == outcomes[0] for outcome in outcomes[1:])


# ---------------------------------------------------------------------------
# The window sieve against the per-prime loop it replaced (4719338).
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _reference_table(limit):
    return tuple(_sieve_small_primes(limit)[1:])


def _reference_survivors(base, bits, span):
    """The crossing loop as it stood before the two passes: every odd
    sieve prime, one at a time, with the sieve prime itself stepped
    over."""
    survivors = bytearray(span)
    for p in _reference_table(primes_module._sieve_limit(bits)):
        k = (-base % p) * ((p + 1) // 2) % p
        if base + 2 * k == p:
            k += p
        if k < span:
            run = len(range(k, span, p))
            survivors[k::p] = b"\x01" * run
    return survivors


def _span(base, bits, window):
    """Candidates of a window at ``base``, cut at the top of the width
    as ``_refill`` cuts it."""
    return min(window, ((1 << bits) - 1 - base) // 2 + 1)


def _lowest_base(bits):
    return (0b11 << (bits - 2)) | 1


@st.composite
def _windows(draw):
    bits = draw(st.integers(min_value=8, max_value=1024))
    window = draw(st.integers(min_value=1, max_value=512))
    top = (1 << bits) - 1
    if draw(st.booleans()):
        base = draw(st.integers(min_value=0, max_value=top))
    else:  # near the top of the width, where the window is cut short
        most = min(window, top >> 3)  # keeps the top two bits set
        base = top - 2 * draw(st.integers(min_value=0, max_value=most))
    return base | _lowest_base(bits), bits, window


@given(_windows())
@settings(max_examples=300, deadline=None)
def test_window_sieve_matches_the_reference_loop(drawn):
    base, bits, window = drawn
    span = _span(base, bits, window)
    assert 1 <= span <= window
    assert primes_module._sieve_window(
        base, span, bits, window
    ) == _reference_survivors(base, bits, span)


@pytest.mark.parametrize("bits", [8, 9, 10, 11, 12])
def test_window_sieve_keeps_the_sieve_primes_inside_a_window(bits):
    """Below the sieve bound a window can hold a sieve prime itself,
    which is no composite multiple: every base of the narrow widths,
    at the default window and at smaller ones."""
    for window in (256, 64, 16, 1):
        for base in range(_lowest_base(bits), 1 << bits, 2):
            span = _span(base, bits, window)
            assert primes_module._sieve_window(
                base, span, bits, window
            ) == _reference_survivors(base, bits, span), (base, window)
    if bits == 10:
        # The case that bites at the default window: 773 = 769 + 2 * 2.
        assert is_prime(773)
        assert primes_module._sieve_window(769, 128, 10, 256)[2] == 0


@pytest.mark.parametrize("bits", [32, 512])
def test_grouped_remainders_cross_what_single_primes_cross(bits):
    """The primes above ``2 * window`` take their residue from the base
    reduced modulo their group's product: random bases of the 32-bit
    simulation width and the paper's 512, full windows and the short
    last window of the width, against the one-prime-at-a-time loop."""
    rng = random.Random(bits)
    top = (1 << bits) - 1
    bases = [rng.getrandbits(bits) | _lowest_base(bits) for _ in range(40)]
    bases += [top - 2 * rng.randrange(255) for _ in range(10)]
    for base in bases:
        span = _span(base, bits, 256)
        assert primes_module._sieve_window(
            base, span, bits, 256
        ) == _reference_survivors(base, bits, span), base
    assert any(_span(base, bits, 256) < 256 for base in bases)
    limit = primes_module._sieve_limit(bits)
    _, groups = primes_module._sieve_table(limit, 256)
    assert all(product == math.prod(group) for product, group in groups)
    assert [p for _, group in groups for p in group] == [
        p for p in _reference_table(limit) if p > 512
    ]


def test_grouped_remainders_step_over_a_base_below_the_sieve_bound():
    """``base <= limit``: every sieve prime strides, so the primes inside
    the window survive, on a full window and a short one."""
    for base, span in ((3, 256), (513, 256), (601, 40), (991, 5)):
        assert primes_module._sieve_window(
            base, span, 32, 256
        ) == _reference_survivors(base, 32, span), base


def test_refill_tests_exactly_the_reference_survivors(monkeypatch):
    """Through the pool itself: what reaches Miller-Rabin is the
    reference's survivor set, window by window, short spans included."""
    reached = []
    monkeypatch.setattr(
        primes_module,
        "_miller_rabin_tests",
        lambda n, *args: (reached.append(n), (False, 1))[1],
    )
    for bits, window in ((10, 256), (12, 64), (32, 256), (512, 256)):
        pool = PrimePool(bits, random.Random(bits), window=window)
        # The stubbed tester draws nothing, so a twin generator replays
        # the window bases.
        twin = random.Random(bits)
        for _ in range(8):
            base = twin.getrandbits(bits) | _lowest_base(bits)
            del reached[:]
            pool._refill()
            span = _span(base, bits, window)
            crossed = _reference_survivors(base, bits, span)
            assert reached == [
                base + 2 * k for k in range(span) if not crossed[k]
            ]
