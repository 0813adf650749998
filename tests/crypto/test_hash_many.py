"""``HomomorphicHasher.hash_many`` against the per-item loop it replaces.

The batch entry point is the only way the node builds a buffermap and
classifies a forward set.  Its values and its ``operations`` are always
those of ``[hash(b, e) for b in bases]``.  The buckets ``cache_stats``
partitions ``operations`` into, and the cache evolution (which bases
hold a table, in which eviction order), are the loop's too whenever the
call is the first end of its link, i.e. nothing was left under its
prime; a second end reads what the first left and books those as
``memo_hits``.  Each test drives two hashers over one modulus, one
through the batch call and one through the loop, every call a first end
(``_step`` empties the link memo), and compares them after every step;
the tests at the bottom drive both ends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    Gmpy2Backend,
    PythonBackend,
    gmpy2_available,
    narrow_layout,
)
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.crypto.primes import PrimePool

COUNTERS = (
    "operations",
    "memo_hits",
    "fixed_base_hits",
    "cold_powmods",
    "batched_lifts",
)

MODULUS_128 = make_modulus(128, random.Random(2016))
MODULUS_512 = make_modulus(512, random.Random(2017))


def _pair(modulus=MODULUS_128, backend=None, **bounds):
    """(batch, loop): two identically configured hashers."""
    return [
        HomomorphicHasher(
            modulus=modulus, backend=backend or PythonBackend(), **bounds
        )
        for _ in range(2)
    ]


def _state(hasher):
    return (
        {name: getattr(hasher, name) for name in COUNTERS},
        # insertion order is the eviction order; the tag is the prime
        # width a narrow table was built for, 0 for a wide ladder
        [(base, tag) for base, (tag, _) in hasher._fixed_bases.items()],
        set(hasher._hot_candidates),
        list(hasher._memo.items()),
    )


def _step(batch, loop, bases, exponent):
    """One batch on each side, every call the first end of its link;
    values, counters and caches must agree."""
    batch._link.clear()
    got = batch.hash_many(bases, exponent)
    want = []
    for base in bases:
        loop._link.clear()
        want.append(loop.hash(base, exponent))
    assert got == want
    assert want == [pow(base, exponent, loop.modulus) for base in bases]
    assert _state(batch) == _state(loop)
    stats = batch.cache_stats()
    assert batch.operations == (
        stats["memo_hits"]
        + stats["fixed_base_hits"]
        + stats["cold_powmods"]
        + stats["batched_lifts"]
    )


def _primes(count, seed, bits=32):
    return PrimePool(bits, random.Random(seed)).take_many(count)


def _contents(count, seed, bits=1024):
    rng = random.Random(seed)
    return [rng.getrandbits(bits) | 1 for _ in range(count)]


def _family(bits):
    """Every exponent shaped like a ``bits``-wide link prime."""
    return st.integers(min_value=0, max_value=(1 << (bits - 3)) - 1).map(
        lambda free: (3 << (bits - 2)) | (free << 1) | 1
    )


def test_first_second_and_later_sightings():
    batch, loop = _pair()
    bases = _contents(12, seed=1)
    p1, p2, p3 = _primes(3, seed=1)
    _step(batch, loop, bases, p1)  # first sighting: cold pow each
    assert batch.cold_powmods == 12 and batch.fixed_base_hits == 0
    _step(batch, loop, bases, p2)  # second: builds the tables
    assert batch.cold_powmods == 24 and len(batch._fixed_bases) == 12
    _step(batch, loop, bases, p3)  # from here on: table hits
    assert batch.cold_powmods == 24 and batch.fixed_base_hits == 12
    assert batch.operations == 36


def test_batch_that_crosses_the_eviction_bound():
    batch, loop = _pair(fixed_base_max=4)
    bases = _contents(10, seed=2)
    for prime in _primes(6, seed=2):
        _step(batch, loop, bases, prime)
        assert len(batch._fixed_bases) <= 4
    # A shuffled batch meets evicted and tabled bases interleaved.
    random.Random(2).shuffle(bases)
    for prime in _primes(3, seed=22):
        _step(batch, loop, bases, prime)


def test_off_family_narrow_exponents_are_cold_powmods():
    batch, loop = _pair()
    bases = _contents(5, seed=10)
    for prime in _primes(3, seed=10):
        _step(batch, loop, bases, prime)
    prime = _primes(1, seed=11)[0]

    def cold_only(batch_bases, exponents):
        before = _state(batch)
        for done, exponent in enumerate(exponents, start=1):
            _step(batch, loop, batch_bases, exponent)
            assert batch.cold_powmods == (
                before[0]["cold_powmods"] + len(batch_bases) * done
            )
        # Only two counters moved: no table built or evicted,
        # no base remembered.
        after = _state(batch)
        assert after[1:] == before[1:]
        assert after[0]["fixed_base_hits"] == before[0]["fixed_base_hits"]

    # Shaped like no link prime: even, a top bit clear, under 8 bits.
    # The warm-up never hears of the two untabled bases riding along.
    shapeless = [prime - 1, prime ^ (1 << 30), 1, 101]
    cold_only(bases + _contents(2, seed=15), shapeless)
    # Shaped like a link prime of another width (one and two bits short,
    # 16 bits, a 64-bit two-prime round key): the 32-bit tables the
    # bases hold do not serve them.
    other_width = [
        prime >> 1 | 1,
        prime >> 2 | 1,
        _primes(1, seed=12, bits=16)[0],
        prime * _primes(1, seed=13)[0] | (3 << 62),
    ]
    assert [e.bit_length() for e in other_width] == [31, 30, 16, 64]
    cold_only(bases, other_width)


def test_one_narrow_table_per_base_within_budget():
    batch, loop = _pair()
    bases = _contents(6, seed=14)
    for bits in (32, 16, 48, 32, 64, 16):
        for prime in _primes(3, seed=bits, bits=bits):
            _step(batch, loop, bases, prime)
    # The first width to see a base twice owns its table for good.
    assert list(batch._fixed_bases) == bases
    for tag, table in batch._fixed_bases.values():
        assert tag == 32 and len(table) == 128


def test_repeated_bases_inside_one_batch():
    batch, loop = _pair()
    a, b, c = _contents(3, seed=5)
    prime, other = _primes(2, seed=5)
    # a: cold, then table build, then two hits — all inside one call.
    _step(batch, loop, [a, b, a, a, c, a, b], prime)
    assert batch.fixed_base_hits == 2 and batch.cold_powmods == 5
    _step(batch, loop, [c, c, c], other)


def test_empty_batch_moves_nothing():
    batch, loop = _pair()
    before = _state(batch)
    assert batch.hash_many([], 65537) == []
    assert batch.hash_many(iter(()), (1 << 200) + 1) == []
    assert _state(batch) == before == _state(loop)


@pytest.mark.parametrize(
    "modulus", [MODULUS_128, MODULUS_512], ids=["m128", "m512"]
)
def test_wide_exponents_take_the_per_item_path(modulus):
    batch, loop = _pair(modulus=modulus, memo_max=8)
    bases = _contents(6, seed=6)
    wide = _primes(3, seed=6, bits=512)
    for prime in wide + wide[-1:]:  # the repeat is answered by the memo
        _step(batch, loop, bases, prime)
    assert batch.memo_hits > 0
    # Narrow batches after wide ones: at a 512-bit modulus the bases now
    # hold 1-bit ladders, which serve wide exponents only; the narrow
    # kernel must not read them as tables.
    for prime in _primes(3, seed=66):
        _step(batch, loop, bases + _contents(2, seed=67), prime)


@pytest.mark.parametrize(
    "modulus", [MODULUS_128, MODULUS_512], ids=["m128", "m512"]
)
@pytest.mark.parametrize("bits, factors", [(32, 7), (48, 11)])
def test_table_products_equal_pow_at_32_and_48_bits(modulus, bits, factors):
    """Once every base holds a table, the batch kernel multiplies a
    32-bit prime's seven entries in one fixed-arity expression and any
    other width's through ``prod``: both against per-item ``pow``."""
    batch, loop = _pair(modulus=modulus)
    bases = _contents(8, seed=bits)
    primes = _primes(4, seed=bits, bits=bits)
    for prime in primes:
        _step(batch, loop, bases, prime)
    assert all(
        len(narrow_layout(bits).indices(prime)) == factors for prime in primes
    )
    # the first prime is a cold pow, the second builds the tables
    assert batch.fixed_base_hits == 2 * len(bases)


@pytest.mark.parametrize("exponent", [0, -1, -(1 << 70)])
def test_non_positive_exponent_raises_before_any_counter_moves(exponent):
    batch, loop = _pair()
    bases = _contents(3, seed=7)
    _step(batch, loop, bases, 65537)
    before = _state(batch)
    with pytest.raises(ValueError, match="positive"):
        batch.hash_many(bases, exponent)
    with pytest.raises(ValueError, match="positive"):
        batch.hash_many([], exponent)
    assert _state(batch) == before


@pytest.mark.skipif(not gmpy2_available(), reason="gmpy2 not installed")
def test_gmpy2_backend_batches_like_the_loop():
    batch, loop = _pair(backend=Gmpy2Backend())
    bases = _contents(6, seed=8)
    for prime in _primes(3, seed=8) + _primes(2, seed=88, bits=512):
        _step(batch, loop, bases, prime)
    # gmpy2 never tables a base: every narrow call is a cold powmod.
    assert batch.fixed_base_hits == 0 and not batch._fixed_bases


@given(
    data=st.data(),
    fixed_base_max=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_batch_equals_loop_on_random_schedules(data, fixed_base_max):
    pool = _contents(9, seed=9, bits=256)
    batch, loop = _pair(fixed_base_max=fixed_base_max, memo_max=4)
    exponents = st.one_of(
        _family(16),
        _family(32),
        st.integers(min_value=8, max_value=64).flatmap(_family),
        st.integers(min_value=1, max_value=(1 << 64) + 5),
        st.integers(min_value=1, max_value=1 << 16),
        st.integers(min_value=1 << 64, max_value=1 << 130),
    )
    steps = data.draw(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from(pool), max_size=12), exponents
            ),
            min_size=1,
            max_size=8,
        )
    )
    for bases, exponent in steps:
        _step(batch, loop, bases, exponent)


# -- both ends of a link ---------------------------------------------------


def _buckets(hasher):
    return {name: getattr(hasher, name) for name in COUNTERS}


def test_second_end_reads_what_the_first_left_and_hashes_the_rest():
    (hasher,) = _pair()[:1]
    shared, only_b, only_a = (_contents(5, seed=s) for s in (31, 32, 33))
    warm_up = _primes(2, seed=31)
    for prime in warm_up:  # every base tabled, so the kernel is one pass
        hasher._link.clear()
        hasher.hash_many(shared + only_b + only_a, prime)
    hasher._link.clear()
    before = _buckets(hasher)
    prime = _primes(1, seed=34)[0]
    b_side = hasher.hash_many(shared + only_b, prime)
    a_bases = [only_a[0]] + shared + only_a[1:] + shared[:1]
    a_side = hasher.hash_many(a_bases, prime)
    assert b_side == [pow(u, prime, hasher.modulus) for u in shared + only_b]
    assert a_side == [pow(u, prime, hasher.modulus) for u in a_bases]
    after = _buckets(hasher)
    assert after["operations"] - before["operations"] == 10 + 11
    assert after["memo_hits"] - before["memo_hits"] == 6  # shared, one twice
    assert after["fixed_base_hits"] - before["fixed_base_hits"] == 10 + 5
    assert after["cold_powmods"] == before["cold_powmods"]
    # Popped when read: nothing under the prime stays, and a third
    # call is a first end again.
    assert prime not in hasher._link
    assert hasher.hash_many(shared, prime) == b_side[:5]
    assert hasher.fixed_base_hits == after["fixed_base_hits"] + 5
    assert hasher._link.pop(prime) == (shared, b_side[:5])


def test_second_end_with_untabled_rest_warms_it_like_a_first_sighting():
    (hasher,) = _pair()[:1]
    known, fresh = _contents(4, seed=35), _contents(3, seed=36)
    p1, p2 = _primes(2, seed=35)
    hasher.hash_many(known, p1)
    assert hasher.hash_many(known + fresh, p1) == [
        pow(u, p1, hasher.modulus) for u in known + fresh
    ]
    # known: cold at the first end, link hits at the second, so still
    # on their first sighting; fresh: cold, first sighting too.
    assert _buckets(hasher)["memo_hits"] == 4
    assert hasher.cold_powmods == 7 and not hasher._fixed_bases
    assert hasher._hot_candidates == set(known + fresh)
    hasher.hash_many(known + fresh, p2)  # second sighting builds
    assert len(hasher._fixed_bases) == 7
    assert hasher.operations == 4 + 7 + 7 == sum(
        hasher.cache_stats()[b]
        for b in ("memo_hits", "fixed_base_hits", "cold_powmods")
    )


def test_empty_second_end_still_takes_the_entry():
    (hasher,) = _pair()[:1]
    prime = _primes(1, seed=37)[0]
    hasher.hash_many(_contents(3, seed=37), prime)
    assert hasher.hash_many([], prime) == []
    assert not hasher._link


def test_narrow_pair_is_hashed_once_and_tables_nothing():
    """The attestation pair: A hashes a product under the link prime, B
    hashes it again to check; B reads A's result, so a product met on
    one link never reaches its second sighting."""
    (hasher,) = _pair()[:1]
    product = _contents(1, seed=38)[0]
    primes = _primes(3, seed=38)
    for prime in primes[:2]:
        want = pow(product, prime, hasher.modulus)
        assert hasher.hash(product, prime) == want  # A
        assert hasher._link == {(product, prime): want}
        assert hasher.hash(product, prime) == want  # B
        assert not hasher._link
    # Two links: first and second sighting on the A side, two link hits.
    assert hasher.memo_hits == 2 and hasher.cold_powmods == 2
    assert list(hasher._fixed_bases) == [product]
    assert hasher.hash(product, primes[2]) == pow(
        product, primes[2], hasher.modulus
    )
    assert hasher.fixed_base_hits == 1 and hasher.operations == 5
    # The wide memo never sees a narrow result.
    assert not hasher._memo


def test_off_family_and_wide_exponents_leave_nothing():
    (hasher,) = _pair()[:1]
    bases = _contents(3, seed=39)
    prime = _primes(1, seed=39)[0]
    for exponent in (prime - 1, prime ^ (1 << 30), 1, 101, (1 << 200) + 1):
        hasher.hash_many(bases, exponent)
        hasher.hash(bases[0], exponent)
    assert not hasher._link


def test_unread_entries_stay_under_the_leak_cap(monkeypatch):
    from repro.crypto import homomorphic

    monkeypatch.setattr(homomorphic, "_LINK_MAX", 8)
    (hasher,) = _pair()[:1]
    bases = _contents(2, seed=40)
    primes = _primes(30, seed=40)
    for prime in primes:  # nobody ever asks again
        hasher.hash_many(bases, prime)
        hasher.hash(bases[0] * bases[1], prime)
        assert len(hasher._link) <= 8
    # The oldest half goes, so the entries still in flight are there.
    assert primes[-1] in hasher._link
    assert (bases[0] * bases[1], primes[-1]) in hasher._link
    assert primes[0] not in hasher._link
    hasher.forget_links()  # what a node does as its round ends
    assert not hasher._link
    # ...and a dropped entry costs a recomputation, never a value.
    assert hasher.hash_many(bases, primes[0]) == [
        pow(u, primes[0], hasher.modulus) for u in bases
    ]
    stats = hasher.cache_stats()
    assert hasher.operations == sum(
        stats[b]
        for b in ("memo_hits", "fixed_base_hits", "cold_powmods")
    )


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_values_and_operations_equal_the_loop_with_both_ends(data):
    """No ``_link.clear()`` here: calls meet whatever earlier calls
    left.  Values and ``operations`` are the plain loop's, and every
    call lands in exactly one bucket."""
    pool = _contents(7, seed=41, bits=256)
    hasher = HomomorphicHasher(
        modulus=MODULUS_128, backend=PythonBackend(), fixed_base_max=4
    )
    exponents = st.one_of(
        st.sampled_from(_primes(3, seed=41)),
        _family(16),
        st.integers(min_value=1, max_value=1 << 16),
        st.integers(min_value=1 << 64, max_value=1 << 130),
    )
    calls = data.draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from(pool), min_size=1, max_size=8),
                exponents,
            ),
            min_size=1,
            max_size=12,
        )
    )
    expected_operations = 0
    for batched, bases, exponent in calls:
        want = [pow(base, exponent, MODULUS_128) for base in bases]
        if batched:
            assert hasher.hash_many(bases, exponent) == want
        else:
            assert [hasher.hash(base, exponent) for base in bases] == want
        expected_operations += len(bases)
        stats = hasher.cache_stats()
        assert hasher.operations == expected_operations == (
            stats["memo_hits"]
            + stats["fixed_base_hits"]
            + stats["cold_powmods"]
            + stats["batched_lifts"]
        )
