"""The batched multi-exponentiation primitive and the shared ladders.

``multi_powmod`` is the arithmetic core of batched monitor verification:
its only contract is bit-identity with the naive per-pair fold
``prod pow(b_i, e_i, m) mod m`` for *every* input, which Hypothesis
checks across degenerate batches (empty, single pair, zero exponents,
modulus 1) and both backends.  ``SharedLadderTable`` must hand out
narrow tables that any number of adopters read by reference, in the
layout the hasher's batch kernel reads.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    PythonBackend,
    SharedLadderTable,
    available_backends,
    multi_powmod,
    narrow_layout,
    resolve_backend,
)
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.crypto.primes import PrimePool


def _backends():
    return [resolve_backend(name) for name in reversed(available_backends())]


def _all_backend_params():
    return [pytest.param(b, id=b.name) for b in _backends()]


def _naive_fold(pairs, modulus):
    acc = 1 % modulus
    for base, exponent in pairs:
        acc = acc * pow(base, exponent, modulus) % modulus
    return acc


# ---------------------------------------------------------------------------
# multi_powmod == naive per-pair fold, always
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", _all_backend_params())
@given(
    pairs=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1 << 1024),
            st.integers(min_value=0, max_value=1 << 512),
        ),
        max_size=6,
    ),
    modulus=st.integers(min_value=1, max_value=1 << 512),
)
@settings(max_examples=80, deadline=None)
def test_multi_powmod_matches_per_pair_fold(backend, pairs, modulus):
    assert backend.multi_powmod(pairs, modulus) == _naive_fold(
        pairs, modulus
    )


@pytest.mark.parametrize("backend", _all_backend_params())
def test_multi_powmod_degenerate_batches(backend):
    assert backend.multi_powmod([], 97) == 1
    assert backend.multi_powmod([], 1) == 0  # identity mod 1
    assert backend.multi_powmod([(5, 13)], 97) == pow(5, 13, 97)
    # Zero exponents contribute the identity, like pow(b, 0, m).
    assert backend.multi_powmod([(5, 0), (7, 0)], 97) == 1
    assert backend.multi_powmod([(5, 0), (7, 3)], 97) == pow(7, 3, 97)
    # Zero bases annihilate once their exponent is positive.
    assert backend.multi_powmod([(0, 2), (7, 3)], 97) == 0


@pytest.mark.parametrize("backend", _all_backend_params())
def test_multi_powmod_rejects_bad_input(backend):
    with pytest.raises(ValueError):
        backend.multi_powmod([(2, -1)], 97)
    with pytest.raises(ValueError):
        backend.multi_powmod([(2, 3)], 0)
    with pytest.raises(ValueError):
        backend.multi_powmod([(2, 3)], -5)


def test_module_level_wrapper_uses_default_backend():
    pairs = [(12345, 678), (999, 1)]
    assert multi_powmod(pairs, 1009) == _naive_fold(pairs, 1009)


def test_monitor_shaped_batch_exact():
    """The actual obligation-fold shape: k attested hashes, each raised
    to the product of the *other* primes, multiplying to the full-key
    hash of the combined product."""
    rng = random.Random(42)
    modulus = make_modulus(256, rng)
    primes = [101, 257, 65537, 4294967311]
    full_key = 1
    for p in primes:
        full_key *= p
    updates = [rng.getrandbits(300) | 1 for _ in primes]
    pairs = [
        (pow(u, p, modulus), full_key // p)
        for u, p in zip(updates, primes)
    ]
    product = 1
    for u in updates:
        product = product * u % modulus
    for backend in _backends():
        assert backend.multi_powmod(pairs, modulus) == pow(
            product, full_key, modulus
        )


# ---------------------------------------------------------------------------
# SharedLadderTable
# ---------------------------------------------------------------------------


def test_shared_table_adoption_matches_pow():
    rng = random.Random(5)
    modulus = make_modulus(128, rng)
    bases = [rng.getrandbits(1024) | 1 for _ in range(4)]
    table = SharedLadderTable.build(bases, modulus, 32)
    assert len(table) == 4 and table.bits == 32
    layout = narrow_layout(32)
    for base in bases:
        assert base in table
        flat = table.get(base)
        assert len(flat) == layout.entries
        for exponent in PrimePool(32, rng).take_many(20):
            product = 1
            for index in layout.indices(exponent):
                product = product * flat[index] % modulus
            assert product == pow(base, exponent, modulus)
    assert table.get(123456789) is None


def test_shared_levels_are_isolated_across_adopters():
    """Two hashers adopting the same entry hold the one tuple by
    reference, and nothing either of them hashes afterwards — other
    widths, wide exponents — touches it or the sibling (the
    fork/thread-sharing safety property)."""
    rng = random.Random(6)
    modulus = make_modulus(96, rng)
    base = rng.getrandbits(512) | 1
    table = SharedLadderTable.build([base], modulus, 16)
    shared = table.get(base)
    snapshot = tuple(shared)
    one = HomomorphicHasher(modulus=modulus, backend=PythonBackend())
    two = HomomorphicHasher(modulus=modulus, backend=PythonBackend())
    narrow = PrimePool(16, rng).take()
    for hasher in (one, two):
        hasher.adopt_shared_ladders(table)
        assert hasher.hash(base, narrow) == pow(base, narrow, modulus)
        assert hasher._fixed_bases[base][1] is shared
    for exponent in ((1 << 100) + 17, PrimePool(32, rng).take(), 65537):
        assert one.hash(base, exponent) == pow(base, exponent, modulus)
    assert one._fixed_bases[base][1] is shared is table.get(base)
    assert two._fixed_bases[base][1] is shared and shared == snapshot
    assert two.hash(base, narrow) == pow(base, narrow, modulus)


def test_shared_table_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        SharedLadderTable(1, 32, {})
    for bits in (0, 7, 65, 512):  # no narrow layout at these widths
        with pytest.raises(ValueError):
            SharedLadderTable(91, bits, {})
        with pytest.raises(ValueError):
            SharedLadderTable.build([3], 91, bits)


def test_hasher_adoption_values_and_accounting():
    rng = random.Random(7)
    modulus = make_modulus(128, rng)
    bases = [rng.getrandbits(1024) | 1 for _ in range(6)]
    table = SharedLadderTable.build(bases, modulus, 32)
    adopted = HomomorphicHasher(modulus=modulus, backend=PythonBackend())
    adopted.adopt_shared_ladders(table)
    plain = HomomorphicHasher(modulus=modulus, backend=PythonBackend())
    exponents = PrimePool(32, rng).take_many(2) + [(1 << 90) + 1]
    for base in bases:
        for exponent in exponents:
            assert adopted.hash(base, exponent) == plain.hash(
                base, exponent
            )
    # Same protocol-level tallies; the shared table only changes *how*.
    assert adopted.operations == plain.operations
    stats = adopted.cache_stats()
    assert stats["shared_ladder_seeds"] == len(bases)
    assert stats["shared_ladder_bases"] == len(bases)
    # Every call still lands in exactly one accounting bucket.
    assert adopted.operations == (
        adopted.memo_hits
        + adopted.fixed_base_hits
        + adopted.cold_powmods
        + adopted.batched_lifts
    )


def test_hasher_rejects_foreign_modulus_table():
    rng = random.Random(8)
    hasher = HomomorphicHasher(modulus=make_modulus(128, rng))
    table = SharedLadderTable.build([3], make_modulus(128, rng), 32)
    with pytest.raises(ValueError, match="different modulus"):
        hasher.adopt_shared_ladders(table)
    hasher.adopt_shared_ladders(None)  # explicit no-op
