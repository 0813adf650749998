"""The batched multi-exponentiation primitive.

``multi_powmod`` is the arithmetic core of batched monitor verification:
its only contract is bit-identity with the naive per-pair fold
``prod pow(b_i, e_i, m) mod m`` for *every* input, which Hypothesis
checks across degenerate batches (empty, single pair, zero exponents,
modulus 1) and both backends.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import (
    available_backends,
    multi_powmod,
    resolve_backend,
)
from repro.crypto.homomorphic import make_modulus


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
