"""Tests for the homomorphic hash: the exact identities of section IV-B."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import (
    BatchVerifier,
    combine_lifted,
    lift_attested,
)
from repro.crypto.homomorphic import (
    HomomorphicHasher,
    fresh_hasher,
    make_modulus,
)
from repro.crypto.primes import generate_distinct_primes, product


@pytest.fixture(scope="module")
def hasher():
    return fresh_hasher(bits=256, seed=11)


updates_strategy = st.lists(
    st.integers(min_value=2, max_value=2**128), min_size=1, max_size=5
)


def test_make_modulus_size():
    m = make_modulus(256, random.Random(3))
    assert 250 <= m.bit_length() <= 256


def test_modulus_must_be_composite():
    with pytest.raises(ValueError):
        HomomorphicHasher(modulus=101)  # prime
    with pytest.raises(ValueError):
        HomomorphicHasher(modulus=2)


def test_hash_is_deterministic(hasher):
    assert hasher.hash(123456, 65537) == hasher.hash(123456, 65537)


def test_hash_rejects_nonpositive_exponent(hasher):
    with pytest.raises(ValueError):
        hasher.hash(5, 0)
    with pytest.raises(ValueError):
        hasher.hash(5, -7)


def test_product_property(hasher):
    """H(u1) * H(u2) == H(u1 * u2) under the same exponent."""
    u1, u2, p = 0xDEADBEEF, 0xCAFEBABE, 65537
    lhs = (hasher.hash(u1, p) * hasher.hash(u2, p)) % hasher.modulus
    rhs = hasher.hash(u1 * u2, p)
    assert lhs == rhs


def test_rekey_property(hasher):
    """H(H(u)_(p1))_(p2) == H(u)_(p1*p2)."""
    u, p1, p2 = 0x1234567890, 101, 257
    assert hasher.rekey(hasher.hash(u, p1), p2) == hasher.hash(u, p1 * p2)


def test_hash_set_equals_hash_of_product(hasher):
    updates = [11, 22, 33, 44]
    p = 65537
    prod = 1
    for u in updates:
        prod *= u
    assert hasher.hash_set(updates, p) == hasher.hash(prod, p)


def test_hash_set_empty_is_identity(hasher):
    assert hasher.hash_set([], 65537) == 1


def test_combine_is_modular_product(hasher):
    values = [hasher.hash(u, 13) for u in (5, 7, 9)]
    expected = 1
    for v in values:
        expected = (expected * v) % hasher.modulus
    assert hasher.combine(values) == expected


def test_combine_empty(hasher):
    assert hasher.combine([]) == 1


def test_operation_counter(hasher):
    before = hasher.operations
    hasher.hash(5, 3)
    hasher.hash_set([2, 3], 5)
    hasher.rekey(7, 11)
    assert hasher.operations - before == 3


def test_byte_size(hasher):
    assert hasher.byte_size == (hasher.modulus.bit_length() + 7) // 8


def forwarding_holds(hasher, attested, acknowledged):
    """The forwarding equation of section IV-B, as a monitor checks it:
    each attested hash lifted to its cofactor (message 8), the lifts
    multiplied, the product compared with the acknowledged hash.  The
    batched fold of the same pairs must give the same product."""
    lifted = combine_lifted(
        hasher, [lift_attested(hasher, h, c) for h, c in attested]
    )
    verifier = BatchVerifier(hasher)
    for h, c in attested:
        verifier.add(h, c)
    assert verifier.fold() == lifted
    return lifted == acknowledged % hasher.modulus


class TestForwardingEquation:
    """End-to-end check of the monitors' verification (Fig. 4 / section V-B).

    Node B receives S_1 from A (hashed under p_1) and S_2 from F (under
    p_2), forwards everything to D, and D acknowledges under p_1 * p_2.
    B's monitors must accept; any tampering must be rejected.
    """

    def setup_method(self):
        self.hasher = fresh_hasher(bits=256, seed=21)
        rng = random.Random(99)
        self.p1, self.p2, self.p3 = generate_distinct_primes(3, 64, rng)
        self.s1 = [1001, 1003]  # updates from predecessor A
        self.s2 = [2001]  # updates from predecessor F
        self.s3 = [3001, 3003]  # updates from predecessor G

    def _attested(self, sets_and_primes):
        all_primes = [p for _, p in sets_and_primes]
        attested = []
        for updates, p in sets_and_primes:
            cofactor = product(q for q in all_primes if q != p)
            attested.append((self.hasher.hash_set(updates, p), cofactor))
        return attested, product(all_primes)

    def test_honest_forwarding_accepted(self):
        attested, key = self._attested(
            [(self.s1, self.p1), (self.s2, self.p2)]
        )
        ack = self.hasher.hash_set(self.s1 + self.s2, key)
        assert forwarding_holds(self.hasher, attested, ack)

    def test_three_predecessors_accepted(self):
        attested, key = self._attested(
            [(self.s1, self.p1), (self.s2, self.p2), (self.s3, self.p3)]
        )
        ack = self.hasher.hash_set(self.s1 + self.s2 + self.s3, key)
        assert forwarding_holds(self.hasher, attested, ack)

    def test_dropped_update_rejected(self):
        attested, key = self._attested(
            [(self.s1, self.p1), (self.s2, self.p2)]
        )
        # B selfishly forwards only s1 — the ack no longer matches.
        ack = self.hasher.hash_set(self.s1, key)
        assert not forwarding_holds(self.hasher, attested, ack)

    def test_substituted_update_rejected(self):
        attested, key = self._attested(
            [(self.s1, self.p1), (self.s2, self.p2)]
        )
        forged = self.s1 + [9999]  # replace F's update with junk
        ack = self.hasher.hash_set(forged, key)
        assert not forwarding_holds(self.hasher, attested, ack)

    def test_wrong_key_rejected(self):
        attested, _ = self._attested([(self.s1, self.p1), (self.s2, self.p2)])
        ack = self.hasher.hash_set(self.s1 + self.s2, self.p1 * self.p3)
        assert not forwarding_holds(self.hasher, attested, ack)


@given(updates_strategy, updates_strategy, st.data())
@settings(max_examples=40, deadline=None)
def test_forwarding_equation_property(set_a, set_f, data):
    """The verification equation holds for arbitrary update sets."""
    hasher = fresh_hasher(bits=128, seed=5)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    p_a, p_f = generate_distinct_primes(2, 32, rng)
    attested = [
        (hasher.hash_set(set_a, p_a), p_f),
        (hasher.hash_set(set_f, p_f), p_a),
    ]
    ack = hasher.hash_set(set_a + set_f, p_a * p_f)
    assert forwarding_holds(hasher, attested, ack)


@given(
    st.integers(min_value=2, max_value=2**256),
    st.integers(min_value=2, max_value=2**64),
    st.integers(min_value=2, max_value=2**64),
)
@settings(max_examples=100, deadline=None)
def test_rekey_property_holds_for_arbitrary_inputs(u, e1, e2):
    hasher = fresh_hasher(bits=128, seed=6)
    assert hasher.rekey(hasher.hash(u, e1), e2) == hasher.hash(u, e1 * e2)


@given(updates_strategy, st.integers(min_value=2, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_hash_set_order_independent(updates, exponent):
    """Multiplication commutes, so reception order cannot matter."""
    hasher = fresh_hasher(bits=128, seed=7)
    shuffled = list(reversed(updates))
    assert hasher.hash_set(updates, exponent) == hasher.hash_set(
        shuffled, exponent
    )


# ---------------------------------------------------------------------------
# Fast-path transparency: memoisation and fixed-base tables must be
# invisible in both values and operation counts.
# ---------------------------------------------------------------------------


@given(
    update=st.integers(min_value=0, max_value=2**512),
    exponent=st.integers(min_value=1, max_value=2**256),
    repeats=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_cached_hash_equals_builtin_pow(update, exponent, repeats):
    """Every repetition — memo hit, warm base, cold call — matches pow."""
    hasher = fresh_hasher(bits=128, seed=21)
    expected = pow(update, exponent, hasher.modulus)
    for _ in range(repeats):
        assert hasher.hash(update, exponent) == expected
    assert hasher.operations == repeats


def test_repeated_rekey_uses_consistent_values(hasher):
    """Lifting the same base many times (the monitor's message 8 loop)
    stays equal to pow even after the fixed-base table kicks in."""
    rng = random.Random(17)
    base = rng.getrandbits(200)
    for _i in range(12):
        cofactor = rng.getrandbits(96) | 1
        assert hasher.rekey(base, cofactor) == pow(
            base, cofactor, hasher.modulus
        )


def test_memo_does_not_undercount_operations():
    hasher = fresh_hasher(bits=128, seed=3)
    before = hasher.operations
    wide = (1 << 80) + 1
    for _ in range(5):
        hasher.hash(999, wide)
    assert hasher.operations - before == 5


def test_cache_bounds_are_configurable_and_respected():
    from repro.crypto.homomorphic import HomomorphicHasher, make_modulus

    rng = random.Random(5)
    hasher = HomomorphicHasher(
        modulus=make_modulus(128, rng), memo_max=4, fixed_base_max=2
    )
    wide = (1 << 80) + 1
    # Values stay correct while the memo evicts around its tiny bound.
    for base in range(2, 40):
        assert hasher.hash(base, wide) == pow(base, wide, hasher.modulus)
        assert len(hasher._memo) <= 4
        assert len(hasher._fixed_bases) <= 2


def test_cache_stats_partition_the_calls():
    hasher = fresh_hasher(bits=128, seed=9)
    rng = random.Random(31)
    wide = (1 << 80) + 1
    for _ in range(10):
        hasher.hash(rng.getrandbits(100), wide + 2 * rng.getrandbits(8))
    hasher.hash(12345, wide)
    hasher.hash(12345, wide)  # memo hit
    stats = hasher.cache_stats()
    assert (
        stats["memo_hits"] + stats["fixed_base_hits"]
        + stats["cold_powmods"]
        == hasher.operations
    )
    assert stats["memo_hits"] >= 1
    assert 0.0 <= stats["memo_hit_rate"] <= 1.0
    assert stats["memo_max"] > 0 and stats["fixed_base_max"] > 0
