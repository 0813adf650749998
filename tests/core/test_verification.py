"""Tests for the homomorphic bookkeeping helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import Serve, ServeEntry
from repro.core.verification import (
    ack_hash,
    combine_lifted,
    entries_product,
    hash_entries,
    lift_attested,
    serve_hashes,
    split_products,
)
from repro.crypto.backend import available_backends, resolve_backend
from repro.crypto.homomorphic import (
    HomomorphicHasher,
    fresh_hasher,
    make_modulus,
)
from repro.crypto.primes import generate_distinct_primes, product
from repro.gossip.updates import Update
from tests.net.live_traffic import SCENARIOS, live_messages


def entry(uid, count=1, ack_only=False, payload=True):
    return ServeEntry(
        update=Update(uid=uid, round_created=0, expiry_round=10),
        count=count,
        has_payload=payload,
        ack_only=ack_only,
    )


@pytest.fixture()
def hasher():
    return fresh_hasher(bits=128, seed=3)


class TestEntriesProduct:
    def test_empty_is_one(self, hasher):
        assert entries_product(hasher, []) == 1

    def test_multiplicity_is_exponent(self, hasher):
        single = entries_product(hasher, [entry(1, count=1)])
        double = entries_product(hasher, [entry(1, count=2)])
        content = entry(1).update.content % hasher.modulus
        assert double == (single * content) % hasher.modulus

    def test_order_independent(self, hasher):
        a = entries_product(hasher, [entry(1), entry(2)])
        b = entries_product(hasher, [entry(2), entry(1)])
        assert a == b


def _reference_product(hasher, entries):
    """The fold :func:`split_products` replaces, with nothing shared."""
    acc = 1
    for e in entries:
        acc = acc * pow(e.update.content, e.count, hasher.modulus)
        acc %= hasher.modulus
    return acc


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_split_products_on_live_serves(label, hasher):
    """One pass with two accumulators equals a fold per filtered list,
    and the pair's product is the fold over all entries (the ack hash's
    base), on every ``Serve`` of a real run."""
    serves = [m for m in live_messages(label) if type(m) is Serve]
    shapes = set()
    for serve in serves:
        forward = [e for e in serve.entries if not e.ack_only]
        ack_only = [e for e in serve.entries if e.ack_only]
        pair = split_products(hasher, serve.entries)
        assert pair == (
            _reference_product(hasher, forward),
            _reference_product(hasher, ack_only),
        )
        total = _reference_product(hasher, serve.entries)
        assert pair[0] * pair[1] % hasher.modulus == total
        assert entries_product(hasher, serve.entries) == total
        shapes.add((bool(forward), bool(ack_only)))
        if any(e.count > 1 for e in serve.entries):
            shapes.add("count>1")
    # Empty serves, all-ack-only, forward-only, mixed, multiplicities.
    assert shapes >= {
        (False, False), (False, True), (True, False), (True, True), "count>1"
    }


class TestServeHashes:
    def test_splits_forward_and_ack_only(self, hasher):
        entries = [entry(1), entry(2, ack_only=True)]
        fwd, ack = serve_hashes(
            hasher, split_products(hasher, entries), 65537
        )
        assert fwd == hash_entries(hasher, [entries[0]], 65537)
        assert ack == hash_entries(hasher, [entries[1]], 65537)

    def test_empty_lists_hash_to_identity(self, hasher):
        fwd, ack = serve_hashes(hasher, split_products(hasher, []), 65537)
        assert fwd == 1
        assert ack == 1


class TestLiftAndCombine:
    def test_lift_is_rekey(self, hasher):
        h = hash_entries(hasher, [entry(1)], 101)
        assert lift_attested(hasher, h, 103) == hash_entries(
            hasher, [entry(1)], 101 * 103
        )

    def test_lift_identity_stays_identity(self, hasher):
        assert lift_attested(hasher, 1, 99991) == 1

    def test_monitor_pipeline_equals_direct_hash(self, hasher):
        """The full section V-C pipeline: per-predecessor attestations,
        lifted by cofactors, combined — must equal the successor's ack
        over the union under the round key."""
        rng = random.Random(7)
        p1, p2, p3 = generate_distinct_primes(3, 32, rng)
        s1 = [entry(1, count=1), entry(2, count=2)]
        s2 = [entry(3, count=1)]
        s3 = [entry(4, count=3)]
        key = p1 * p2 * p3
        lifted = [
            lift_attested(hasher, hash_entries(hasher, s1, p1), p2 * p3),
            lift_attested(hasher, hash_entries(hasher, s2, p2), p1 * p3),
            lift_attested(hasher, hash_entries(hasher, s3, p3), p1 * p2),
        ]
        obligation = combine_lifted(hasher, lifted)
        successor_ack = ack_hash(
            hasher, split_products(hasher, s1 + s2 + s3), key
        )
        assert obligation == successor_ack

    def test_tampered_set_breaks_the_pipeline(self, hasher):
        rng = random.Random(8)
        p1, p2 = generate_distinct_primes(2, 32, rng)
        s1, s2 = [entry(1)], [entry(2)]
        lifted = [
            lift_attested(hasher, hash_entries(hasher, s1, p1), p2),
            lift_attested(hasher, hash_entries(hasher, s2, p2), p1),
        ]
        obligation = combine_lifted(hasher, lifted)
        # Forwarding a different set cannot match.
        forged = ack_hash(
            hasher, split_products(hasher, [entry(1), entry(9)]), p1 * p2
        )
        assert obligation != forged


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=1, max_value=4),
        ),
        min_size=1,
        max_size=6,
        unique_by=lambda t: t[0],
    ),
    st.integers(min_value=2, max_value=5),
    st.data(),
)
@settings(max_examples=30, deadline=None)
def test_pipeline_property(update_specs, n_preds, data):
    """Arbitrary update sets split across arbitrary predecessors still
    satisfy the verification equation."""
    hasher = fresh_hasher(bits=128, seed=11)
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    primes = generate_distinct_primes(n_preds, 32, rng)
    entries = [entry(uid, count=c) for uid, c in update_specs]
    # Partition entries across predecessors.
    per_pred = [[] for _ in range(n_preds)]
    for idx, e in enumerate(entries):
        per_pred[idx % n_preds].append(e)
    key = product(primes)
    lifted = []
    for i, batch in enumerate(per_pred):
        cofactor = product(p for j, p in enumerate(primes) if j != i)
        lifted.append(
            lift_attested(
                hasher, hash_entries(hasher, batch, primes[i]), cofactor
            )
        )
    assert combine_lifted(hasher, lifted) == ack_hash(
        hasher, split_products(hasher, entries), key
    )


class TestBatchVerifier:
    """The batched obligation fold: same product, same tallies."""

    def _lift_workload(self, hasher, rng, k=4):
        """k (attested hash, cofactor) pairs shaped like one round."""
        primes = generate_distinct_primes(k, 32, rng)
        key = product(primes)
        pairs = []
        for _i, p in enumerate(primes):
            attested = hasher.hash(rng.getrandbits(200) + 2, p)
            pairs.append((attested, key // p))
        return pairs

    def test_fold_matches_per_pair_lifting(self):
        from repro.core.verification import BatchVerifier

        rng = random.Random(21)
        batched = fresh_hasher(bits=128, seed=21)
        unbatched = fresh_hasher(bits=128, seed=21)
        pairs = self._lift_workload(batched, rng)
        self._lift_workload(unbatched, random.Random(21))
        verifier = BatchVerifier(batched)
        for attested, cofactor in pairs:
            verifier.add(attested, cofactor)
        reference = combine_lifted(
            unbatched,
            [lift_attested(unbatched, h, c) for h, c in pairs],
        )
        assert verifier.fold() == reference
        # Identical protocol-level tallies, different buckets.
        assert batched.operations == unbatched.operations
        assert batched.batched_lifts == len(pairs)

    @pytest.mark.parametrize("backend", available_backends())
    def test_monitor_shaped_batch_exact(self, backend):
        """The obligation's shape: k attested hashes, each raised to the
        product of the *other* primes, fold to the full-key hash of the
        combined product, on every backend."""
        from repro.core.verification import BatchVerifier

        rng = random.Random(42)
        modulus = make_modulus(256, rng)
        primes = [101, 257, 65537, 4294967311]
        full_key = product(primes)
        updates = [rng.getrandbits(300) | 1 for _ in primes]
        verifier = BatchVerifier(
            HomomorphicHasher(
                modulus=modulus, backend=resolve_backend(backend)
            )
        )
        for u, p in zip(updates, primes):
            verifier.add(pow(u, p, modulus), full_key // p)
        combined = 1
        for u in updates:
            combined = combined * u % modulus
        assert verifier.fold() == pow(combined, full_key, modulus)

    def test_neutral_pairs_are_skipped_like_lift_attested(self):
        from repro.core.verification import BatchVerifier

        hasher = fresh_hasher(bits=128, seed=22)
        verifier = BatchVerifier(hasher)
        before = hasher.operations
        verifier.add(1 % hasher.modulus, 101)  # neutral: no-op, uncounted
        assert hasher.operations == before
        assert verifier.fold() == 1 % hasher.modulus

    def test_excluded_pairs_tally_but_do_not_fold(self):
        from repro.core.verification import BatchVerifier

        hasher = fresh_hasher(bits=128, seed=23)
        verifier = BatchVerifier(hasher)
        verifier.add(12345, 101)
        folded_only = verifier.fold()
        before = hasher.operations
        verifier.add(99999, 257, include=False)  # ack-only list
        assert hasher.operations == before + 1
        assert verifier.fold() == folded_only

    def test_prelifted_factors_multiply_in(self):
        """A materialised lift (a broadcast value) multiplies into the
        fold, as ``MonitorEngine.obligation`` combines them."""
        from repro.core.verification import BatchVerifier

        hasher = fresh_hasher(bits=128, seed=24)
        verifier = BatchVerifier(hasher)
        verifier.add(4242, 101)
        before = hasher.operations
        combined = combine_lifted(hasher, [7, verifier.fold()])
        expected = pow(4242, 101, hasher.modulus) * 7 % hasher.modulus
        assert combined == expected
        assert hasher.operations == before  # no tally for a factor

    def test_fold_memo_invalidated_by_accumulation(self):
        from repro.core.verification import BatchVerifier

        hasher = fresh_hasher(bits=128, seed=25)
        verifier = BatchVerifier(hasher)
        verifier.add(333, 101)
        first = verifier.fold()
        assert verifier.fold() == first  # memoised
        verifier.add(555, 257)
        assert verifier.fold() == (
            first * pow(555, 257, hasher.modulus) % hasher.modulus
        )

    def test_nonpositive_exponent_rejected(self):
        from repro.core.verification import BatchVerifier

        hasher = fresh_hasher(bits=128, seed=26)
        verifier = BatchVerifier(hasher)
        with pytest.raises(ValueError, match="positive"):
            verifier.add(5, 0)
