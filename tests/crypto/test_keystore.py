"""Tests for the key directory and crypto counters."""

import random

import pytest

from repro.crypto.keystore import CryptoCounters, KeyStore


@pytest.fixture()
def store():
    return KeyStore(key_bits=384, rng=random.Random(5))


class TestKeyStore:
    def test_register_is_idempotent(self, store):
        first = store.register(7)
        second = store.register(7)
        assert first is second
        assert len(store) == 1

    def test_public_key_registers_on_demand(self, store):
        key = store.public_key(3)
        assert 3 in store
        assert key == store.register(3).public

    def test_key_pair_requires_registration(self, store):
        with pytest.raises(KeyError):
            store.key_pair(99)
        store.register(99)
        assert store.key_pair(99).public.modulus > 0

    def test_distinct_nodes_distinct_keys(self, store):
        assert store.public_key(1) != store.public_key(2)

    def test_deterministic_under_seed(self):
        a = KeyStore(key_bits=256, rng=random.Random(1))
        b = KeyStore(key_bits=256, rng=random.Random(1))
        assert a.public_key(1) == b.public_key(1)


class TestSignedBlobs:
    def test_rejects_wrong_signer(self, store):
        # ``<m>X``: signed with X's registered key, checked against the
        # key the store resolves for the claimed signer.
        signature = store.register(4).private.sign(b"hello")
        assert store.public_key(4).verify(b"hello", signature)
        assert not store.public_key(5).verify(b"hello", signature)


class TestCryptoCounters:
    def test_snapshot(self):
        counters = CryptoCounters(signatures=3, homomorphic_hashes=7)
        snap = counters.snapshot()
        assert snap["signatures"] == 3
        assert snap["homomorphic_hashes"] == 7
        assert CryptoCounters().snapshot()["signatures"] == 0


class TestDefaultRngIsSeeded:
    """Regression: the default rng used to be an unseeded
    ``random.Random()`` (caught by ``repro lint`` DET102), silently
    breaking the documented two-runs-same-keys contract."""

    def test_two_default_stores_generate_identical_keys(self):
        a = KeyStore(key_bits=256)
        b = KeyStore(key_bits=256)
        assert a.register(1).public == b.register(1).public

    def test_default_matches_explicit_seed(self):
        from repro.crypto.keystore import DEFAULT_KEYSTORE_SEED

        implicit = KeyStore(key_bits=256)
        explicit = KeyStore(
            key_bits=256, rng=random.Random(DEFAULT_KEYSTORE_SEED)
        )
        assert implicit.register(9).public == explicit.register(9).public
