"""Unit tests for PAG node state, config, and signing."""

import pytest

from repro.core.config import PagConfig
from repro.core.signing import RsaSigner, TokenSigner
from repro.core.state import ForwardSet, PagNodeState
from repro.crypto.keystore import KeyStore
from repro.gossip.updates import Update
from repro.sim.message import WireSizes


def update(uid):
    return Update(uid=uid, round_created=0, expiry_round=9)


class TestForwardSet:
    def test_counts_accumulate(self):
        fs = ForwardSet()
        fs.add(update(1), 1)
        fs.add(update(1), 2)
        assert fs.counts[1] == 3
        assert len(fs) == 1

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ValueError):
            ForwardSet().add(update(1), 0)

    def test_items_sorted_by_uid(self):
        fs = ForwardSet()
        fs.add(update(5), 1)
        fs.add(update(2), 1)
        assert [u.uid for u, _ in fs.items()] == [2, 5]

    def test_is_empty(self):
        fs = ForwardSet()
        assert fs.is_empty()
        fs.add(update(1), 1)
        assert not fs.is_empty()


class TestPagNodeState:
    def test_prime_issue_and_lookup(self):
        state = PagNodeState()
        state.issue_prime(3, predecessor=7, prime=101)
        assert state.prime_for(3, 7) == 101
        assert state.prime_for(3, 8) is None
        assert state.prime_for(4, 7) is None

    def test_double_issue_rejected(self):
        state = PagNodeState()
        state.issue_prime(3, 7, 101)
        with pytest.raises(ValueError):
            state.issue_prime(3, 7, 103)

    def test_round_key_is_product(self):
        state = PagNodeState()
        state.issue_prime(3, 7, 101)
        state.issue_prime(3, 8, 103)
        key, count = state.round_key(3)
        assert key == 101 * 103
        assert count == 2

    def test_round_key_empty(self):
        assert PagNodeState().round_key(0) == (1, 0)

    def test_cofactor_excludes_one_link(self):
        state = PagNodeState()
        state.issue_prime(3, 7, 101)
        state.issue_prime(3, 8, 103)
        state.issue_prime(3, 9, 107)
        cofactor, count = state.cofactor(3, 8)
        assert cofactor == 101 * 107
        assert count == 2

    def test_prune(self):
        state = PagNodeState()
        state.issue_prime(1, 7, 101)
        state.issue_prime(5, 7, 103)
        state.forward_set(1).add(update(1), 1)
        state.prune_before(3)
        assert state.prime_for(1, 7) is None
        assert state.prime_for(5, 7) == 103
        assert 1 not in state.forward_sets


class TestPagConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PagConfig(fanout=0)
        with pytest.raises(ValueError):
            PagConfig(monitors_per_node=0)
        with pytest.raises(ValueError):
            PagConfig(buffermap_depth=0)
        with pytest.raises(ValueError):
            PagConfig(playout_delay_rounds=1)
        with pytest.raises(ValueError):
            PagConfig(sim_prime_bits=4)

    def test_for_system_size(self):
        assert PagConfig.for_system_size(1000).fanout == 3
        assert PagConfig.for_system_size(10**6).fanout == 6
        assert PagConfig.for_system_size(1000, fanout=5).fanout == 5

    def test_wire_byte_helpers(self):
        """The wire is priced at the paper's sizes by ``WireSizes``,
        whatever the in-simulation modulus and prime widths."""
        sizes = WireSizes()
        assert (sizes.hash_value, sizes.prime, sizes.signature) == (
            64, 64, 256
        )


class TestSigners:
    def test_token_signer_roundtrip(self):
        signer = TokenSigner()
        sig = signer.sign(5, b"payload")
        assert signer.verify(5, b"payload", sig)
        assert not signer.verify(5, b"other", sig)
        assert not signer.verify(6, b"payload", sig)
        assert signer.counters.signatures == 1
        assert signer.counters.verifications == 3

    def test_rsa_signer_roundtrip(self):
        import random

        signer = RsaSigner(
            keystore=KeyStore(key_bits=384, rng=random.Random(4))
        )
        sig = signer.sign(5, b"payload")
        assert signer.verify(5, b"payload", sig)
        assert not signer.verify(5, b"tampered", sig)
        assert not signer.verify(6, b"payload", sig)

    def test_signers_are_deterministic(self):
        assert TokenSigner().sign(1, b"x") == TokenSigner().sign(1, b"x")
