"""The monitor-side fold of a batched wire relay.

The fm>1 acceptance property: folding an ``AttestationRelayBatch``'s
raw (hash, cofactor) pairs through a :class:`BatchVerifier` in one
multi-exponentiation pass, the way ``MonitorEngine._fold_wire_pair``
feeds it, must be bit-identical to the sequential
``lift_attested``/``combine_lifted`` chain the per-pair path runs —
same product, same modulus.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.messages import RelayPair, SignedAttestation
from repro.core.monitor import MonitorEngine
from repro.core.verification import (
    BatchVerifier,
    combine_lifted,
    lift_attested,
)
from repro.crypto import HomomorphicHasher

# A composite (RSA-style) test modulus, wide enough for real folds.
MODULUS = (2**61 - 1) * (2**31 - 1)


def _hasher() -> HomomorphicHasher:
    return HomomorphicHasher(modulus=MODULUS)


def _fold(hasher, triples) -> int:
    """Fold ``(hash_forward, hash_ack_only, cofactor)`` triples as the
    monitor folds a relay batch: the ack-only half is tallied, not
    folded (section V-D)."""
    verifier = BatchVerifier(hasher)
    for forward, ack_only, cofactor in triples:
        verifier.add(forward, cofactor)
        verifier.add(ack_only, cofactor, include=False)
    return verifier.fold()


def _sequential(hasher, triples) -> int:
    lifted = [
        lift_attested(hasher, forward, cofactor)
        for forward, _ack_only, cofactor in triples
        if forward != 1 % hasher.modulus
    ]
    return combine_lifted(hasher, lifted)


triples_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=MODULUS - 1),  # hash_forward
        st.integers(min_value=0, max_value=MODULUS - 1),  # hash_ack_only
        st.integers(min_value=1, max_value=(1 << 64) - 1),  # cofactor
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(triples=triples_st)
def test_fold_matches_sequential_lift_chain(triples):
    assert _fold(_hasher(), triples) == _sequential(_hasher(), triples)


@settings(max_examples=40, deadline=None)
@given(triples=triples_st)
def test_relay_pair_form_matches_triple_form(triples):
    pairs = tuple(
        RelayPair(
            attestation=SignedAttestation(
                round_no=4,
                server=i,
                receiver=9,
                hash_forward=forward,
                hash_ack_only=ack_only,
                signature=1,
            ),
            cofactor=cofactor,
            cofactor_prime_count=1,
        )
        for i, (forward, ack_only, cofactor) in enumerate(triples)
    )
    # The monitor's own per-pair step, on the wire form.
    engine = SimpleNamespace(
        context=SimpleNamespace(hasher=_hasher()),
        _batch={},
        _batch_seen=set(),
    )
    for pair in pairs:
        MonitorEngine._fold_wire_pair(
            engine, 9, pair.attestation, pair.cofactor
        )
    assert engine._batch[(9, 4)].fold() == _fold(_hasher(), triples)


def test_ack_only_hashes_are_tallied_but_folded_out():
    """The ack-only half of each pair costs an operation (the monitor
    does evaluate it) but does not enter the obligation product."""
    triples = [(7, 11, 3), (13, 17, 5)]
    with_ack = _hasher()
    _fold(with_ack, triples)
    stripped = _hasher()
    folded = _fold(
        stripped, [(f, 1 % MODULUS, c) for f, _a, c in triples]
    )
    assert folded == _sequential(_hasher(), triples)
    assert with_ack.operations > stripped.operations


def test_neutral_bases_contribute_nothing():
    neutral = 1 % MODULUS
    hasher = _hasher()
    assert _fold(hasher, [(neutral, neutral, 99)]) == neutral
    assert hasher.operations == 0
