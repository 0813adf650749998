"""End-to-end run with genuine RSA signatures and paper-size parameters.

Most tests use small in-simulation primes/moduli and token signatures
(the algebra is exact at any size, and ``WireSizes`` prices the wire at
the paper's sizes whatever the in-simulation widths).  This
suite runs the real thing at small scale: RSA-signed messages and the
paper's 512-bit homomorphic modulus with 512-bit primes, to show the
protocol is not relying on any small-parameter artefact.
"""

import random

import pytest

from repro.adversary.selfish import FreeRider
from repro.core import PagConfig, PagSession, RsaSigner
from repro.crypto.keystore import KeyStore


def make_real_session(n=10, behaviors=None):
    config = PagConfig(
        sim_modulus_bits=512,  # the paper's modulus size
        sim_prime_bits=512,  # the paper's prime size
        stream_rate_kbps=40.0,  # keep the chunk count small
    )
    signer = RsaSigner(
        keystore=KeyStore(key_bits=512, rng=random.Random(77))
    )
    return PagSession.create(
        n, config=config, behaviors=behaviors, signer=signer
    )


@pytest.mark.slow
def test_honest_run_with_real_crypto():
    session = make_real_session()
    session.run(8)
    assert session.all_verdicts() == []
    assert session.mean_continuity() > 0.99
    report = session.crypto_report()
    assert report["signatures"] > 0
    assert report["verifications"] > 0


@pytest.mark.slow
def test_free_rider_detected_with_real_crypto():
    session = make_real_session(behaviors={3: FreeRider()})
    session.run(8)
    assert session.convicted_nodes() == {3}


@pytest.mark.slow
def test_paper_size_hash_values_fit_wire_size():
    """With a 512-bit modulus the real hash values fit the 64 bytes the
    wire model prices them at."""
    session = make_real_session()
    session.run(4)
    hasher = session.context.hasher
    assert hasher.modulus.bit_length() <= 512
    assert hasher.byte_size <= session.simulator.network.sizes.hash_value
