"""Unit tests for the pure-Python RSA implementation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.rsa import RsaPublicKey, generate_keypair


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(bits=512, rng=random.Random(1))


def test_keypair_modulus_size(keypair):
    assert 500 <= keypair.bits <= 512


def test_keypair_is_deterministic_under_seed():
    a = generate_keypair(bits=256, rng=random.Random(99))
    b = generate_keypair(bits=256, rng=random.Random(99))
    assert a.public == b.public


def test_encrypt_decrypt_roundtrip(keypair):
    plaintext = b"prime p_j for round R"
    ciphertext = keypair.public.encrypt(plaintext)
    assert keypair.private.decrypt(ciphertext) == plaintext


def test_encrypt_produces_distinct_ciphertext_for_distinct_messages(keypair):
    c1 = keypair.public.encrypt(b"update-1")
    c2 = keypair.public.encrypt(b"update-2")
    assert c1 != c2


def test_encrypt_rejects_oversized_plaintext(keypair):
    with pytest.raises(ValueError):
        keypair.public.encrypt(b"x" * 100)  # > 512-bit modulus capacity


def test_raw_encrypt_rejects_out_of_range(keypair):
    with pytest.raises(ValueError):
        keypair.public.encrypt_int(keypair.public.modulus)
    with pytest.raises(ValueError):
        keypair.public.encrypt_int(-1)


def test_decrypt_garbage_raises(keypair):
    # An unrelated ciphertext decrypts to bytes without the domain tag.
    with pytest.raises(ValueError):
        keypair.private.decrypt(1234567890123456789)


def test_sign_verify_roundtrip(keypair):
    message = b"Ack, R, B, A, H(...)"
    signature = keypair.private.sign(message)
    assert keypair.public.verify(message, signature)


def test_verify_rejects_tampered_message(keypair):
    signature = keypair.private.sign(b"original")
    assert not keypair.public.verify(b"tampered", signature)


def test_verify_rejects_tampered_signature(keypair):
    signature = keypair.private.sign(b"original")
    assert not keypair.public.verify(b"original", signature ^ 1)


def test_verify_rejects_out_of_range_signature(keypair):
    assert not keypair.public.verify(b"m", keypair.public.modulus + 5)
    assert not keypair.public.verify(b"m", -3)


def test_signature_by_other_key_rejected(keypair):
    other = generate_keypair(bits=512, rng=random.Random(2))
    signature = other.private.sign(b"message")
    assert not keypair.public.verify(b"message", signature)


def test_generate_keypair_validates_arguments():
    with pytest.raises(ValueError):
        generate_keypair(bits=32)
    with pytest.raises(ValueError):
        generate_keypair(bits=128, public_exponent=4)
    with pytest.raises(ValueError):
        generate_keypair(bits=128, public_exponent=1)


def test_public_key_byte_size():
    key = RsaPublicKey(modulus=(1 << 255) + 1, exponent=3)
    assert key.byte_size == 32


@given(st.binary(min_size=0, max_size=24))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(payload):
    pair = generate_keypair(bits=384, rng=random.Random(7))
    assert pair.private.decrypt(pair.public.encrypt(payload)) == payload


@given(st.binary(min_size=1, max_size=40))
@settings(max_examples=50, deadline=None)
def test_sign_verify_property(message):
    pair = generate_keypair(bits=384, rng=random.Random(8))
    assert pair.public.verify(message, pair.private.sign(message))
    assert not pair.public.verify(message + b"!", pair.private.sign(message))


def test_default_rng_fallback_is_deterministic():
    """Regression: omitting ``rng`` used to consume ambient entropy
    (caught by ``repro lint`` DET102); now two parameter-identical
    calls must agree."""
    a = generate_keypair(bits=256)
    b = generate_keypair(bits=256)
    assert a.public == b.public
    assert a.private == b.private
    # ... and a different parameter set derives a different stream.
    c = generate_keypair(bits=320)
    assert c.public != a.public


@pytest.mark.parametrize("choice", ["python", "auto"])
def test_sign_verify_parity_with_builtin_pow(monkeypatch, keypair, choice):
    """The key operations go through the backend primitive (libcrypto
    under ``auto`` wherever it loads) and must stay the
    textbook values: CRT halves, public operation, accept and reject."""
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", choice)
    wide = generate_keypair(bits=1024, rng=random.Random(2))
    for pair in (keypair, wide):
        public, private = pair.public, pair.private
        n, e, d = public.modulus, public.exponent, private.private_exponent
        p, q = private.prime_p, private.prime_q
        for i in range(8):
            message = b"declaration %d" % i
            signature = private.sign(message)
            representative = pow(signature, e, n)
            assert signature == pow(representative, d, n)
            m1 = pow(representative % p, d % (p - 1), p)
            m2 = pow(representative % q, d % (q - 1), q)
            assert signature == m2 + (pow(q, -1, p) * (m1 - m2)) % p * q
            assert public.verify(message, signature)
            assert not public.verify(message, signature ^ 1)
            assert public.encrypt_int(representative) == pow(
                representative, e, n
            )
            assert private.decrypt_int(signature) == pow(signature, d, n)
