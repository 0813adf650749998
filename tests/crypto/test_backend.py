"""Backend parity: every arithmetic backend computes the same algebra.

The fast path (gmpy2, fixed-base tables, memoisation) must be invisible:
hash values, the homomorphic identities and the Table I operation
counts have to be identical whichever backend computes them.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.verification import (
    BatchVerifier,
    combine_lifted,
    lift_attested,
)
from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    _BUILTIN_MAX_WORK,
    FixedBaseCache,
    Gmpy2Backend,
    NarrowLayout,
    OpenSSLBackend,
    PythonBackend,
    available_backends,
    default_backend,
    gmpy2_available,
    narrow_layout,
    resolve_backend,
)
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.crypto.primes import PrimePool

needs_gmpy2 = pytest.mark.skipif(
    not gmpy2_available(), reason="gmpy2 not installed"
)


def _backends():
    return [resolve_backend(name) for name in reversed(available_backends())]


def _all_backend_params():
    return [pytest.param(b, id=b.name) for b in _backends()]


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------


def test_python_backend_always_available():
    assert "python" in available_backends()
    assert resolve_backend("python").name == "python"


def test_auto_resolution_matches_availability(monkeypatch):
    """``auto`` is the first backend that builds: gmpy2 > openssl >
    python, the same at every modulus width (it is not told one)."""
    monkeypatch.delenv("REPRO_CRYPTO_BACKEND", raising=False)
    available = available_backends()
    assert available == [
        name for name in ("gmpy2", "openssl", "python") if name in available
    ]
    assert resolve_backend("auto").name == available[0]
    assert default_backend() is resolve_backend("auto")
    if not gmpy2_available() and "openssl" in available:
        assert type(default_backend()) is OpenSSLBackend
        for bits in (64, 128, 255, 256, 512, 2048):
            hasher = HomomorphicHasher(
                modulus=make_modulus(bits, random.Random(bits))
            )
            assert hasher.backend is default_backend()

    def unreachable():
        raise RuntimeError("libcrypto is linked statically")

    monkeypatch.setattr(backend_module, "_load_libcrypto", unreachable)
    monkeypatch.setattr(backend_module, "_instances", {})
    assert "openssl" not in available_backends()
    narrow = "gmpy2" if gmpy2_available() else "python"
    assert resolve_backend("auto").name == narrow
    with pytest.raises(RuntimeError, match="linked statically"):
        resolve_backend("openssl")


class _CountingLib:
    """libcrypto with its ``BN_mod_exp`` calls counted."""

    def __init__(self, lib):
        self._lib = lib
        self.native_calls = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def BN_mod_exp(self, *operands):
        self.native_calls += 1
        return self._lib.BN_mod_exp(*operands)


def test_narrow_auto_is_the_builtin_itself(monkeypatch):
    """Forced ``python`` is ``pow`` itself; under openssl, the crossover
    keeps a 128-bit modulus's ``u^count`` and 32-bit link primes on
    builtin ``pow`` and sends its round keys to ``BN_mod_exp``."""
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "python")
    backend = default_backend()
    assert type(backend) is PythonBackend and backend.powmod is pow
    assert backend is resolve_backend("python")
    if "openssl" not in available_backends():
        pytest.skip("libcrypto is not reachable through _hashlib")
    native = resolve_backend("openssl")
    lib = _CountingLib(native._lib)
    monkeypatch.setattr(native, "_lib", lib)
    rng = random.Random(128)
    modulus = make_modulus(128, rng)
    contents = [rng.getrandbits(1024) for _ in range(20)]
    pool = PrimePool(32, rng)
    link_primes = pool.take_many(20)
    for content, prime in zip(contents, link_primes):
        for count in (1, 2, 3):  # u^count, core.verification's factor
            assert native.powmod(content, count, modulus) == pow(
                content, count, modulus
            )
        assert native.powmod(content, prime, modulus) == pow(
            content, prime, modulus
        )
    assert lib.native_calls == 0
    round_keys = [p * q for p, q in zip(link_primes, link_primes[1:])]
    for content, key in zip(contents, round_keys):
        assert native.powmod(content, key, modulus) == pow(
            content, key, modulus
        )
    assert lib.native_calls == len(round_keys)
    # The boundary, 36 x 128 = 9 x 512 = _BUILTIN_MAX_WORK:
    for bits, widths in ((128, (36, 37)), (512, (9, 10))):
        modulus = (1 << bits) - 1
        before = lib.native_calls
        for width in widths:
            native.powmod(3, (1 << width) - 1, modulus)
        assert lib.native_calls == before + 1
    assert _BUILTIN_MAX_WORK == 36 * 128 == 9 * 512


def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="auto, python, openssl, gmpy2"):
        resolve_backend("mbedtls")


def test_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "python")
    assert resolve_backend(None).name == "python"


def test_missing_gmpy2_fails_loudly():
    if gmpy2_available():
        assert resolve_backend("gmpy2").name == "gmpy2"
    else:
        with pytest.raises(RuntimeError):
            resolve_backend("gmpy2")


def test_default_backend_is_cached():
    assert default_backend() is default_backend()


# ---------------------------------------------------------------------------
# Arithmetic parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", _all_backend_params())
@given(
    base=st.integers(min_value=0, max_value=1 << 1024),
    exponent=st.integers(min_value=0, max_value=1 << 512),
    modulus=st.integers(min_value=2, max_value=1 << 512),
)
@settings(max_examples=60, deadline=None)
def test_powmod_matches_builtin_pow(backend, base, exponent, modulus):
    assert backend.powmod(base, exponent, modulus) == pow(
        base, exponent, modulus
    )


@needs_gmpy2
def test_gmpy2_returns_plain_ints():
    backend = Gmpy2Backend()
    result = backend.powmod(3, 4, 7)
    assert type(result) is int and result == 4


# ---------------------------------------------------------------------------
# Protocol-level parity: hash / rekey / combine / the forwarding check
# and identical operation accounting across backends.
# ---------------------------------------------------------------------------


def _fresh_pair():
    """Two hashers over the same modulus, one per available backend."""
    modulus = make_modulus(256, random.Random(11))
    return [
        HomomorphicHasher(modulus=modulus, backend=b) for b in _backends()
    ]


def _forwarding_checks(hasher, attested, acknowledged):
    """The forwarding equation of section IV-B both ways a monitor
    evaluates it: per-pair lifts multiplied, and one batched fold."""
    expected = acknowledged % hasher.modulus
    lifted = [lift_attested(hasher, h, c) for h, c in attested]
    verifier = BatchVerifier(hasher)
    for h, c in attested:
        verifier.add(h, c)
    return (
        combine_lifted(hasher, lifted) == expected,
        verifier.fold() == expected,
    )


def _exercise(hasher, rng):
    """A fixed workload touching every hashing entry point."""
    outputs = []
    primes = [65537, 101, 257]
    for i in range(40):
        update = rng.getrandbits(300) + 2
        outputs.append(hasher.hash(update, primes[i % 3]))
        # Repeat some hashes so the memo path is exercised too.
        outputs.append(hasher.hash(update, primes[i % 3]))
    attested = []
    for _i in range(10):
        h = hasher.hash(rng.getrandbits(200) + 2, 65537)
        cofactor = rng.getrandbits(96) | 1
        # Lift twice: the second lift goes through the fixed-base table.
        attested.append(hasher.rekey(h, cofactor))
        attested.append(hasher.rekey(h, cofactor + 2))
    outputs.extend(attested)
    outputs.append(hasher.combine(attested))
    u1, u2 = rng.getrandbits(128) + 2, rng.getrandbits(128) + 2
    p1, p2 = 101, 257
    pairs = [
        (hasher.hash(u1, p1), p2),
        (hasher.hash(u2, p2), p1),
    ]
    acknowledged = hasher.hash(u1, p1 * p2) * hasher.hash(u2, p1 * p2)
    outputs.extend(_forwarding_checks(hasher, pairs, acknowledged))
    return outputs


def test_backends_agree_on_all_operations_and_counts():
    hashers = _fresh_pair()
    results = []
    for hasher in hashers:
        results.append((_exercise(hasher, random.Random(77)), hasher))
    reference_out, reference_hasher = results[0]
    for outputs, hasher in results[1:]:
        assert outputs == reference_out
        assert hasher.operations == reference_hasher.operations
    if len(results) == 1:
        pytest.skip("only the python backend installed; parity is vacuous")


@pytest.mark.parametrize("backend", _all_backend_params())
def test_operation_count_is_call_based_not_compute_based(backend):
    """Memo hits still count: Table I tallies protocol-level hashes."""
    hasher = HomomorphicHasher(
        modulus=make_modulus(128, random.Random(2)), backend=backend
    )
    wide_exponent = (1 << 100) + 1  # wide exponents take the memo path
    hasher.hash(12345, wide_exponent)
    hasher.hash(12345, wide_exponent)
    hasher.hash(12345, wide_exponent)
    assert hasher.operations == 3


@pytest.mark.parametrize("backend", _all_backend_params())
def test_verify_forwarding_parity_with_seed_semantics(backend):
    """The forwarding equation holds and fails exactly as in the seed."""
    hasher = HomomorphicHasher(
        modulus=make_modulus(256, random.Random(4)), backend=backend
    )
    rng = random.Random(9)
    updates = [rng.getrandbits(120) + 2 for _ in range(3)]
    primes = [101, 257, 65537]
    full_key = primes[0] * primes[1] * primes[2]
    attested = []
    for u, p in zip(updates, primes):
        cofactor = full_key // p
        attested.append((hasher.hash(u, p), cofactor))
    acknowledged = hasher.hash(
        updates[0] * updates[1] * updates[2], full_key
    )
    assert _forwarding_checks(hasher, attested, acknowledged) == (
        True, True
    )
    assert _forwarding_checks(hasher, attested, acknowledged + 1) == (
        False, False
    )


# ---------------------------------------------------------------------------
# Fixed-base cache
# ---------------------------------------------------------------------------


@given(
    base=st.integers(min_value=0, max_value=1 << 600),
    modulus=st.integers(min_value=2, max_value=1 << 512),
    exponents=st.lists(
        st.integers(min_value=0, max_value=1 << 520),
        min_size=1,
        max_size=8,
    ),
)
@settings(max_examples=60, deadline=None)
def test_fixed_base_cache_matches_pow(base, modulus, exponents):
    """The ladder against builtin ``pow``, over exponents of any width
    and in any order (the table grows and is reused in between)."""
    cache = FixedBaseCache(base, modulus)
    for exponent in exponents:
        assert cache.powmod(exponent) == pow(base, exponent, modulus)


def test_fixed_base_cache_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FixedBaseCache(2, 1)
    with pytest.raises(ValueError):
        FixedBaseCache(2, 5).powmod(-1)


def test_fixed_base_cache_table_grows_lazily():
    cache = FixedBaseCache(3, 1 << 61)
    cache.powmod(15)
    assert len(cache._table) == 4
    cache.powmod(1 << 300)
    assert len(cache._table) == 301


# ---------------------------------------------------------------------------
# Narrow table layout
# ---------------------------------------------------------------------------


@given(
    bits=st.integers(min_value=8, max_value=64),
    base=st.integers(min_value=0, max_value=1 << 600),
    modulus=st.integers(min_value=2, max_value=1 << 200),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_narrow_layout_reads_every_family_exponent(bits, base, modulus, data):
    """For every width the layout covers, the product of one entry per
    window is ``pow(base, e, M)`` for any exponent shaped like a link
    prime (odd, top two bits set), and every other exponent is refused."""
    layout = narrow_layout(bits)
    table = layout.table(base, modulus)
    assert len(table) == layout.entries
    free = st.integers(min_value=0, max_value=(1 << (bits - 3)) - 1)
    for _ in range(4):
        exponent = (3 << (bits - 2)) | (data.draw(free) << 1) | 1
        indices = layout.indices(exponent)
        assert len(indices) == 2 + max(0, -(-(bits - 12) // 4))
        product = 1
        for index in indices:
            product = product * table[index] % modulus
        assert product == pow(base, exponent, modulus)
        for other in (
            exponent - 1,  # even
            exponent ^ (1 << (bits - 2)),  # second-highest bit clear
            exponent >> 1,  # one bit short
            exponent >> 2,  # two bits short
            exponent << 1 | 1,  # one bit long
        ):
            assert layout.indices(other) is None


def test_narrow_layout_widths_and_budget():
    assert narrow_layout(7) is None and narrow_layout(65) is None
    for bits in (7, 65):
        with pytest.raises(ValueError):
            NarrowLayout(bits)
    layout = narrow_layout(32)
    # [6 low bits, odd | 4 | 4 | 4 | 4 | 4 | 6 top bits, top two set]
    assert layout.entries == 32 + 5 * 16 + 16 == 128
    assert len(layout.indices((1 << 32) - 1)) == 7
    # Every extreme digit lands inside its own window.
    assert layout.indices((1 << 32) - 1)[-1] == 127
    assert layout.indices((3 << 30) | 1) == (0, 32, 48, 64, 80, 96, 112)
    # No width's table outgrows two entries a bit.
    assert all(narrow_layout(b).entries <= 4 * b for b in range(8, 65))
