"""Pluggable modular-arithmetic backends for the crypto hot path.

Every homomorphic-hash evaluation is one modular exponentiation, and the
paper's throughput numbers (Table I: 4,800 hashes/s/core with openssl)
hinge on how fast that primitive runs.  This module isolates the
primitive behind a tiny interface so the rest of the codebase never
calls ``pow`` directly on the hot path:

* :class:`PythonBackend` — CPython's built-in three-argument ``pow``;
  always available.
* :class:`OpenSSLBackend` — libcrypto's ``BN_mod_exp``, the library the
  paper measured with, through the copy CPython's ``_hashlib`` links:
  no package to install, 11x builtin ``pow`` at the paper's 512 bits.
* :class:`Gmpy2Backend` — GMP via ``gmpy2`` when it is installed.

Selection
---------
``resolve_backend("auto")`` (the default) is the first backend that can
be built here: gmpy2 when importable, else openssl when libcrypto can be
reached, else pure Python.  The modulus width plays no part: under
openssl, :meth:`OpenSSLBackend.powmod` hands each exponentiation to
builtin ``pow`` or to ``BN_mod_exp`` by the size of its operands (the
one crossover, ``_BUILTIN_MAX_WORK``), so link primes and ``u^count``
at simulation widths stay on builtin ``pow``.  A name (``python``,
``openssl``, ``gmpy2``) can be forced per process with the
``REPRO_CRYPTO_BACKEND`` environment variable, the one selector, and
raises when it cannot be built.

Operation *counting* is deliberately not done here: backends are pure
arithmetic, and the Table I accounting lives at the protocol layer
(:class:`~repro.crypto.homomorphic.HomomorphicHasher`), so swapping
backends can never change reported operation counts.
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Backend",
    "PythonBackend",
    "Gmpy2Backend",
    "OpenSSLBackend",
    "FixedBaseCache",
    "NarrowLayout",
    "narrow_layout",
    "available_backends",
    "resolve_backend",
    "default_backend",
    "gmpy2_available",
    "powmod",
]

_ENV_VAR = "REPRO_CRYPTO_BACKEND"

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - the common case in CI
    _gmpy2 = None


class Backend:
    """Modular arithmetic primitive provider.

    Subclasses implement :meth:`powmod`.  Backends are stateless and
    shareable across hashers.
    """

    name: str = "abstract"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` for non-negative exponents."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class PythonBackend(Backend):
    """CPython built-in ``pow`` — always available."""

    name = "python"

    # Bound straight to the builtin: no per-call indirection beyond the
    # method lookup the caller already pays.
    powmod = staticmethod(pow)


class Gmpy2Backend(Backend):
    """GMP-accelerated arithmetic via ``gmpy2``.

    Construction raises :class:`RuntimeError` when gmpy2 is missing, so
    callers can treat availability and selection uniformly.
    """

    name = "gmpy2"

    def __init__(self) -> None:
        if _gmpy2 is None:
            raise RuntimeError(
                "gmpy2 is not installed; use the 'python' backend"
            )
        self._powmod = _gmpy2.powmod

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._powmod(base, exponent, modulus))


#: The crossover between builtin ``pow`` and ``BN_mod_exp``, in exponent
#: bits times modulus bits.  A native call costs ~10 us before its first
#: squaring (five FFI calls, byte conversions, a Montgomery context),
#: while builtin ``pow`` grows with exponent bits times (at these widths,
#: about linearly) modulus bits, so the two cross at one product.
#: Builtin / native us per call by exponent width, base twice the
#: modulus wide, best of 7 (2-core Xeon, CPython 3.11, OpenSSL 3.0):
#:
#:   modulus  exponent: builtin / native                      crossover
#:     64 b   48 b 12.7/13.7   64 b 16.4/17.1   96 b 26.1/16.3   ~72 b
#:    128 b   28 b  9.0/10.3   32 b 10.5/10.1   40 b 13.8/10.7   ~32-36 b
#:    256 b   14 b 12.4/15.7   18 b 16.5/17.0   24 b 22.4/17.5   ~20 b
#:    512 b    7 b 14.8/16.8    9 b 18.5/18.7   12 b 24.0/13.4   ~9-10 b
#:   1024 b    3 b 13.0/13.6    4 b 22.6/21.3    6 b 39.3/22.9   ~4 b
#:
#: Products up to 36 x 128 = 9 x 512 stay on builtin ``pow``: ``u^count``
#: at every width and the 32-bit link primes of a 128-bit simulation
#: modulus.  Round keys, cofactor lifts, ack hashes, 512-bit link primes
#: and Miller-Rabin rounds above the deterministic range go native.
_BUILTIN_MAX_WORK = 36 * 128


def _load_libcrypto() -> Any:
    """libcrypto, through the shared object CPython's ``_hashlib`` is.

    That file resolves the interpreter's own ``BN_*`` symbols with no
    ``find_library`` and no package.  The one place ``ctypes`` is
    imported.  Raises :class:`RuntimeError` naming the cause when
    ``_hashlib`` is absent, built in, or links libcrypto statically.
    """
    try:
        import _hashlib
        import ctypes

        lib = ctypes.CDLL(_hashlib.__file__)
        bn = ctypes.c_void_p
        lib.BN_new.restype = lib.BN_CTX_new.restype = bn
        lib.BN_bin2bn.restype = bn
        lib.BN_bin2bn.argtypes = [ctypes.c_char_p, ctypes.c_int, bn]
        lib.BN_bn2bin.argtypes = [bn, ctypes.c_char_p]
        lib.BN_mod_exp.argtypes = [bn] * 5
        lib.new_buffer = ctypes.create_string_buffer
    except (ImportError, OSError, AttributeError) as error:
        raise RuntimeError(
            f"libcrypto is not reachable through _hashlib ({error}); "
            f"use the 'python' backend"
        ) from error
    return lib


class _BigNumScratch(threading.local):
    """One thread's operands: four BIGNUMs, a ``BN_CTX``, an out buffer.

    ``ctypes`` drops the GIL inside every foreign call and threads
    switch between the calls of one exponentiation, so each thread gets
    its own set on first use (never freed: a few hundred bytes).
    """

    def __init__(self, lib: Any) -> None:
        #: operands: base, exponent, modulus, as ``BN_mod_exp`` takes them.
        self.result, *self.operands = [lib.BN_new() for _ in range(4)]
        self.ctx = lib.BN_CTX_new()
        self.out = lib.new_buffer(128)


class OpenSSLBackend(Backend):
    """libcrypto's ``BN_mod_exp`` via ``ctypes`` — what the paper timed.

    Construction raises :class:`RuntimeError` when libcrypto cannot be
    reached.  Results equal builtin ``pow`` for every input: what
    ``BN_mod_exp`` does not take (a negative operand, a modulus of zero)
    and operands too short to repay the call (``_BUILTIN_MAX_WORK``) go
    to ``pow`` itself.
    """

    name = "openssl"

    def __init__(self) -> None:
        self._lib = _load_libcrypto()
        self._scratch = _BigNumScratch(self._lib)
        # One bound object for every reader: ``core.verification``'s
        # ``u^count`` cache keys on it, and a fresh one per access would
        # compare by ``__eq__`` on each of fig9's ~130k hits.
        self.powmod = self.powmod  # type: ignore[method-assign]

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        if (
            exponent.bit_length() * modulus.bit_length() <= _BUILTIN_MAX_WORK
            or exponent < 0
            or modulus <= 0
            or base < 0
        ):
            return pow(base, exponent, modulus)
        lib = self._lib
        own = self._scratch
        for value, number in zip((base, exponent, modulus), own.operands):
            raw = value.to_bytes((value.bit_length() + 7) >> 3, "big")
            lib.BN_bin2bn(raw, len(raw), number)
        if not lib.BN_mod_exp(own.result, *own.operands, own.ctx):
            return pow(base, exponent, modulus)  # libcrypto out of memory
        out = own.out
        if len(raw) > len(out):  # raw: the modulus, which bounds the result
            out = own.out = lib.new_buffer(len(raw))
        return int.from_bytes(out[: lib.BN_bn2bin(own.result, out)], "big")


def gmpy2_available() -> bool:
    return _gmpy2 is not None


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``pow`` on the process's backend."""
    return default_backend().powmod(base, exponent, modulus)


#: name -> class, in ``auto``'s order of preference: the one list behind
#: availability, resolution and its error text.
_BACKENDS: Dict[str, type[Backend]] = {
    "gmpy2": Gmpy2Backend,
    "openssl": OpenSSLBackend,
    "python": PythonBackend,
}

#: name -> the process's instance, None when it cannot be built here.
_instances: Dict[str, Optional[Backend]] = {}


def _instance(name: str) -> Optional[Backend]:
    if name not in _instances:
        try:
            _instances[name] = _BACKENDS[name]()
        except RuntimeError:
            _instances[name] = None
    return _instances[name]


def available_backends() -> List[str]:
    """Names that can be built here, ``auto``'s choice first."""
    return [name for name in _BACKENDS if _instance(name) is not None]


def resolve_backend(choice: Optional[str] = None) -> Backend:
    """The backend named by ``choice`` or by the environment.

    Args:
        choice: a name of ``_BACKENDS``, ``"auto"`` or None.  None
            defers to the ``REPRO_CRYPTO_BACKEND`` environment variable,
            itself defaulting to ``auto``.

    ``auto`` is the first of ``_BACKENDS`` that can be built: gmpy2 when
    importable, else openssl when libcrypto loads, else Python.  An
    explicit name that cannot be built raises :class:`RuntimeError`, so
    a mis-provisioned deployment fails loudly instead of silently
    running 10x slower.
    """
    if choice is None:
        choice = os.environ.get(_ENV_VAR, "auto")
    choice = choice.lower()
    if choice == "auto":
        choice = next(name for name in _BACKENDS if _instance(name))
    elif choice not in _BACKENDS:
        raise ValueError(
            f"unknown crypto backend {choice!r}; "
            f"expected one of: auto, {', '.join(reversed(_BACKENDS))}"
        )
    # Building again what could not be built raises, naming the cause.
    return _instance(choice) or _BACKENDS[choice]()


def default_backend() -> Backend:
    """The environment-selected backend."""
    return resolve_backend(None)


class FixedBaseCache:
    """Fixed-base exponentiation: one base raised to many exponents.

    The monitor rekey path (message 8 of Fig. 6) raises the same
    attested hash to several wide cofactors.  The power ladder
    ``table[i] = base^(2^i) mod M`` turns every subsequent
    exponentiation into one modular multiplication per set exponent bit
    with *no* squarings, versus ``bits`` squarings plus multiplications
    for a cold ``pow``; one multiply per table entry, so the table
    amortises after a single reuse.  It grows lazily with the widest
    exponent seen.  (The narrow per-link primes read a
    :class:`NarrowLayout` table instead.)
    """

    __slots__ = ("base", "modulus", "_table")

    def __init__(self, base: int, modulus: int) -> None:
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        self.base = base % modulus
        self.modulus = modulus
        self._table: List[int] = []

    def powmod(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` using the precomputed table."""
        if exponent < 0:
            raise ValueError("exponent must be non-negative")
        m = self.modulus
        table = self._table
        while len(table) < exponent.bit_length():
            table.append(table[-1] * table[-1] % m if table else self.base)
        acc = 1
        index = 0
        while exponent:
            if exponent & 1:
                acc = acc * table[index] % m
            exponent >>= 1
            index += 1
        return acc


class NarrowLayout:
    """Shape of the fixed-base table read by one width of link primes.

    Every narrow exponent the protocol hashes under is a per-link prime
    from :class:`~repro.crypto.primes.PrimePool` or
    :func:`~repro.crypto.primes.generate_prime`, which force the top two
    bits and bit 0.  The table is cut to that family: the exponent is
    split into 4-bit middle windows, as many as leave at most 12 bits
    for the two end windows (4 to 6 bits each), and every window stores
    ``base^(digit * 2^shift)`` only for the digits a family member can
    show: odd ones in the low window, ``11xx..`` ones in the top window,
    all of them (digit 0 as the int ``1``) in the middle.  A family
    exponent therefore reads exactly one entry per window, whose
    product is the power: at 32 bits ``[6 | 4 | 4 | 4 | 4 | 4 | 6]`` =
    32 + 5 * 16 + 16 = 128 entries and always seven factors, where a
    uniform radix-16 table needs 120 entries, up to eight factors and a
    digit test per window (fixed-base windowing with non-uniform
    windows, HAC 14.6.3).  With 5-bit middle windows it would be six
    factors from 176 entries: 2% faster end to end and 2.5 MiB more on
    a 53 MiB run, which is why the middle windows are not wider.

    The layout is a pure function of the exponent's bit length, defined
    for 8 to 64 bits (:func:`narrow_layout`); a table serves the one
    width it was built for.
    """

    __slots__ = ("bits", "entries", "_low", "_top", "_picks")

    def __init__(self, bits: int) -> None:
        if not 8 <= bits <= 64:
            raise ValueError("narrow layouts cover 8- to 64-bit primes")
        middles = max(0, -(-(bits - 12) // 4))
        ends = bits - 4 * middles  # 8..12 bits for the two end windows
        self.bits = bits
        self._low = ends // 2
        self._top = ends - self._low
        #: (shift, mask, table offset) per window, low to high; the
        #: forced bits are shifted or masked out of the end digits.
        picks = [(1, (1 << (self._low - 1)) - 1, 0)]
        offset = 1 << (self._low - 1)
        for middle in range(middles):
            picks.append((self._low + 4 * middle, 15, offset))
            offset += 16
        picks.append((bits - self._top, (1 << (self._top - 2)) - 1, offset))
        self._picks = tuple(picks)
        self.entries = offset + (1 << (self._top - 2))

    def indices(self, exponent: int) -> Optional[Tuple[int, ...]]:
        """Table indices whose entries multiply to ``base ** exponent``.

        None when ``exponent`` is not a family member of this width
        (even, a top bit clear, or another bit length).
        """
        if not exponent & 1 or exponent >> (self.bits - 2) != 3:
            return None
        return tuple(
            [
                offset + (exponent >> shift & mask)
                for shift, mask, offset in self._picks
            ]
        )

    def table(self, base: int, modulus: int) -> Tuple[int, ...]:
        """The flat table of ``base``: a tuple of ``entries`` residues."""
        m = modulus
        generator = base % m  # base^(2^shift) of the window being filled
        table = []
        entry, stride = generator, generator * generator % m
        for _ in range(1 << (self._low - 1)):  # odd digits 1, 3, 5, ...
            table.append(entry)
            entry = entry * stride % m
        generator = table[-1] * generator % m
        for _ in range(len(self._picks) - 2):
            entry = 1
            for _ in range(16):
                table.append(entry)
                entry = entry * generator % m
            generator = entry
        entry = pow(generator, 3 << (self._top - 2), m)  # digit 1100..0
        for _ in range(1 << (self._top - 2)):
            table.append(entry)
            entry = entry * generator % m
        return tuple(table)


_NARROW_LAYOUTS = {bits: NarrowLayout(bits) for bits in range(8, 65)}


def narrow_layout(bits: int) -> Optional[NarrowLayout]:
    """The table layout for ``bits``-wide link primes (8..64), else None."""
    return _NARROW_LAYOUTS.get(bits)
