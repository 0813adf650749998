"""Pluggable modular-arithmetic backends for the crypto hot path.

Every homomorphic-hash evaluation is one modular exponentiation, and the
paper's throughput numbers (Table I: 4,800 hashes/s/core with openssl)
hinge on how fast that primitive runs.  This module isolates the
primitive behind a tiny interface so the rest of the codebase never
calls ``pow`` directly on the hot path:

* :class:`PythonBackend` — CPython's built-in three-argument ``pow``;
  always available, the default.
* :class:`Gmpy2Backend` — GMP via ``gmpy2`` when the package is
  installed; an order of magnitude faster at the paper's 512-bit sizes.

Selection
---------
``resolve_backend("auto")`` (the default) picks gmpy2 when importable
and falls back to pure Python.  The choice can be forced per process
with the ``REPRO_CRYPTO_BACKEND`` environment variable (``python``,
``gmpy2`` or ``auto``) or per session via ``PagConfig.crypto_backend``.

Operation *counting* is deliberately not done here: backends are pure
arithmetic, and the Table I accounting lives at the protocol layer
(:class:`~repro.crypto.homomorphic.HomomorphicHasher`), so swapping
backends can never change reported operation counts.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Backend",
    "PythonBackend",
    "Gmpy2Backend",
    "FixedBaseCache",
    "SharedLadderTable",
    "window_schedule",
    "available_backends",
    "resolve_backend",
    "default_backend",
    "gmpy2_available",
    "multi_powmod",
]

_ENV_VAR = "REPRO_CRYPTO_BACKEND"

try:  # pragma: no cover - exercised only where gmpy2 is installed
    import gmpy2 as _gmpy2
except ImportError:  # pragma: no cover - the common case in CI
    _gmpy2 = None


def _multi_powmod_window(bits: int) -> int:
    """Window width for an interleaved multi-exponentiation.

    Standard windowing trade-off: per pair the table costs ``2^w - 2``
    multiplies while each window of the shared squaring pass costs at
    most one multiply per pair, so wider exponents amortise wider
    windows.  The thresholds mirror the usual square-and-multiply
    break-evens; the result is exact for every width, only the constant
    factor moves.
    """
    if bits <= 8:
        return 1
    if bits <= 24:
        return 2
    if bits <= 96:
        return 3
    return 4


class Backend:
    """Modular arithmetic primitive provider.

    Subclasses implement :meth:`powmod`; :meth:`mulmod` and
    :meth:`multi_powmod` have portable defaults.  Backends are stateless
    and shareable across hashers.
    """

    name: str = "abstract"

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        """``base ** exponent mod modulus`` for non-negative exponents."""
        raise NotImplementedError

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return (a * b) % modulus

    def multi_powmod(
        self, pairs: Iterable[Tuple[int, int]], modulus: int
    ) -> int:
        """``prod base_i ** exp_i mod modulus`` in one interleaved pass.

        Straus's algorithm (interleaved windowed multi-exponentiation,
        the small-batch end of Straus/Pippenger): all exponents share a
        single squaring chain — ``max_bits`` squarings total instead of
        ``k * max_bits`` — while per-pair window tables keep the
        multiply count at ``~bits/w`` each.  The result is bit-identical
        to folding per-pair ``powmod`` results, for any input.

        Args:
            pairs: iterable of ``(base, exponent)`` with non-negative
                exponents; an empty batch folds to the identity.
            modulus: shared modulus (> 0).
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        live = []
        for base, exponent in pairs:
            if exponent < 0:
                raise ValueError("exponents must be non-negative")
            if exponent:
                live.append((base % modulus, exponent))
        if not live:
            return 1 % modulus
        if len(live) == 1:
            return self.powmod(live[0][0], live[0][1], modulus)
        bits = max(exponent.bit_length() for _, exponent in live)
        w = _multi_powmod_window(bits)
        mask = (1 << w) - 1
        tables = []
        for base, _exponent in live:
            table = [base]
            for _ in range(mask - 1):
                table.append(table[-1] * base % modulus)
            tables.append(table)
        acc = 1
        for i in range((bits + w - 1) // w - 1, -1, -1):
            if acc != 1:
                for _ in range(w):
                    acc = acc * acc % modulus
            shift = w * i
            for table, (_base, exponent) in zip(tables, live):
                digit = (exponent >> shift) & mask
                if digit:
                    acc = acc * table[digit - 1] % modulus
        return acc % modulus

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
        self._mpz = _gmpy2.mpz

    def powmod(self, base: int, exponent: int, modulus: int) -> int:
        return int(self._powmod(base, exponent, modulus))

    def mulmod(self, a: int, b: int, modulus: int) -> int:
        return int(self._mpz(a) * b % modulus)

    def multi_powmod(
        self, pairs: Iterable[Tuple[int, int]], modulus: int
    ) -> int:
        """Straus interleaving over ``mpz`` limbs (GMP multiplies).

        Same algorithm and window policy as the portable default — the
        interleaved squaring chain is shared — with every product
        running in GMP, so the batched fold keeps its edge over per-pair
        ``powmod`` even on the fast backend.
        """
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        mpz = self._mpz
        m = mpz(modulus)
        live = []
        for base, exponent in pairs:
            if exponent < 0:
                raise ValueError("exponents must be non-negative")
            if exponent:
                live.append((mpz(base) % m, exponent))
        if not live:
            return 1 % modulus
        if len(live) == 1:
            return int(self._powmod(live[0][0], live[0][1], m))
        bits = max(exponent.bit_length() for _, exponent in live)
        w = _multi_powmod_window(bits)
        mask = (1 << w) - 1
        tables = []
        for base, _exponent in live:
            table = [base]
            for _ in range(mask - 1):
                table.append(table[-1] * base % m)
            tables.append(table)
        acc = mpz(1)
        for i in range((bits + w - 1) // w - 1, -1, -1):
            if acc != 1:
                for _ in range(w):
                    acc = acc * acc % m
            shift = w * i
            for table, (_base, exponent) in zip(tables, live):
                digit = (exponent >> shift) & mask
                if digit:
                    acc = acc * table[digit - 1] % m
        return int(acc % m)


def gmpy2_available() -> bool:
    return _gmpy2 is not None


def multi_powmod(
    pairs: Iterable[Tuple[int, int]],
    modulus: int,
    backend: Optional[Backend] = None,
) -> int:
    """``prod base_i ** exp_i mod modulus`` via one interleaved pass.

    Convenience wrapper over :meth:`Backend.multi_powmod` using the
    process-default backend when none is given.
    """
    return (backend or default_backend()).multi_powmod(pairs, modulus)


def available_backends() -> List[str]:
    names = ["python"]
    if gmpy2_available():
        names.append("gmpy2")
    return names


def resolve_backend(choice: Optional[str] = None) -> Backend:
    """Build the backend named by ``choice`` / the environment.

    Args:
        choice: ``"python"``, ``"gmpy2"``, ``"auto"`` or None.  None
            defers to the ``REPRO_CRYPTO_BACKEND`` environment variable,
            itself defaulting to ``auto``.

    ``auto`` prefers gmpy2 when importable, else pure Python.  Asking
    for gmpy2 explicitly when it is missing raises, so a mis-provisioned
    deployment fails loudly instead of silently running 10x slower.
    """
    if choice is None:
        choice = os.environ.get(_ENV_VAR, "auto")
    choice = choice.lower()
    if choice == "auto":
        return Gmpy2Backend() if gmpy2_available() else PythonBackend()
    if choice == "python":
        return PythonBackend()
    if choice == "gmpy2":
        return Gmpy2Backend()
    raise ValueError(
        f"unknown crypto backend {choice!r}; "
        f"expected one of: auto, python, gmpy2"
    )


_default: Optional[Backend] = None


def default_backend() -> Backend:
    """Process-wide backend singleton (env-selected, built lazily)."""
    global _default
    if _default is None:
        _default = resolve_backend()
    return _default


def window_schedule(exponent: int, window: int) -> Tuple[int, ...]:
    """Flat-table indices of the non-zero radix-``2^window`` digits.

    The index of digit ``j`` at level ``i`` in a :class:`FixedBaseCache`
    table is ``i * (2^window - 1) + j - 1``; indices come out ascending,
    so the last one is the deepest entry the exponent needs.  Computed
    once per exponent and shared by every base raised to it.
    """
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    mask = (1 << window) - 1
    indices = []
    offset = -1
    while exponent:
        digit = exponent & mask
        if digit:
            indices.append(offset + digit)
        exponent >>= window
        offset += mask
    return tuple(indices)


class FixedBaseCache:
    """Fixed-base exponentiation: one base raised to many exponents.

    Two call sites repeatedly exponentiate the same base: buffermap and
    serve-membership hashing (each update content is hashed under a
    fresh prime per link per round) and the monitor rekey path
    (message 8 of Fig. 6 raises the same attested hash to several
    cofactors).  Precomputing the radix-``2^w`` table
    ``base^(j * 2^(w*i)) mod M`` turns every subsequent exponentiation
    into ~``bits/w`` modular multiplications with *no* squarings,
    versus ``bits`` squarings plus multiplications for a cold ``pow``.

    ``window=1`` degenerates to the classic power ladder — one multiply
    per table level, so the table amortises after a single reuse; use
    it for bases expected to see only a few wide exponents.  ``window=4``
    quarters the per-call multiplies at a table cost of 15 multiplies
    per 4 exponent bits; use it for heavily reused bases.  The table
    grows lazily with the widest exponent seen.

    The table is one flat sequence, level after level: entry
    ``i * (2^w - 1) + j - 1`` holds ``base^(j * 2^(w*i))``.  A flat
    layout lets many bases be read through one precomputed index list
    (:func:`window_schedule`, :meth:`powmod_scheduled`).
    """

    __slots__ = ("base", "modulus", "window", "_mask", "_table")

    def __init__(self, base: int, modulus: int, window: int = 1) -> None:
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if window < 1:
            raise ValueError("window must be at least 1 bit")
        self.base = base % modulus
        self.modulus = modulus
        self.window = window
        self._mask = (1 << window) - 1
        self._table: Sequence[int] = []

    @classmethod
    def from_shared(
        cls,
        base: int,
        modulus: int,
        window: int,
        table: Tuple[int, ...],
    ) -> "FixedBaseCache":
        """Wrap a precomputed (read-only) flat table without rebuilding.

        ``table`` comes from a :class:`SharedLadderTable` and is adopted
        by reference — no copy, safe across threads and cheap across
        forked processes.  Lazy growth replaces it with a local list
        (:meth:`_grow`), so the shared tuple is never touched.
        """
        cache = cls(base, modulus, window)
        cache._table = table
        return cache

    @property
    def levels(self) -> int:
        """Table depth: exponents below ``2^(window * levels)`` are covered."""
        return len(self._table) // self._mask

    def _grow(self, levels: int) -> Sequence[int]:
        """Extend the table to at least ``levels`` levels; returns it."""
        m = self.modulus
        mask = self._mask
        table = self._table
        if not isinstance(table, list):
            table = self._table = list(table)
        while len(table) < levels * mask:
            # Generator of the next level: base^(2^(w*i)) is the previous
            # level's widest entry times its own generator (j = 2^w - 1
            # plus j = 1).
            top = table[-1] * table[-mask] % m if table else self.base
            entry = top
            table.append(entry)
            for _ in range(mask - 1):
                entry = entry * top % m
                table.append(entry)
        return table

    def powmod(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` using the precomputed table."""
        return self.powmod_scheduled(window_schedule(exponent, self.window))

    def powmod_scheduled(self, schedule: Sequence[int]) -> int:
        """``base ** e mod modulus`` for ``schedule = window_schedule(e, w)``.

        The shared-exponent kernel: the caller decomposes the exponent
        once and every base only walks the index list — the first factor
        is taken as is, capacity is checked once against the deepest
        index, and no digit is re-derived.
        """
        if not schedule:
            return 1
        table = self._table
        if schedule[-1] >= len(table):
            table = self._grow(schedule[-1] // self._mask + 1)
        m = self.modulus
        indices = iter(schedule)
        acc = table[next(indices)]
        for index in indices:
            acc = acc * table[index] % m
        return acc


class SharedLadderTable:
    """Precomputed, read-only fixed-base tables for hot bases.

    A :class:`FixedBaseCache` is rebuilt from scratch by every hasher
    that meets a base — which means every worker replica of a parallel
    run rebuilds *identical* tables for the session-lifetime bases (the
    deterministic update contents a stream schedule will release).  This
    table holds them once, built in the parent before the worker pools
    start: process workers inherit the pages for free on fork, and the
    structure is plain tuples of ints so it pickles cleanly for
    spawn-mode workers (it travels with the session bootstrap).

    Entries are keyed by the raw base value exactly as hashers see it
    (update contents are *not* pre-reduced), and every table is one
    immutable flat tuple in :class:`FixedBaseCache` layout — adopters
    hold it by reference, so concurrent readers can never observe a
    mutation.
    """

    __slots__ = ("modulus", "window", "_entries")

    def __init__(
        self,
        modulus: int,
        window: int,
        entries: Dict[int, Tuple[int, ...]],
    ) -> None:
        if modulus <= 1:
            raise ValueError("modulus must exceed 1")
        if window < 1:
            raise ValueError("window must be at least 1 bit")
        self.modulus = modulus
        self.window = window
        #: base -> flat table, directly adoptable by
        #: FixedBaseCache.from_shared.
        self._entries = entries

    @classmethod
    def build(
        cls,
        bases: Iterable[int],
        modulus: int,
        window: int = 4,
        capacity_bits: int = 64,
    ) -> "SharedLadderTable":
        """Precompute tables covering ``capacity_bits`` exponents.

        Args:
            bases: base values (deduplicated; stored under the raw,
                unreduced key the hashers use).
            modulus: the session modulus.
            window: radix width (4 matches the hasher's choice for the
                narrow per-link prime exponents).
            capacity_bits: widest exponent the shared tables must cover;
                wider exponents grow locally in the adopting cache.
        """
        levels_needed = max(1, -(-capacity_bits // window))
        entries = {}
        for base in bases:
            if base in entries:
                continue
            # Reuse FixedBaseCache's own (tested) table construction and
            # freeze the result, so the shared layout can never drift
            # from what from_shared adopters expect.
            cache = FixedBaseCache(base, modulus, window=window)
            entries[base] = tuple(cache._grow(levels_needed))
        return cls(modulus, window, entries)

    def get(self, base: int) -> Optional[Tuple[int, ...]]:
        """The flat table for ``base``, or None when not tabled."""
        return self._entries.get(base)

    def __contains__(self, base: int) -> bool:
        return base in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SharedLadderTable bases={len(self._entries)} "
            f"window={self.window} modulus_bits={self.modulus.bit_length()}>"
        )
