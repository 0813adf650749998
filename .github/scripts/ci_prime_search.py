#!/usr/bin/env python
"""Stopwatch of the prime pool's window search, sieve and tester apart.

For 32, 128, 512 and 1024 bits, the same 25 windows of a
``PrimePool`` at a fixed seed, best of five passes with the garbage
collector off:

* ms per window with Miller-Rabin stubbed out -- the base draw, the
  two-pass crossing and the scan for survivors, no exponentiation;
* odd sieve primes crossed and survivors per window;
* witnesses (one modular exponentiation each) per prime found, and
  ms per prime under each of ``available_backends()``.

Every window's survivors are first checked equal to the per-prime
crossing loop the two passes replaced (kept below and in
``tests/crypto/test_primes.py``), so a table is never printed for a
sieve that lets another candidate through.

This is the instrument the depth rule's comment in
``repro/crypto/primes.py``, the ``PrimePool`` docstring and
PERFORMANCE.md's "Prime generation at paper sizes" are read from.
Timings on a shared runner are recorded, not judged.

Usage: PYTHONPATH=src python .github/scripts/ci_prime_search.py
"""

from __future__ import annotations

import gc
import random
import time
from typing import Callable, List, Tuple

from repro.crypto import primes
from repro.crypto.backend import available_backends, resolve_backend

WIDTHS = (32, 128, 512, 1024)
WINDOWS = 25
SEED = 20160627
PASSES = 5


def reference_survivors(base: int, bits: int, span: int) -> bytearray:
    """The crossing loop as it stood before the two passes."""
    survivors = bytearray(span)
    for p in primes._sieve_small_primes(primes._sieve_limit(bits))[1:]:
        k = (-base % p) * ((p + 1) // 2) % p
        if base + 2 * k == p:
            k += p
        if k < span:
            survivors[k::p] = b"\x01" * len(range(k, span, p))
    return survivors


def expected_survivors(bits: int) -> List[int]:
    """What the reference lets through on the ``WINDOWS`` windows a
    pool at ``SEED`` draws when no tester touches its generator."""
    rng = random.Random(SEED)
    top = (1 << bits) - 1
    window = primes.PrimePool(bits, rng).window
    expected = []
    for _ in range(WINDOWS):
        base = rng.getrandbits(bits) | (0b11 << (bits - 2)) | 1
        span = min(window, (top - base) // 2 + 1)
        crossed = reference_survivors(base, bits, span)
        expected += [base + 2 * k for k in range(span) if not crossed[k]]
    return expected


def best_ms(refills: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        refills()
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def run_windows(bits: int) -> primes.PrimePool:
    pool = primes.PrimePool(bits, random.Random(SEED))
    for _ in range(WINDOWS):
        pool._refill()
    return pool


def crossing(bits: int) -> Tuple[float, float]:
    """``(ms per window, survivors per window)`` with the tester
    stubbed out, after the survivors are checked."""
    reached: List[int] = []

    def composite(n: int, *_: object) -> Tuple[bool, int]:
        reached.append(n)
        return False, 1

    tester = primes._miller_rabin_tests
    primes._miller_rabin_tests = composite
    try:
        run_windows(bits)
        if reached != expected_survivors(bits):
            raise AssertionError(
                f"{bits}-bit survivors differ from the reference loop"
            )
        survivors = len(reached) / WINDOWS
        return best_ms(lambda: run_windows(bits)) / WINDOWS, survivors
    finally:
        primes._miller_rabin_tests = tester


def search(bits: int, backend_name: str) -> Tuple[float, float]:
    """``(witnesses per prime, ms per prime)`` under one backend."""
    backend = resolve_backend(backend_name)
    selector = primes.default_backend
    primes.default_backend = lambda *_: backend  # older trees pass a width
    try:
        pool = run_windows(bits)
        found = len(pool._seen)
        ms = best_ms(lambda: run_windows(bits))
        return pool.witness_tests / found, ms / found
    finally:
        primes.default_backend = selector


def main() -> int:
    backends = available_backends()
    gc.collect()
    gc.disable()
    try:
        print(
            f"PrimePool window search: {WINDOWS} windows at seed {SEED}, "
            f"best of {PASSES} passes, gc off"
        )
        header = (
            "| bits | sieve primes | ms/window, no tester | survivors "
            "| witnesses/prime |"
        )
        for name in backends:
            header += f" `{name}` ms/prime |"
        print(header)
        print("|" + "---:|" * (5 + len(backends)))
        for bits in WIDTHS:
            depth = len(primes._sieve_small_primes(primes._sieve_limit(bits)))
            ms_window, survivors = crossing(bits)
            searches = [search(bits, name) for name in backends]
            row = (
                f"| {bits} | {depth - 1:,} | {ms_window:.3f} "
                f"| {survivors:.1f} | {searches[0][0]:.1f} |"
            )
            for _, ms_prime in searches:
                row += f" {ms_prime:.3f} |"
            print(row)
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
