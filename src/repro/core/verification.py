"""Pure verification helpers: the homomorphic bookkeeping of sections IV-B/V.

These functions tie the wire messages to the hash algebra.  Everything a
monitor checks reduces to equalities between modular products; keeping
the arithmetic here makes the monitor state machine readable and lets
tests exercise the math in isolation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Tuple

from repro.core.messages import ServeEntry
from repro.crypto.homomorphic import HomomorphicHasher
from repro.gossip.updates import Update, content_integer

__all__ = [
    "entry_power",
    "split_products",
    "entries_product",
    "hash_product",
    "hash_entries",
    "serve_hashes",
    "ack_hash",
    "lift_attested",
    "combine_lifted",
    "BatchVerifier",
]


@lru_cache(maxsize=1 << 16)
def _entry_power(
    uid: int,
    session: int,
    count: int,
    modulus: int,
    powmod: Callable[[int, int, int], int],
) -> int:
    """``content(uid)^count mod modulus``, cached.

    With fanout f every update is typically received f times, so the
    same ``u^count`` term recurs in the server's, the receiver's and the
    monitors' folds of the same round — and in every successor's serve.
    The key is a small-int tuple (plus the backend primitive, so gmpy2
    and pure-Python results never share entries), much cheaper than
    re-reducing the 1024-bit content each time.
    """
    return powmod(content_integer(uid, session), count, modulus)


def entry_power(hasher: HomomorphicHasher, update: Update, count: int) -> int:
    """``u^count mod M``: one update's factor in every product below."""
    return _entry_power(
        update.uid,
        update.session,
        count,
        hasher.modulus,
        hasher.backend.powmod,
    )


def split_products(
    hasher: HomomorphicHasher, entries: Iterable[ServeEntry]
) -> Tuple[int, int]:
    """``(forward, ack_only)``: ``prod u^count mod M`` over each list.

    One pass over an exchange's entries with the two-list split of
    section V-D; an empty list multiplies to 1.  Reception
    multiplicities become exponents, as required for the monitors "to
    match the hashes of received updates with the ones of forwarded
    messages".  Each party computes the pair once per exchange from the
    entries it holds and hands it to :func:`serve_hashes`,
    :func:`ack_hash` and its self-checks.
    """
    forward = ack_only = 1
    modulus = hasher.modulus
    powmod = hasher.backend.powmod
    for entry in entries:
        update = entry.update
        power = _entry_power(
            update.uid, update.session, entry.count, modulus, powmod
        )
        if entry.ack_only:
            ack_only = ack_only * power % modulus
        else:
            forward = forward * power % modulus
    return forward, ack_only


def entries_product(
    hasher: HomomorphicHasher, entries: Iterable[ServeEntry]
) -> int:
    """``prod u^count mod M`` over serve entries (1 for an empty set)."""
    forward, ack_only = split_products(hasher, entries)
    return forward * ack_only % hasher.modulus


def hash_product(
    hasher: HomomorphicHasher, product: int, exponent: int
) -> int:
    """Hash of an entries product under ``exponent`` (neutral for 1)."""
    if product == 1:
        return 1 % hasher.modulus
    return hasher.hash(product, exponent)


def hash_entries(
    hasher: HomomorphicHasher,
    entries: Iterable[ServeEntry],
    exponent: int,
) -> int:
    """Hash of the entries' product under ``exponent``."""
    return hash_product(hasher, entries_product(hasher, entries), exponent)


def serve_hashes(
    hasher: HomomorphicHasher, products: Tuple[int, int], prime: int
) -> Tuple[int, int]:
    """The attestation pair (forward hash, ack-only hash) under a prime.

    Message 4 of Fig. 5, from an exchange's :func:`split_products`.
    """
    forward, ack_only = products
    return (
        hash_product(hasher, forward, prime),
        hash_product(hasher, ack_only, prime),
    )


def ack_hash(
    hasher: HomomorphicHasher, products: Tuple[int, int], key_prev: int
) -> int:
    """Message 5 hash: full served product under the server's K(R-1, A)."""
    forward, ack_only = products
    return hash_product(
        hasher, forward * ack_only % hasher.modulus, key_prev
    )


def lift_attested(
    hasher: HomomorphicHasher, attested_hash: int, cofactor: int
) -> int:
    """Message 8 computation: raise ``H(.)_(p_j)`` to ``prod_{k!=j} p_k``.

    By the re-keying property the result is ``H(.)_(K(R,B))``.  The
    neutral hash (empty product) lifts to itself.
    """
    if attested_hash == 1 % hasher.modulus:
        return attested_hash
    return hasher.rekey(attested_hash, cofactor)


def combine_lifted(hasher: HomomorphicHasher, lifted: Iterable[int]) -> int:
    """Section V-C: multiply per-predecessor lifted hashes.

    ``H(S_A ∪ S_F)_(K) = H(S_A)_(K) * H(S_F)_(K)`` — the monitors end the
    round knowing the hash of everything the node received, under the
    node's full round key.
    """
    return hasher.combine(lifted)


class BatchVerifier:
    """Batched monitor verification: one fold for a round's lift pairs.

    A monitor's obligation for a (monitored, round) cell is the product
    of per-predecessor message-8 lifts, ``prod_j H(S_j)^(c_j) mod M``.
    Computed pair by pair that costs one wide modular exponentiation per
    predecessor; because every pair shares the session modulus, the whole
    fold is a single multi-exponentiation
    (:meth:`~repro.crypto.backend.Backend.multi_powmod`, Straus's
    interleaving) — one shared squaring chain for the batch instead of
    one per pair.  The result is bit-identical to the per-pair fold: the
    algebra is the same product, evaluated in one pass.

    Accounting follows the hasher's protocol-level convention: each
    non-neutral pair added counts one :attr:`HomomorphicHasher.operations`
    at accumulation time (mirroring what a per-pair :func:`lift_attested`
    would have tallied) and lands in the ``batched_lifts`` cache bucket,
    so operation counts never depend on the fold strategy.

    The monitor engine drives this through :meth:`add`/:meth:`fold`
    alone, for the raw pairs of a daemon fleet's
    :class:`~repro.core.messages.AttestationRelayBatch`; lifts it had
    to materialise for broadcast stay in its ``_lifted`` store and
    multiply in afterwards.
    """

    __slots__ = ("hasher", "_pairs", "_result")

    def __init__(self, hasher: HomomorphicHasher) -> None:
        self.hasher = hasher
        self._pairs: list = []
        self._result = None

    def add(self, base: int, exponent: int, include: bool = True) -> None:
        """Accumulate one protocol-level lift ``base ** exponent``.

        Neutral bases (the empty-product hash) lift to themselves and
        are neither counted nor folded, exactly like
        :func:`lift_attested`.  With ``include=False`` the lift is
        tallied but left out of the fold — the acknowledge-only list of
        a declaration (section V-D) is acknowledged without entering the
        forwarding obligation.
        """
        hasher = self.hasher
        if base == 1 % hasher.modulus:
            return  # neutral hash: lifts to itself, exactly lift_attested
        if exponent <= 0:
            raise ValueError("hash exponent must be positive")
        hasher.operations += 1
        hasher.batched_lifts += 1
        if include:
            self._pairs.append((base, exponent))
            self._result = None

    def fold(self) -> int:
        """The accumulated obligation product (1 for an empty batch).

        Memoised until the next accumulation, so repeated server-side
        checks of one round pay the multi-exponentiation once.
        """
        if self._result is None:
            hasher = self.hasher
            self._result = hasher.backend.multi_powmod(
                self._pairs, hasher.modulus
            )
        return self._result
