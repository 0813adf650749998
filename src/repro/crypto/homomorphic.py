"""Homomorphic hashing — the privacy building block of PAG (section IV-B).

The hash is an unpadded RSA encryption: for a public modulus ``M`` and an
exponent ``p`` (a prime chosen by the receiving node),

    H(u)_(p, M) = u ** p  mod M.

Two multiplicative properties make the monitoring checks possible without
revealing update contents:

    H(u1)_(p,M) * H(u2)_(p,M)    = H(u1 * u2)_(p,M)          (product)
    H( H(u)_(p1,M) )_(p2,M)      = H(u)_(p1 * p2, M)          (re-keying)

A node B chooses a fresh prime ``p_i`` per predecessor each round; the
round key is ``K(R, B) = prod_i p_i``.  Monitors only ever see hashes and
the products of the *other* primes, so recovering an individual link key
requires factoring the product — hard by assumption (section IV-B) — and
recovering an update from its hash would require inverting unpadded RSA.

The paper recommends a 512-bit modulus (following the 2014 ENISA report)
and notes that 256 bits may be acceptable; both are exercised in the
benchmarks.  Updates hashed here are arbitrary integers; real updates are
*larger* than the modulus, which is exactly why the hash is not
invertible ("nodes cannot decrypt the hashed updates, as the value of the
modulus M is smaller than the size of updates").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import prod
from operator import itemgetter
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.backend import (
    _WIDE_MODULUS_BITS,
    Backend,
    FixedBaseCache,
    OpenSSLBackend,
    PythonBackend,
    SharedLadderTable,
    default_backend,
    narrow_layout,
)
from repro.crypto.primes import generate_prime, is_prime, product

__all__ = [
    "HomomorphicHasher",
    "make_modulus",
    "DEFAULT_MODULUS_BITS",
    "DEFAULT_PRIME_BITS",
]

DEFAULT_MODULUS_BITS = 512
DEFAULT_PRIME_BITS = 512

#: Bound on the (value, exponent) -> hash memo; when full, the oldest
#: half is evicted (insertion order), which is cheap and good enough
#: for the round-local reuse pattern.
#:
#: 512 entries, down from 16k: the memo's only recurring pattern at
#: simulation modulus sizes is the server/receiver ack-hash pair of one
#: exchange, whose reuse distance is drain-local — measured hit counts
#: are identical at 512 and 16384 entries on 40- and 120-node sessions
#: (``tests/crypto/test_memo_sizing.py`` regresses this), so the other
#: 16 KB of bigint pairs per worker were pure ballast.
_MEMO_MAX = 1 << 9

#: Bound on the per-base fixed-base ladder cache used by hot bases.
_FIXED_BASE_MAX = 1024

#: Backstop of the link memo for callers that never end a round (a node
#: clears it then); ~9,000 entries are in flight in a 1,000-node step.
_LINK_MAX = 1 << 15

#: A fixed-base table beats built-in ``pow`` when squarings dominate: for
#: small exponents (the per-link primes; pow re-reduces the wide update
#: base every call) and at production modulus widths (where each C-level
#: multiply is expensive enough to amortise the interpreter loop).  For
#: wide exponents over a narrow simulation modulus, built-in pow wins.
_SMALL_EXPONENT_BITS = 64

#: Tag of a wide-exponent power ladder in ``_fixed_bases`` (narrow
#: tables are tagged with their prime width, 8..64).
_LADDER = 0


def _family_indices(exponent: int) -> Optional[Tuple[int, ...]]:
    """Narrow-table indices of a link-prime-shaped exponent, else None."""
    layout = narrow_layout(exponent.bit_length())
    return layout.indices(exponent) if layout is not None else None


def make_modulus(bits: int, rng: random.Random) -> int:
    """Create an RSA-style modulus ``M = p * q`` of roughly ``bits`` bits.

    The factorisation is discarded: nobody in the system needs it, and
    the hash's one-wayness rests on it staying unknown.
    """
    if bits < 16:
        raise ValueError("modulus below 16 bits is degenerate")
    half = bits // 2
    p = generate_prime(half, rng)
    q = generate_prime(bits - half, rng)
    while q == p:
        q = generate_prime(bits - half, rng)
    return p * q


@dataclass
class HomomorphicHasher:
    """Stateful hasher bound to one public modulus ``M``.

    All PAG participants in one deployment share the modulus (it is a
    public protocol parameter, like a group description).  The instance
    counts hash evaluations so simulations can report cryptographic cost
    the way Table I of the paper does.

    Attributes:
        modulus: the public RSA-style modulus ``M``.
        operations: number of modular exponentiations performed, i.e. the
            "homomorphic hashes per second" unit of Table I.  Counted at
            the protocol-call level (one per :meth:`hash`/:meth:`rekey`),
            so backend swaps and result caching never change the tally.
        backend: modular-arithmetic provider; None selects the process
            default for the modulus width (``resolve_backend``).
        memo_max: entry bound of the wide-exponent memo (memory ceiling
            for long runs; the oldest half is evicted when full).
        fixed_base_max: bound on the number of bases holding a
            fixed-base window table.
    """

    modulus: int
    operations: int = field(default=0, compare=False)
    backend: Optional[Backend] = field(
        default=None, compare=False, repr=False
    )
    memo_max: int = field(default=_MEMO_MAX, compare=False)
    fixed_base_max: int = field(default=_FIXED_BASE_MAX, compare=False)
    #: cache accounting: protocol-level calls answered by the memo, by a
    #: fixed-base table, by a cold exponentiation, or folded into a
    #: batched multi-exponentiation (every call lands in exactly one
    #: bucket, so their sum always equals ``operations``).
    memo_hits: int = field(default=0, compare=False)
    fixed_base_hits: int = field(default=0, compare=False)
    cold_powmods: int = field(default=0, compare=False)
    batched_lifts: int = field(default=0, compare=False)
    #: fixed-base tables answered from a shared precomputed ladder
    #: instead of being rebuilt (subset of ``fixed_base_hits``).
    shared_ladder_seeds: int = field(default=0, compare=False)
    #: population-tier accounting: protocol-level hashes that were never
    #: evaluated because an equivalence class representative had already
    #: been computed (``PopulationPlane``).  Deliberately NOT part of
    #: ``operations``, so full-fidelity tallies stay bit-identical; the
    #: population tier reports real + memoised work side by side.
    memoised_operations: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.modulus < 4:
            raise ValueError("modulus must be a composite >= 4")
        if is_prime(self.modulus):
            raise ValueError(
                "modulus must be composite (RSA-style p*q); a prime modulus "
                "makes discrete roots easy and breaks one-wayness"
            )
        if self.backend is None:
            self.backend = default_backend(self.modulus.bit_length())
        self._powmod = self.backend.powmod
        #: (value, exponent) -> hash result.  The same exchange hash is
        #: recomputed by the server, the receiver, and the monitors; the
        #: memo collapses those to one exponentiation (while `operations`
        #: still counts every protocol-level evaluation).
        self._memo: dict = {}
        #: what one end of a link left for the other (same hasher): prime
        #: -> (updates, results) of a batch, (update, prime) -> a ``hash``.
        self._link: dict = {}
        #: fixed-base fast path: base -> (tag, table), built from the
        #: second hashing of a base onward (building costs one pow).
        #: Covers the buffermap/serve membership hashes (the same update
        #: contents hashed under a fresh prime per link per round; tag =
        #: the prime width, a flat NarrowLayout tuple) and the monitor
        #: rekey path (the same attested hash raised to many cofactors;
        #: tag = _LADDER, a FixedBaseCache ladder).  One table per base.
        self._fixed_bases: dict = {}
        self._hot_candidates: set = set()
        #: read-only precomputed ladder levels for session-lifetime
        #: bases (see :meth:`adopt_shared_ladders`).
        self._shared_ladders: Optional[SharedLadderTable] = None
        #: narrow tables: seven interpreted multiplies beat builtin pow
        #: and any FFI call, but not gmpy2's own ints.
        self._use_fixed_base = isinstance(
            self.backend, (PythonBackend, OpenSSLBackend)
        )
        #: the wide ladder only beats pow when pow itself runs in the
        #: interpreter's bigint code, and only at production widths.
        self._use_ladder = (
            isinstance(self.backend, PythonBackend)
            and self.modulus.bit_length() >= _WIDE_MODULUS_BITS
        )

    @property
    def byte_size(self) -> int:
        """Wire size of one hash value (the paper uses 64 B for 512 bits)."""
        return (self.modulus.bit_length() + 7) // 8

    def hash(self, update: int, exponent: int) -> int:
        """Compute ``H(update)_(exponent, M) = update^exponent mod M``.

        Args:
            update: update content as an integer (any size; reduced mod M).
            exponent: hashing key — a prime or a product of primes.

        A narrow exponent of the link-prime family (odd, top two bits
        set, 8 to 64 bits: everything ``PrimePool`` and
        ``generate_prime`` return) reads the base's
        :class:`~repro.crypto.backend.NarrowLayout` table, built for
        that width on the base's second sighting.  Any other narrow
        exponent — even, a top bit clear, under 8 bits (the empty
        round key 1), or of a width the base's table was not built for
        (a two-prime round key beside 32-bit link primes) — is a
        builtin ``pow`` in the ``cold_powmods`` bucket: ~1,100 of the
        305,777 calls of a 120-node, 10-round run.
        """
        if exponent <= 0:
            raise ValueError("hash exponent must be positive")
        self.operations += 1
        # Narrow exponents (the per-link primes): fixed-base tables win,
        # and the link's other end takes the result this end leaves.
        if self._use_fixed_base and (
            exponent.bit_length() <= _SMALL_EXPONENT_BITS
        ):
            indices = _family_indices(exponent)
            if indices is None:
                self.cold_powmods += 1
                return self._powmod(update, exponent, self.modulus)
            result = self._link.pop((update, exponent), None)
            if result is not None:
                self.memo_hits += 1
                return result
            result = self._hash_narrow(update, exponent, indices)
            self._leave((update, exponent), result)
            return result
        # Wide exponents (round-key and cofactor products): each
        # evaluation costs tens of microseconds and the same hash is
        # recomputed by the server, the receiver and the monitors, so
        # memoise by value (`operations` already counted the call).
        memo = self._memo
        key = (update, exponent)
        result = memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        if self._use_ladder:
            ladder = self._table_for(update, _LADDER)
            if ladder is None:
                result = self._powmod(update, exponent, self.modulus)
            else:
                result = ladder.powmod(exponent)
        else:
            self.cold_powmods += 1
            result = self._powmod(update, exponent, self.modulus)
        if len(memo) >= self.memo_max:
            self._evict(memo)
        memo[key] = result
        return result

    def hash_many(self, updates: Iterable[int], exponent: int) -> List[int]:
        """``[hash(u, exponent) for u in updates]`` in one call.

        The membership hashes of one link — B's buffermap (message 2 of
        Fig. 5) and A's ownership test of its forward set — raise many
        update contents to the *same* fresh prime.  The first end leaves
        ``(updates, results)`` under the prime; the second end takes
        them (``memo_hits``) and hashes only the rest.  The kernel
        derives the table indices once, gathers the bases' tables, and
        when every base holds one of the prime's width it is one
        comprehension of ``len(indices)`` factors per base; else it runs
        per item (a first sighting is a cold ``pow``, a second builds
        the table, evictions happen in order).  Values and
        ``operations`` are always the per-item loop's; so are the
        buckets when nothing was left under the prime.  Other exponents
        and backends without tables take :meth:`hash` per item.
        """
        if exponent <= 0:
            raise ValueError("hash exponent must be positive")
        updates = list(updates)
        indices = _family_indices(exponent) if self._use_fixed_base else None
        if indices is None:
            return [self.hash(update, exponent) for update in updates]
        self.operations += len(updates)
        left = self._link.pop(exponent, None)
        if left is None or not updates:
            results = self._hash_batch(updates, exponent, indices)
            if left is None:
                self._leave(exponent, (updates, results))
            return results
        known = dict(zip(*left))
        results = list(map(known.get, updates))
        rest = [u for u, result in zip(updates, results) if result is None]
        self.memo_hits += len(updates) - len(rest)
        fill = iter(self._hash_batch(rest, exponent, indices))
        return [next(fill) if r is None else r for r in results]

    def _hash_batch(
        self, updates: List[int], exponent: int, indices: Any
    ) -> List[int]:
        """Link-prime hashes from the bases' tables; books their buckets."""
        entries = list(map(self._fixed_bases.get, updates))
        if None not in entries:
            bits = exponent.bit_length()
            pick = itemgetter(*indices)
            modulus = self.modulus
            results = [
                prod(pick(table)) % modulus
                for tag, table in entries
                if tag == bits
            ]
            if len(results) == len(entries):
                self.fixed_base_hits += len(results)
                return results
        return [self._hash_narrow(u, exponent, indices) for u in updates]

    def _hash_narrow(self, update: int, exponent: int, indices: Any) -> int:
        table = self._table_for(update, exponent.bit_length())
        if table is None:
            return self._powmod(update, exponent, self.modulus)
        return prod([table[i] for i in indices]) % self.modulus

    def _leave(self, key: Any, value: Any) -> None:
        """Leave ``value`` in the link memo for the link's other end."""
        if len(self._link) >= _LINK_MAX:
            self._evict(self._link)
        self._link[key] = value

    def forget_links(self) -> None:
        """A round ended: nobody will ask for what is still left."""
        self._link.clear()

    def _table_for(self, update: int, tag: int) -> Any:
        """The table of ``update`` serving exponents of shape ``tag``.

        ``tag`` is a link-prime width (a flat narrow table comes back)
        or ``_LADDER`` (a :class:`FixedBaseCache` ladder, which amortises
        after a single reuse of a wide exponent).  Books the call: a
        held or adopted table is a ``fixed_base_hit``; None means the
        caller runs a cold ``pow`` — the base's first sighting, or a
        base whose table has another shape; the second sighting builds
        the table, which costs about one ``pow`` and is booked as one.

        Bases present in an adopted :class:`SharedLadderTable` of this
        width skip the warm-up: the precomputed tuple is held by
        reference, no exponentiations.
        """
        entry = self._fixed_bases.get(update)
        if entry is not None:
            if entry[0] == tag:
                self.fixed_base_hits += 1
                return entry[1]
            self.cold_powmods += 1
            return None
        table: Any = None
        shared = self._shared_ladders
        if shared is not None and shared.bits == tag:
            table = shared.get(update)
        if table is not None:
            self.fixed_base_hits += 1
            self.shared_ladder_seeds += 1
        else:
            self.cold_powmods += 1
            hot = self._hot_candidates
            if update not in hot:
                hot.add(update)
                if len(hot) > self.fixed_base_max * 4:
                    hot.clear()
                return None
            layout = narrow_layout(tag)
            if layout is None:
                table = FixedBaseCache(update, self.modulus)
            else:
                table = layout.table(update, self.modulus)
        if len(self._fixed_bases) >= self.fixed_base_max:
            self._evict(self._fixed_bases)
        self._fixed_bases[update] = (tag, table)
        return table

    def adopt_shared_ladders(
        self, table: Optional[SharedLadderTable]
    ) -> None:
        """Serve fixed-base misses from a precomputed read-only table.

        Built once (typically in the parent of a parallel run, before
        the workers start) and adopted by every replica's hasher,
        so per-shard replicas stop rebuilding identical ladder tables
        for the session-lifetime bases.  A no-op under backends that do
        not use the table fast path (gmpy2 beats it outright).
        """
        if table is None:
            return
        if table.modulus != self.modulus:
            raise ValueError(
                "shared ladder table was built for a different modulus"
            )
        if self._use_fixed_base:
            self._shared_ladders = table

    @staticmethod
    def _evict(memo: dict) -> None:
        """Drop the oldest half of a bounded memo (insertion order)."""
        for key in list(memo.keys())[: len(memo) // 2]:
            del memo[key]

    def hash_set(self, updates: Iterable[int], exponent: int) -> int:
        """Hash of the product of a set of updates under one exponent.

        This is the quantity ``H(prod_{i in S} u_i)_(p, M)`` exchanged in
        messages 4 and 5 of Fig. 5.  The product is reduced modulo M
        before exponentiation, which is algebraically identical.
        """
        acc = 1
        empty = True
        for update in updates:
            acc = (acc * update) % self.modulus
            empty = False
        if empty:
            # The hash of an empty set is the multiplicative identity:
            # an Ack over "nothing received" combines neutrally.
            return 1 % self.modulus
        return self.hash(acc, exponent)

    def rekey(self, hashed: int, exponent: int) -> int:
        """Raise an existing hash to another exponent.

        Uses the re-keying property: ``rekey(H(u)_(p1), p2)`` equals
        ``H(u)_(p1*p2)``.  This is what a monitor does in message 8 of
        Fig. 6 when it raises an attested hash to the product of the
        monitored node's *other* primes.

        The same attested hash is typically lifted to several cofactors
        within a round; from the second hashing of a base onward the
        hasher switches that base to a fixed-base power ladder
        (:class:`~repro.crypto.backend.FixedBaseCache`), which skips all
        the squarings a cold ``pow`` would redo.
        """
        return self.hash(hashed, exponent)

    def combine(self, hashes: Iterable[int]) -> int:
        """Multiply hash values (the product property).

        Monitors combine the per-predecessor hashes of everything a node
        received during a round into one value under ``K(R, B)``
        (section V-C):  ``H(S_A ∪ S_F) = H(S_A) * H(S_F)`` when both are
        keyed by the same exponent.
        """
        acc = 1 % self.modulus
        for h in hashes:
            acc = (acc * h) % self.modulus
        return acc

    def verify_forwarding(
        self,
        attested: Sequence[tuple[int, int]],
        acknowledged: int,
    ) -> bool:
        """Check the forwarding equation of section IV-B.

        All pairs fold in one Straus multi-exponentiation pass (one
        shared squaring chain); ``operations`` counts one
        protocol-level lift per pair, booked as ``batched_lifts``.

        Args:
            attested: pairs ``(hash_value, cofactor)`` where hash_value is
                ``H(S_j)_(p_j, M)`` declared by predecessor j and cofactor
                is ``prod_{i != j} p_i``, the product of the node's other
                primes for the round.
            acknowledged: ``H(prod of all updates)_(prod_i p_i, M)`` as
                acknowledged by a successor.

        Returns:
            True when the homomorphically-raised attested hashes multiply
            to the acknowledged hash:

                prod_j (H(S_j)_(p_j))^(prod_{i!=j} p_i)  mod M
                    == H(S_1 * ... * S_k)_(prod_i p_i)
        """
        pairs = list(attested)
        for _hash_value, cofactor in pairs:
            if cofactor <= 0:
                raise ValueError("hash exponent must be positive")
        self.operations += len(pairs)
        self.batched_lifts += len(pairs)
        product = self.backend.multi_powmod(pairs, self.modulus)
        return product == acknowledged % self.modulus

    def cache_stats(self) -> dict:
        """Cache accounting, read by the benchmark's traced run.

        Rates are fractions of the protocol-level calls answered
        without a cold exponentiation (``memo_hits``: by the wide memo
        or the link memo); ``memo_entries`` and ``fixed_base_entries``
        are the wide memo's and the tables' occupancy against their
        bounds.  The denominator is the full protocol-level call count
        — every call lands in exactly one of the four buckets, so
        ``calls`` equals :attr:`operations` even after a parallel run
        grafts summed worker counter deltas back onto the parent hasher.
        """
        calls = (
            self.memo_hits
            + self.fixed_base_hits
            + self.cold_powmods
            + self.batched_lifts
        )
        return {
            "memo_hits": self.memo_hits,
            "fixed_base_hits": self.fixed_base_hits,
            "cold_powmods": self.cold_powmods,
            "batched_lifts": self.batched_lifts,
            "shared_ladder_seeds": self.shared_ladder_seeds,
            "memoised_operations": self.memoised_operations,
            "shared_ladder_bases": (
                len(self._shared_ladders)
                if self._shared_ladders is not None
                else 0
            ),
            "memo_hit_rate": self.memo_hits / calls if calls else 0.0,
            "fixed_base_hit_rate": (
                self.fixed_base_hits / calls if calls else 0.0
            ),
            "memo_entries": len(self._memo),
            "memo_max": self.memo_max,
            "fixed_base_entries": len(self._fixed_bases),
            "fixed_base_max": self.fixed_base_max,
        }

    def reset_counter(self) -> int:
        """Return the operation count and reset it to zero."""
        count = self.operations
        self.operations = 0
        return count


def fresh_hasher(
    bits: int = DEFAULT_MODULUS_BITS, seed: int | None = None
) -> HomomorphicHasher:
    """Convenience constructor used by tests and examples."""
    rng = random.Random(seed)
    return HomomorphicHasher(modulus=make_modulus(bits, rng))


__all__.append("fresh_hasher")
