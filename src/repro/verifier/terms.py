"""Symbolic term algebra for the Dolev-Yao analysis of PAG.

The paper verifies privacy property P1 with ProVerif (section VI-A); we
reproduce the analysis with a small, purpose-built symbolic engine in
place of ProVerif.  Messages are terms; the attacker is a deduction
system over sets of terms.

The algebra models exactly the operations PAG relies on:

* pairing, asymmetric encryption, signatures (content-revealing);
* products of primes, with the *division* capability — knowing
  ``p1*p2*p3`` and ``p2, p3`` yields ``p1`` — but no factoring;
* the homomorphic hash with its two identities, normalised by
  construction: a hash is always ``HHash(product-of-updates,
  product-of-primes)``, so re-keying and combination are multiset
  unions and the equational theory becomes syntactic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

__all__ = [
    "Term",
    "Atom",
    "PubKey",
    "PrivKey",
    "Pair",
    "AEnc",
    "Sig",
    "Prod",
    "HHash",
    "Multiset",
    "multiset",
    "multiset_union",
    "multiset_subtract",
    "is_subset",
]

#: A multiset over atom names: sorted tuple of (name, multiplicity).
Multiset = Tuple[Tuple[str, int], ...]


def multiset(items: Iterable[str] | Mapping[str, int]) -> Multiset:
    """Build a normalised multiset from names or a name->count mapping."""
    counts: Dict[str, int] = {}
    if isinstance(items, Mapping):
        for name, count in items.items():
            if count < 0:
                raise ValueError("negative multiplicity")
            if count:
                counts[name] = counts.get(name, 0) + count
    else:
        for name in items:
            counts[name] = counts.get(name, 0) + 1
    return tuple(sorted(counts.items()))


def multiset_union(a: Multiset, b: Multiset) -> Multiset:
    counts = dict(a)
    for name, count in b:
        counts[name] = counts.get(name, 0) + count
    return tuple(sorted(counts.items()))


def is_subset(a: Multiset, b: Multiset) -> bool:
    """True when multiset ``a`` is contained in ``b``."""
    b_counts = dict(b)
    return all(b_counts.get(name, 0) >= count for name, count in a)


def multiset_subtract(a: Multiset, b: Multiset) -> Multiset:
    """``a - b``; requires ``b`` ⊆ ``a``."""
    if not is_subset(b, a):
        raise ValueError("subtrahend is not a sub-multiset")
    counts = dict(a)
    for name, count in b:
        counts[name] -= count
        if counts[name] == 0:
            del counts[name]
    return tuple(sorted(counts.items()))


class Term:
    """Base class; all terms are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Term):
    """A basic name: an update, a prime, a nonce, an agent identity."""

    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PubKey(Term):
    """Public key of an agent (always public)."""

    agent: str

    def __repr__(self) -> str:
        return f"pk({self.agent})"


@dataclass(frozen=True)
class PrivKey(Term):
    """Private key of an agent (known only to it, and to the attacker
    if the agent is corrupted)."""

    agent: str

    def __repr__(self) -> str:
        return f"sk({self.agent})"


@dataclass(frozen=True)
class Pair(Term):
    """Concatenation; n-tuples are right-nested pairs."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"<{self.left!r},{self.right!r}>"


def tuple_term(*parts: Term) -> Term:
    """Right-nested tuple builder."""
    if not parts:
        raise ValueError("empty tuple term")
    if len(parts) == 1:
        return parts[0]
    return Pair(parts[0], tuple_term(*parts[1:]))


@dataclass(frozen=True)
class AEnc(Term):
    """Asymmetric encryption of ``message`` under ``pk(agent)``."""

    message: Term
    agent: str

    def __repr__(self) -> str:
        return f"{{{self.message!r}}}pk({self.agent})"


@dataclass(frozen=True)
class Sig(Term):
    """``<m>_agent``: a signature from which the message is recoverable
    (the paper's signed messages are sent in clear with the signature)."""

    message: Term
    agent: str

    def __repr__(self) -> str:
        return f"<{self.message!r}>{self.agent}"


@dataclass(frozen=True)
class Prod(Term):
    """A product of primes, as a multiset of prime names.

    ``Prod((("p1", 1),))`` is the prime itself; products with several
    entries are the round keys and cofactors of section V.  Factoring is
    not an attacker capability; division by a known sub-product is.
    """

    primes: Multiset

    def __repr__(self) -> str:
        factors = []
        for name, count in self.primes:
            factors.extend([name] * count)
        return "*".join(factors) if factors else "1"

    @classmethod
    def of(cls, *names: str) -> "Prod":
        return cls(primes=multiset(names))


@dataclass(frozen=True)
class HHash(Term):
    """``H(prod updates)_(prod primes, M)`` in normal form.

    ``base`` is the multiset of update names (with multiplicities — the
    reception counters of section V-D become exponents), ``key`` the
    multiset of primes.  The two homomorphic identities are normalisation
    rules on this representation:

    * re-keying: ``H(H(u)_K1)_K2 = H(u)_(K1 ∪ K2)``
    * product:   ``H(u1)_K * H(u2)_K = H(u1*u2)_K``
    """

    base: Multiset
    key: Multiset

    def __repr__(self) -> str:
        return f"H({Prod(self.base)!r})_({Prod(self.key)!r})"

    @classmethod
    def of(cls, updates: Iterable[str], primes: Iterable[str]) -> "HHash":
        return cls(base=multiset(updates), key=multiset(primes))


__all__.append("tuple_term")
