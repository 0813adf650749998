"""Buffermaps: advertising owned updates to avoid duplicate transmission.

Section V-D ("Buffermap transmissions"): "A node sends to its
predecessors the hashes of a proportion of the messages it owns, in
order to avoid multiple receptions. ... the best results in terms of
bandwidth consumption were obtained when the updates of the last 4
rounds were hashed and transmitted."

In PAG the buffermap is privacy-preserving: instead of plaintext update
ids, node B sends ``H(u)_(p_j, M)`` for each recent update u, keyed by
the fresh prime it just issued to that particular predecessor.  The
predecessor hashes its own candidate updates under the same prime and
serves only those whose hash is absent.  Monitors never see the prime,
so the buffermap reveals nothing to them; the predecessor learns only
membership of updates *it already has* — which it would learn anyway by
serving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

from repro.crypto.homomorphic import HomomorphicHasher
from repro.gossip.updates import Update

__all__ = ["HashedBuffermap", "PlainBuffermap", "DEFAULT_BUFFERMAP_DEPTH"]

#: Rounds of history advertised (the paper's tuned value).
DEFAULT_BUFFERMAP_DEPTH = 4


@dataclass(frozen=True)
class PlainBuffermap:
    """Cleartext buffermap (used by the non-private baselines).

    AcTinG-style protocols exchange update *identifiers* openly; this is
    precisely the information leak PAG removes.
    """

    uids: frozenset[int]

    @classmethod
    def from_store(cls, uids: Iterable[int]) -> "PlainBuffermap":
        return cls(uids=frozenset(uids))

    def missing(self, candidates: Iterable[Update]) -> List[Update]:
        return [u for u in candidates if u.uid not in self.uids]

    def __len__(self) -> int:
        return len(self.uids)


@dataclass(frozen=True)
class HashedBuffermap:
    """PAG's private buffermap: homomorphic hashes under a link prime.

    Attributes:
        hashes: the set {H(u)_(p, M) : u owned recently}.  The prime p is
            known only to the two endpoints of the link.
    """

    hashes: frozenset[int]

    @classmethod
    def build(
        cls,
        hasher: HomomorphicHasher,
        contents: Iterable[int],
        prime: int,
    ) -> "HashedBuffermap":
        """Hash each owned update's content under the link prime."""
        return cls(hashes=frozenset(hasher.hash_many(contents, prime)))

    def filter_unknown(
        self,
        hasher: HomomorphicHasher,
        candidates: Iterable[Update],
        prime: int,
    ) -> List[Update]:
        """Updates whose hash is not advertised (i.e. worth serving).

        Run by the *sender* A after receiving B's KeyResponse: "node A
        can check if the updates in S_A are not in S_B, and thus avoid to
        send them, as node B already owns them" (section V-A).
        """
        return self.split_known(hasher, candidates, prime)[0]

    def split_known(
        self,
        hasher: HomomorphicHasher,
        candidates: Iterable[Update],
        prime: int,
    ) -> tuple[List[Update], List[Update]]:
        """Partition candidates into (unknown-to-peer, already-owned)."""
        candidates = list(candidates)
        hashes = hasher.hash_many([u.content for u in candidates], prime)
        unknown: List[Update] = []
        known: List[Update] = []
        for u, hashed in zip(candidates, hashes):
            if hashed in self.hashes:
                known.append(u)
            else:
                unknown.append(u)
        return unknown, known

    def __len__(self) -> int:
        return len(self.hashes)


def buffermap_hash_count(
    owned_by_round: Dict[int, Set[int]], current_round: int, depth: int
) -> int:
    """Number of hashes a buffermap of ``depth`` rounds carries.

    Bandwidth-model helper: each advertised update costs one hash value
    (64 B at the paper's 512-bit modulus) on the wire.
    """
    total = 0
    for rnd in range(max(0, current_round - depth + 1), current_round + 1):
        total += len(owned_by_round.get(rnd, ()))
    return total


__all__.append("buffermap_hash_count")
