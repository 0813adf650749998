"""Content updates (chunks) and per-node update stores.

The unit of dissemination is the *update*: a chunk of the content stream
signed by the source (section III: "Updates are propagated along with
their signature so that they can be verified by the nodes upon
reception, which prevents data tampering").  In the paper's deployment,
updates are 938-byte packets grouped in windows of 40, released 10
seconds before their playout deadline.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Set

__all__ = ["Update", "UpdateStore", "content_integer"]


@lru_cache(maxsize=1 << 16)
def content_integer(uid: int, session: int = 0) -> int:
    """Deterministic 1024-bit integer standing in for an update's bytes.

    The homomorphic hash operates on updates-as-integers (section IV-B).
    Real payloads are arbitrary video bytes; for simulation we derive a
    fixed pseudo-random integer from the update id so every node agrees
    on the content, hashes are reproducible, and the integer is wider
    than the 512-bit modulus (the paper notes updates are larger than M,
    which is what makes the hash non-invertible).

    Cached: every hash, buffermap and product evaluation re-reads update
    contents, and the four SHA-256 blocks per read dominated simulation
    profiles before memoisation.
    """
    blocks = []
    for counter in range(4):  # 4 x 256 bits = 1024 bits
        material = f"pag-update:{session}:{uid}:{counter}".encode()
        blocks.append(hashlib.sha256(material).digest())
    value = int.from_bytes(b"".join(blocks), "big")
    # Force the top bit so the width is exactly 1024 bits, and make it
    # odd so it is coprime with power-of-two moduli edge cases.
    return value | (1 << 1023) | 1


@dataclass(frozen=True)
class Update:
    """One signed content chunk.

    Attributes:
        uid: globally unique sequence number assigned by the source.
        round_created: round in which the source released the chunk.
        expiry_round: last round in which forwarding the chunk is useful
            (playout deadline); after this, nodes must stop propagating
            it (section V-D, "Expiration of updates").
        payload_bytes: wire size of the chunk body.
        session: gossip session identifier (several sessions may run
            simultaneously, section III).
    """

    uid: int
    round_created: int
    expiry_round: int
    payload_bytes: int = 938
    session: int = 0

    @property
    def content(self) -> int:
        """Integer representation used by the homomorphic hash."""
        return content_integer(self.uid, self.session)

    def expires_next_round(self, current_round: int) -> bool:
        """True when the chunk must not be forwarded after this round.

        Section V-D: when forwarding, a node separates updates that
        "will expire in the next round, and should not be forwarded"
        from those that must continue propagating.
        """
        return self.expiry_round <= current_round + 1

    def is_expired(self, current_round: int) -> bool:
        return current_round > self.expiry_round


@dataclass
class UpdateStore:
    """Per-node store of received updates.

    Tracks what the node owns (for buffermaps and duplicate avoidance)
    and when each update arrived (for streaming quality metrics).
    """

    _updates: Dict[int, Update] = field(default_factory=dict)
    _arrival_round: Dict[int, int] = field(default_factory=dict)

    def add(self, update: Update, round_no: int) -> bool:
        """Record a reception; returns True if the update is new."""
        if update.uid in self._updates:
            return False
        self._updates[update.uid] = update
        self._arrival_round[update.uid] = round_no
        return True

    def __contains__(self, uid: int) -> bool:
        return uid in self._updates

    def __len__(self) -> int:
        return len(self._updates)

    def get(self, uid: int) -> Optional[Update]:
        return self._updates.get(uid)

    def arrival_round(self, uid: int) -> Optional[int]:
        return self._arrival_round.get(uid)

    def uids(self) -> Set[int]:
        return set(self._updates)

    def recent_uids(self, current_round: int, depth: int) -> Set[int]:
        """Updates that arrived within the last ``depth`` rounds.

        This is the buffermap content: the paper found hashing "the
        updates of the last 4 rounds" optimal for its workload.
        """
        cutoff = current_round - depth
        return {
            uid
            for uid, rnd in self._arrival_round.items()
            if rnd > cutoff
        }

    def drop_expired(self, current_round: int) -> int:
        """Evict expired update payloads; returns how many were dropped.

        Arrival history is retained: playback evaluation needs to know
        *when* a chunk arrived even after its payload left the buffer
        (the media player consumed it).
        """
        expired = [
            uid
            for uid, update in self._updates.items()
            if update.is_expired(current_round)
        ]
        for uid in expired:
            del self._updates[uid]
        return len(expired)

    def ever_received(self, uid: int) -> bool:
        """True if ``uid`` arrived at any point, even if since evicted."""
        return uid in self._arrival_round
