"""Per-node protocol state for PAG.

Nodes keep only bounded, recent state: the primes they issued (to build
round keys), the updates they must forward next round, the exchanges in
flight, and the signed acknowledgements they may need to exhibit in a
dispute.  There is no interaction log — PAG's monitoring is log-less by
design (section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.core.messages import ServeEntry, SignedAck
from repro.gossip.updates import Update

__all__ = ["OutgoingExchange", "ServePlan", "ForwardSet", "PagNodeState"]


@dataclass(slots=True)
class OutgoingExchange:
    """Server-side record of one serve to one successor."""

    successor: int
    round_no: int
    entries: Tuple[ServeEntry, ...] = ()
    key_prev: int = 1
    key_prime_count: int = 0
    expected_ack_hash: Optional[int] = None
    served: bool = False
    ack: Optional[SignedAck] = None
    accused: bool = False

    @property
    def acknowledged(self) -> bool:
        return self.ack is not None


class ServePlan(NamedTuple):
    """What every serve of one forward set shares (sections V-A, V-D).

    Attributes:
        contents: the items' hash inputs, in uid order.
        rows: per item ``(u^count mod M, entry when the successor lacks
            the update, entry when it owns it)``; the entries are shared
            by every serve of the round.
    """

    contents: List[int]
    rows: List[Tuple[int, ServeEntry, ServeEntry]]


@dataclass(slots=True)
class ForwardSet:
    """Updates a node must forward next round, with multiplicities.

    The paper's multiplicity counters (section V-D): receiving ``u`` with
    count ``c1`` from one predecessor and ``c2`` from another in the same
    round obliges forwarding ``u`` once, declared with count ``c1+c2`` —
    monitors match hashes because exponents add under multiplication.
    """

    counts: Dict[int, int] = field(default_factory=dict)
    updates: Dict[int, Update] = field(default_factory=dict)
    #: the serving node's derivation of the current contents; every
    #: :meth:`add` drops it, so a reception that arrives between two
    #: serves of a round (a delayed pair) is in the second one.
    plan: Optional[ServePlan] = field(default=None, repr=False, compare=False)

    def add(self, update: Update, count: int) -> None:
        if count < 1:
            raise ValueError("reception count must be positive")
        self.updates[update.uid] = update
        self.counts[update.uid] = self.counts.get(update.uid, 0) + count
        self.plan = None

    def items(self) -> List[Tuple[Update, int]]:
        return [
            (self.updates[uid], self.counts[uid])
            for uid in sorted(self.counts)
        ]

    def __len__(self) -> int:
        return len(self.counts)

    def is_empty(self) -> bool:
        return not self.counts


@dataclass
class PagNodeState:
    """All mutable protocol state of one PAG node."""

    #: primes issued this session: round -> predecessor -> prime.
    primes_issued: Dict[int, Dict[int, int]] = field(default_factory=dict)

    #: round -> running product of the primes issued that round, kept
    #: incrementally so round keys and cofactors never refold the whole
    #: prime set (the folds dominated the receiver-side hot path).
    _key_products: Dict[int, int] = field(default_factory=dict, repr=False)

    #: updates to forward, keyed by the round they were received in.
    forward_sets: Dict[int, ForwardSet] = field(default_factory=dict)

    #: serves sent, keyed by (round, successor).
    outgoing: Dict[Tuple[int, int], OutgoingExchange] = field(
        default_factory=dict
    )

    #: serves received and pending attestation, keyed by (round, server).
    pending_serves: Dict[Tuple[int, int], object] = field(
        default_factory=dict
    )

    def issue_prime(self, round_no: int, predecessor: int, prime: int) -> None:
        per_round = self.primes_issued.setdefault(round_no, {})
        if predecessor in per_round:
            raise ValueError(
                f"prime already issued to {predecessor} in round {round_no}"
            )
        per_round[predecessor] = prime
        self._key_products[round_no] = (
            self._key_products.get(round_no, 1) * prime
        )

    def prime_for(self, round_no: int, predecessor: int) -> Optional[int]:
        return self.primes_issued.get(round_no, {}).get(predecessor)

    def round_key(self, round_no: int) -> Tuple[int, int]:
        """``(K(round, self), number of primes)`` — K is 1 if none issued."""
        primes = self.primes_issued.get(round_no)
        if not primes:
            return 1, 0
        return self._key_products[round_no], len(primes)

    def cofactor(self, round_no: int, predecessor: int) -> Tuple[int, int]:
        """``prod_{k != j} p_k`` and its prime count, for message 7.

        Derived from the incremental round product by exact division:
        the issued primes are nonzero, so ``K / p_j`` equals the product
        of the other primes without refolding them.
        """
        primes = self.primes_issued.get(round_no)
        if not primes:
            return 1, 0
        own = primes.get(predecessor)
        if own is None:
            return self._key_products[round_no], len(primes)
        return self._key_products[round_no] // own, len(primes) - 1

    def forward_set(self, round_no: int) -> ForwardSet:
        forward_set = self.forward_sets.get(round_no)
        if forward_set is None:
            forward_set = self.forward_sets[round_no] = ForwardSet()
        return forward_set

    def prune_before(self, round_no: int) -> None:
        """Drop state older than ``round_no`` (bounded memory)."""
        for store in (
            self.primes_issued,
            self.forward_sets,
            self._key_products,
        ):
            for rnd in [r for r in store if r < round_no]:
                del store[rnd]
        for keyed in (self.outgoing, self.pending_serves):
            for key in [k for k in keyed if k[0] < round_no]:
                del keyed[key]
