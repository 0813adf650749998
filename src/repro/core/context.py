"""Shared session context handed to every PAG node and monitor engine."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from repro.core.config import PagConfig
from repro.core.signing import Signer, TokenSigner
from repro.crypto.homomorphic import HomomorphicHasher, make_modulus
from repro.crypto.keystore import CryptoCounters
from repro.membership.directory import Directory
from repro.membership.views import ViewProvider
from repro.sim.rng import SeedSequence

__all__ = ["PagContext"]


@dataclass
class PagContext:
    """Everything a PAG participant needs besides its own state.

    Attributes:
        config: session parameters.
        directory: membership (including the source id).
        views: successor/monitor/predecessor oracle.
        hasher: the shared homomorphic hash (public modulus M).
        signer: signature scheme (real RSA or counted tokens).
        seeds: per-component randomness.
        counters: session-wide tallies of asymmetric operations and prime
            generations (signatures/verifications are tallied inside the
            signer, homomorphic hashes inside the hasher).
    """

    config: PagConfig
    directory: Directory
    views: ViewProvider
    hasher: HomomorphicHasher
    signer: Signer
    seeds: SeedSequence
    counters: CryptoCounters = field(default_factory=CryptoCounters)

    def counters_encrypt(self) -> None:
        """Tally one public-key encryption (a ``{...}pk(X)`` wrapper)."""
        self.counters.encryptions += 1

    def counters_decrypt(self) -> None:
        self.counters.decryptions += 1

    @classmethod
    def build(
        cls,
        config: PagConfig,
        directory: Directory,
        signer: Signer | None = None,
        active_from: dict | None = None,
    ) -> "PagContext":
        """Wire up a context from a config and membership.

        Args:
            active_from: node id -> first participating round, for
                sessions with mid-stream arrivals (see
                :class:`~repro.membership.views.ViewProvider`).
        """
        seeds = SeedSequence(config.seed)
        views = ViewProvider(
            directory=directory,
            seeds=seeds.child("views"),
            fanout=config.fanout,
            monitors_per_node=config.monitors_per_node,
            active_from=dict(active_from or {}),
        )
        modulus_rng = seeds.stream("modulus")
        hasher = HomomorphicHasher(
            modulus=make_modulus(config.sim_modulus_bits, modulus_rng)
        )
        return cls(
            config=config,
            directory=directory,
            views=views,
            hasher=hasher,
            signer=signer if signer is not None else TokenSigner(),
            seeds=seeds,
        )

    @property
    def source_id(self) -> int:
        if self.directory.source_id is None:
            raise ValueError("session has no source")
        return self.directory.source_id

    def prime_rng(self, node_id: int) -> random.Random:
        """Per-node stream for drawing link primes."""
        return self.seeds.stream("primes", node_id)

    def is_monitored(self, node_id: int) -> bool:
        """The source is assumed correct and therefore unmonitored."""
        return node_id != self.directory.source_id

    def monitors_of(self, node_id: int) -> List[int]:
        return self.views.monitors(node_id)

    def active_monitors_of(self, node_id: int, round_no: int) -> List[int]:
        """The monitors of ``node_id`` that have arrived by ``round_no``.

        Monitor sets are session-stable, but with join churn a set may
        name nodes announced ahead of their arrival.  Duty-targeted
        traffic (the round-robin declaration designation and its
        failure-path redeclarations) consults this view so the duty is
        carried by the monitors actually present — and is picked up by
        a late-arriving monitor the round it joins.  Falls back to the
        stable set if none of them has arrived (the sends are then
        dropped like any traffic to an absent node, and redeclaration
        retries next round).
        """
        active = self.views.active_from
        monitors = self.views.monitors(node_id)
        if not active:
            return monitors
        present = [m for m in monitors if active.get(m, 0) <= round_no]
        return present or monitors
