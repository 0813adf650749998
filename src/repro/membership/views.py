"""Per-round successor and monitor views.

Every node must be able to compute, for any node X and round R, the set
of successors X must serve and the monitors responsible for X — this is
what makes omissions *detectable*: monitors know whom X was supposed to
contact.  We realise the assumption with deterministic pseudo-random
assignment keyed on (session seed, node, round), which is how
deployments built on Fireflies-style membership realise it too (the
paper cites BAR Gossip [19] and FlightPath [27] for the same technique,
using a shared seed to derive verifiable partner lists).

Design points:

* **Successors** are re-drawn every round (gossip's uniform random peer
  selection; fanout ``f ~ log N``, section VII-D).
* **Monitors** are a stable per-node set for the session.  In Fig. 6 the
  monitors of B are a fixed set {A, D, G}; stability is also what lets
  monitors accumulate the per-round hash products of section V-C.
* **Predecessors** of X at round R are, by construction, the nodes that
  picked X as successor; the provider inverts the successor relation.
* The **source** disseminates but never receives: it is excluded from
  successor targets' obligation checks but can appear as a predecessor.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.membership.directory import Directory
from repro.sim.rng import SeedSequence

__all__ = ["ViewProvider", "default_fanout"]


def default_fanout(n: int) -> int:
    """Fanout used by the paper: ~log10(N), at least 3.

    Section VII-A: "3 [successors and monitors] when the system contains
    1000 nodes"; section VII-D: "in a system of N nodes, each user has
    log(N) successors" — log10(10^3) = 3 matches the stated setting, and
    log10(10^6) = 6 matches the Fig. 9 scalability trend.
    """
    if n < 2:
        raise ValueError("fanout undefined for fewer than 2 nodes")
    return max(3, round(math.log10(n)))


class _Without(Sequence[int]):
    """What ``random.sample`` reads as ``items`` minus index ``skip``."""

    def __init__(self, items: Sequence[int], skip: int) -> None:
        self._items, self._skip = items, skip

    def __len__(self) -> int:
        return len(self._items) - 1

    def __getitem__(self, index: int) -> int:
        return self._items[index + (index >= self._skip)]


@dataclass
class ViewProvider:
    """Deterministic successor / monitor / predecessor views.

    Attributes:
        directory: session membership.
        seeds: seed sequence shared by all nodes of the session (publicly
            derivable, so views are verifiable by monitors).
        fanout: number of successors per node per round.
        monitors_per_node: size of each node's monitor set (paper uses
            the same value as the fanout by default, section VII-A).
        active_from: node id -> first round the node participates
            (absent means round 0).  The membership service announces
            joining nodes ahead of their arrival — they are in the
            directory, and their *monitor* set is assigned immediately
            (monitor sets are session-stable, section V-C) — but nobody
            is obliged to serve or contact a node before it arrives, so
            successor draws exclude it until its activation round.  The
            filter is a pure function of (directory, schedule, round),
            which keeps views verifiable by monitors and deterministic
            across execution-policy replicas.
    """

    directory: Directory
    seeds: SeedSequence
    fanout: int = 3
    monitors_per_node: int = 3
    active_from: Dict[int, int] = field(default_factory=dict)
    _successor_cache: Dict[int, Dict[int, List[int]]] = field(
        default_factory=dict, repr=False
    )
    _predecessor_cache: Dict[int, Dict[int, List[int]]] = field(
        default_factory=dict, repr=False
    )
    #: round -> the consumers that have arrived by it, in id order.
    _eligible_cache: Dict[int, List[int]] = field(
        default_factory=dict, repr=False, init=False
    )
    _monitor_cache: Dict[int, List[int]] = field(
        default_factory=dict, repr=False
    )
    _monitored_cache: Dict[int, List[int]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        n = self.directory.size
        if not 1 <= self.fanout < n:
            raise ValueError(
                f"fanout {self.fanout} invalid for {n} nodes"
            )
        if not 1 <= self.monitors_per_node < n:
            raise ValueError(
                f"monitor set size {self.monitors_per_node} invalid for "
                f"{n} nodes"
            )

    # -- successors --------------------------------------------------------

    def successors(self, node_id: int, round_no: int) -> List[int]:
        """The ``fanout`` nodes that ``node_id`` must serve in ``round_no``.

        Uniformly drawn without replacement among other consumers (the
        source holds the content; serving it is pointless and the paper's
        obligation R2 concerns consumers).
        """
        per_round = self._successor_cache.setdefault(round_no, {})
        if node_id not in per_round:
            active = self.active_from
            if active.get(node_id, 0) > round_no:
                # A node that has not arrived yet serves nobody — and
                # owes nobody a serve, so its monitors expect nothing.
                per_round[node_id] = []
                return []
            rng = self.seeds.stream("succ", node_id, round_no)
            eligible = self._eligible_cache.get(round_no)
            if eligible is None:
                eligible = self._eligible_cache[round_no] = [
                    m
                    for m in self.directory.members
                    if m != self.directory.source_id
                    and active.get(m, 0) <= round_no
                ]
            # Sorted like the members; the source is not among them.
            own = bisect_left(eligible, node_id)
            candidates: Sequence[int] = eligible
            if eligible[own : own + 1] == [node_id]:
                candidates = _Without(eligible, own)
            k = min(self.fanout, len(candidates))
            per_round[node_id] = sorted(rng.sample(candidates, k))
        return list(per_round[node_id])

    def predecessors(self, node_id: int, round_no: int) -> List[int]:
        """Nodes whose successor list at ``round_no`` contains ``node_id``."""
        per_round = self._predecessor_cache.get(round_no)
        if per_round is None:
            per_round = {m: [] for m in self.directory.members}
            for member in self.directory.members:
                for succ in self.successors(member, round_no):
                    per_round[succ].append(member)
            self._predecessor_cache[round_no] = per_round
        return list(per_round.get(node_id, []))

    # -- monitors ----------------------------------------------------------

    def monitors(self, node_id: int) -> List[int]:
        """The stable monitor set of ``node_id`` for this session."""
        if node_id not in self._monitor_cache:
            rng = self.seeds.stream("mon", node_id)
            members = self.directory.members
            candidates: Sequence[int] = members
            # Everyone but the node and the source, unbuilt; the higher
            # id goes first so the lower one keeps its index.
            skips = {node_id, self.directory.source_id} - {None}
            for skip in sorted(skips, reverse=True):
                at = bisect_left(members, skip)
                if members[at : at + 1] == [skip]:
                    candidates = _Without(candidates, at)
            k = min(self.monitors_per_node, len(candidates))
            self._monitor_cache[node_id] = sorted(rng.sample(candidates, k))
        return list(self._monitor_cache[node_id])

    def monitored_by(self, monitor_id: int) -> List[int]:
        """All nodes whose monitor set contains ``monitor_id``.

        The monitor sets are inverted once, for every monitor, in member
        order: the directory is immutable by convention, monitor sets
        are session-stable, and the simulator's ``remove_node`` /
        ``admit_node`` change who runs, not who is in either.  Callers
        get a copy.
        """
        inverse = self._monitored_cache
        if not inverse:
            for member in self.directory.members:
                for monitor in self.monitors(member):
                    inverse.setdefault(monitor, []).append(member)
        return list(inverse.get(monitor_id, ()))

    def prune_rounds_before(self, round_no: int) -> None:
        """Drop cached views older than ``round_no`` (memory hygiene)."""
        for cache in (
            self._successor_cache,
            self._predecessor_cache,
            self._eligible_cache,
        ):
            for rnd in [r for r in cache if r < round_no]:
                del cache[rnd]
