"""Membership directory: the set of nodes participating in a session.

The paper assumes full membership knowledge maintained by a protocol
such as Fireflies [18] ("we assume that a membership protocol provides
nodes with a set of successors and monitors that can be identified, for
a given round, by each node in the system").  Nodes are identified by
unique integers, e.g. derived from their IP address (section III), and
cannot forge multiple identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

__all__ = ["Directory"]


@dataclass
class Directory:
    """Immutable-by-convention list of member node ids.

    Attributes:
        members: sorted unique node identifiers.
        source_id: the distinguished content source (assumed correct).
    """

    members: List[int] = field(default_factory=list)
    source_id: int | None = None

    def __post_init__(self) -> None:
        unique = sorted(set(self.members))
        if len(unique) != len(self.members):
            raise ValueError("duplicate node identifiers in membership")
        self.members = unique
        if self.source_id is not None and self.source_id not in unique:
            raise ValueError(
                f"source {self.source_id} is not a member of the session"
            )

    @classmethod
    def of_size(cls, n: int, source_id: int = 0) -> "Directory":
        """Create a directory of ``n`` nodes with ids ``0..n-1``."""
        if n < 2:
            raise ValueError("a gossip session needs at least two nodes")
        return cls(members=list(range(n)), source_id=source_id)

    @property
    def size(self) -> int:
        return len(self.members)

    def consumers(self) -> List[int]:
        """All members except the source (the nodes that receive content)."""
        return [m for m in self.members if m != self.source_id]

    def others(self, node_id: int) -> List[int]:
        """All members except ``node_id``."""
        return [m for m in self.members if m != node_id]

    def __contains__(self, node_id: int) -> bool:
        return node_id in set(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)
