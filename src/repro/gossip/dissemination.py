"""Plain push-gossip dissemination: the unaccountable, non-private base.

This is the textbook protocol of section II-A (Fig. 1): each round, a
node forwards the updates it received during the previous round to
``f`` uniformly random successors.  It provides no accountability (a
selfish node can silently drop everything) and no privacy (updates and
their routes are visible to any observer).  It is the lower envelope
for bandwidth comparisons: any accountable or private protocol pays at
least this much (``examples/live_streaming.py`` runs it beside PAG).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Tuple

from repro.gossip.source import StreamSchedule
from repro.gossip.updates import Update, UpdateStore
from repro.membership.views import ViewProvider
from repro.sim.message import Message, WireSizes
from repro.sim.network import Network
from repro.sim.node import SimNode

__all__ = ["PushMessage", "PlainGossipNode", "PlainSourceNode"]


@dataclass
class PushMessage(Message):
    """A batch of updates pushed to one successor."""

    updates: Tuple[Update, ...] = ()
    kind: ClassVar[str] = "push"

    def size_bytes(self, sizes: WireSizes) -> int:
        payload = sum(u.payload_bytes + sizes.update_id for u in self.updates)
        return sizes.header + payload


class PlainGossipNode(SimNode):
    """A correct plain-gossip participant.

    Forwards every update exactly once (infect-and-die on first
    reception) to the round's successors.
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        views: ViewProvider,
    ) -> None:
        super().__init__(node_id, network)
        self.views = views
        self.store = UpdateStore()
        self._outbox: List[Update] = []

    def begin_round(self, round_no: int) -> None:
        if not self._outbox:
            return
        to_forward = [
            u for u in self._outbox if not u.is_expired(round_no)
        ]
        self._outbox = []
        if not to_forward:
            return
        for successor in self.views.successors(self.node_id, round_no):
            self.send(
                PushMessage(
                    sender=self.node_id,
                    recipient=successor,
                    round_no=round_no,
                    updates=tuple(to_forward),
                )
            )

    def on_message(self, message: Message) -> None:
        if not isinstance(message, PushMessage):
            return
        for update in message.updates:
            if self.store.add(update, message.round_no):
                self._outbox.append(update)

    def end_round(self, round_no: int) -> None:
        self.store.drop_expired(round_no)

    # -- reporting ---------------------------------------------------------

    def delivery_ratio(self, total_released: int) -> float:
        """Fraction of all released chunks this node ever received."""
        if total_released == 0:
            return 1.0
        return len(self.store) / total_released


class PlainSourceNode(SimNode):
    """The stream source: releases chunks and seeds them to random nodes.

    The source spreads each round's chunks over ``fanout`` uniformly
    chosen consumers (each chunk goes to ``seed_copies`` of them).
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        views: ViewProvider,
        schedule: StreamSchedule,
        seed_copies: int = 1,
    ) -> None:
        super().__init__(node_id, network)
        self.views = views
        self.schedule = schedule
        self.seed_copies = seed_copies
        self.released: List[Update] = []

    def begin_round(self, round_no: int) -> None:
        chunks = self.schedule.release(round_no)
        self.released.extend(chunks)
        if not chunks:
            return
        targets = self.views.successors(self.node_id, round_no)
        if not targets:
            return
        per_target: Dict[int, List[Update]] = {t: [] for t in targets}
        for index, chunk in enumerate(chunks):
            for copy in range(min(self.seed_copies, len(targets))):
                target = targets[(index + copy) % len(targets)]
                per_target[target].append(chunk)
        for target, batch in per_target.items():
            if batch:
                self.send(
                    PushMessage(
                        sender=self.node_id,
                        recipient=target,
                        round_no=round_no,
                        updates=tuple(batch),
                    )
                )

    def total_released(self) -> int:
        return len(self.released)
