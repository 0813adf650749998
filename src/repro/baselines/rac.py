"""RAC baseline: accountable anonymous communication (ICDCS 2013).

RAC is the paper's privacy-side comparator: it hides who sends what by
(1) onion-routing each message through a chain of relays, (2) having the
exit relay broadcast the message to *everyone* (receiver anonymity means
nobody can tell who actually wanted it), and (3) forcing every node to
emit fixed-rate *cover traffic* so that traffic analysis cannot single
out real senders.  Accountability forces nodes to execute their relay
role.

The consequence the paper exploits in Table II: per-node bandwidth
scales with the *whole membership* (every payload byte is broadcast to
all N nodes, and every node originates cover cells whether or not it has
content), so "the maximum payload that RAC is able to provide using
10 Gbps network links is equal to 63 kbps" with 1000 nodes — three
orders of magnitude under a basic 300 Kbps stream.

Two artefacts here:

* :class:`RacNode`/:class:`RacSession` — a runnable simulation of the
  ring-broadcast-with-cover-traffic structure, used at small N to
  validate the model's shape (per-node bandwidth ∝ N × cell rate);
* :func:`rac_max_payload_kbps` — the capacity model used by the
  Table II bench, calibrated to RAC's published operating point (the
  ``RAC_OVERHEAD_CALIBRATION`` constant; see DESIGN.md substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional

from repro.gossip.updates import Update, UpdateStore
from repro.membership.directory import Directory
from repro.membership.views import ViewProvider
from repro.sim.engine import SimSession, Simulator
from repro.sim.message import Message, WireSizes
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.sim.rng import SeedSequence

__all__ = [
    "RacConfig",
    "RacCell",
    "RacNode",
    "RacSourceNode",
    "RacSession",
    "rac_per_node_kbps",
    "rac_max_payload_kbps",
    "RAC_OVERHEAD_CALIBRATION",
]

#: Residual multiplicative overhead of RAC beyond the structural
#: N-fold broadcast cost: onion layers (each hop re-encrypts), relay
#: acknowledgements, accountability audits, and scheduling slack.
#: Calibrated so that with N=1000 nodes a 10 Gbps link sustains the
#: 63 Kbps payload the paper measured (section VII-B):
#: 10e6 / (63 * 1000 / 6.3) ... see rac_max_payload_kbps.
RAC_OVERHEAD_CALIBRATION = 158.7


@dataclass(frozen=True)
class RacConfig:
    """RAC parameters.

    Attributes:
        onion_hops: relays a cell traverses before broadcast.
        cell_bytes: fixed cell size (padding makes all cells equal).
        cells_per_round: cover-traffic rate every node must sustain.
        broadcast_fanout: gossip fanout of the exit broadcast.
    """

    onion_hops: int = 3
    cell_bytes: int = 1024
    cells_per_round: int = 4
    broadcast_fanout: int = 3
    seed: int = 2013


@dataclass
class RacCell(Message):
    """One fixed-size cell (real payload or cover traffic).

    ``layer`` counts remaining onion hops; at 0 the cell is broadcast.
    Cover cells are indistinguishable on the wire (same size); the
    simulation tags them only for accounting.
    """

    layer: int = 0
    payload: Optional[Update] = None
    is_cover: bool = True
    cell_bytes: int = 1024
    cell_id: int = -1
    kind: ClassVar[str] = "rac_cell"

    def size_bytes(self, sizes: WireSizes) -> int:
        # Fixed-size cells: padding hides payload presence and length.
        return sizes.header + self.cell_bytes + sizes.signature


class RacNode(SimNode):
    """A RAC participant: relays onions, broadcasts exits, emits cover."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        views: ViewProvider,
        config: RacConfig,
        seeds: SeedSequence,
    ) -> None:
        super().__init__(node_id, network)
        self.views = views
        self.config = config
        self.store = UpdateStore()
        self._relay_rng = seeds.stream("rac-relay", node_id)
        self._seen_broadcasts: set[int] = set()
        self._next_cell_serial = 0

    def begin_round(self, round_no: int) -> None:
        # Obligatory cover traffic: every node originates cells whether
        # or not it has anything to say.
        for _ in range(self.config.cells_per_round):
            self._originate(round_no, payload=None)

    def _originate(self, round_no: int, payload: Optional[Update]) -> None:
        relay = self._pick_relay()
        cell_id = (self.node_id << 32) | self._next_cell_serial
        self._next_cell_serial += 1
        self.send(
            RacCell(
                sender=self.node_id,
                recipient=relay,
                round_no=round_no,
                layer=self.config.onion_hops - 1,
                payload=payload,
                is_cover=payload is None,
                cell_bytes=self.config.cell_bytes,
                cell_id=cell_id,
            )
        )

    def _pick_relay(self) -> int:
        candidates = self.views.directory.others(self.node_id)
        return candidates[self._relay_rng.randrange(len(candidates))]

    def on_message(self, message: Message) -> None:
        if not isinstance(message, RacCell):
            return
        if message.layer > 0:
            # Relay obligation: peel one onion layer, forward.
            self.send(
                RacCell(
                    sender=self.node_id,
                    recipient=self._pick_relay(),
                    round_no=message.round_no,
                    layer=message.layer - 1,
                    payload=message.payload,
                    is_cover=message.is_cover,
                    cell_bytes=message.cell_bytes,
                    cell_id=message.cell_id,
                )
            )
            return
        # Exit: broadcast to the gossip group (receiver anonymity).
        self._deliver_and_spread(message)

    def _deliver_and_spread(self, message: RacCell) -> None:
        if message.cell_id in self._seen_broadcasts:
            return
        self._seen_broadcasts.add(message.cell_id)
        if message.payload is not None:
            self.store.add(message.payload, message.round_no)
        for successor in self.views.successors(self.node_id, message.round_no):
            self.send(
                RacCell(
                    sender=self.node_id,
                    recipient=successor,
                    round_no=message.round_no,
                    layer=0,
                    payload=message.payload,
                    is_cover=message.is_cover,
                    cell_bytes=message.cell_bytes,
                    cell_id=message.cell_id,
                )
            )


class RacSourceNode(RacNode):
    """The source hides its stream inside its cover-cell allotment.

    Anonymity forbids sending faster than anyone else — the stream rate
    is capped at the cover rate, which is RAC's fundamental limitation
    for streaming.
    """

    def __init__(self, *args, stream_updates_per_round: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.stream_updates_per_round = stream_updates_per_round
        self.released: List[Update] = []
        self._next_uid = 0

    def begin_round(self, round_no: int) -> None:
        budget = self.config.cells_per_round
        real = min(self.stream_updates_per_round, budget)
        for _ in range(real):
            update = Update(
                uid=self._next_uid,
                round_created=round_no,
                expiry_round=round_no + 10,
                payload_bytes=self.config.cell_bytes,
            )
            self._next_uid += 1
            self.released.append(update)
            self._originate(round_no, payload=update)
        for _ in range(budget - real):
            self._originate(round_no, payload=None)


@dataclass
class RacSession(SimSession[RacNode]):
    """Small-N runnable RAC deployment for shape validation."""

    source: RacSourceNode
    config: RacConfig

    @classmethod
    def create(
        cls, n_nodes: int, config: Optional[RacConfig] = None
    ) -> "RacSession":
        config = config or RacConfig()
        directory = Directory.of_size(n_nodes, source_id=0)
        seeds = SeedSequence(config.seed)
        views = ViewProvider(
            directory=directory,
            seeds=seeds.child("views"),
            fanout=config.broadcast_fanout,
            monitors_per_node=config.broadcast_fanout,
        )
        network = Network()
        simulator = Simulator(network=network)
        source = RacSourceNode(
            0, network, views, config, seeds, stream_updates_per_round=1
        )
        simulator.add_node(source)
        nodes: Dict[int, RacNode] = {}
        for node_id in directory.consumers():
            node = RacNode(node_id, network, views, config, seeds)
            nodes[node_id] = node
            simulator.add_node(node)
        return cls(
            simulator=simulator, source=source, nodes=nodes, config=config
        )


# ---------------------------------------------------------------------------
# Capacity model (Table II)
# ---------------------------------------------------------------------------


def rac_per_node_kbps(payload_kbps: float, n_nodes: int) -> float:
    """Per-node bandwidth RAC consumes to deliver ``payload_kbps``.

    Structure: every payload bit is broadcast to all N nodes, and sender
    anonymity forces all N nodes to originate at the same rate, so the
    per-node cost is ``payload * N`` before residual overhead; the
    calibration constant folds in onion layers, acknowledgements and
    accountability traffic (documented above).

    The model is anchored at RAC's published point: 63 Kbps payload
    saturating a 10 Gbps link with 1000 nodes.
    """
    if n_nodes < 2:
        raise ValueError("RAC needs at least 2 nodes")
    return payload_kbps * n_nodes * RAC_OVERHEAD_CALIBRATION


def rac_max_payload_kbps(link_kbps: float, n_nodes: int) -> float:
    """Largest payload rate RAC sustains on a given link capacity."""
    return link_kbps / (n_nodes * RAC_OVERHEAD_CALIBRATION)
