"""Round-synchronous simulation engine.

Substitutes for the paper's two experimental substrates (a 432-node
Grid'5000 deployment and OMNeT++ simulations): the engine executes the
same message sequence the deployment would, with explicit byte and
crypto-operation accounting, so the reported per-node Kbps derives from
exactly the quantities the testbed measured.

A round drains to quiescence, so what it allocates is dead by its
barrier: automatic cyclic collection is held off for the round and the
collection it deferred runs as the round ends
(:func:`repro.sim.collection.round_epoch`), of the generation the
interpreter chooses.  That covers every placement driven through
:meth:`Simulator.run_round`: serial, the parallel parent,
:class:`~repro.sim.execution.DaemonPolicy` and population planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, List, Optional, TypeVar

from repro.sim.collection import round_epoch
from repro.sim.execution import ExecutionPolicy, SerialPolicy
from repro.sim.network import Network
from repro.sim.node import SimNode

__all__ = ["Simulator", "SimSession", "RoundHook", "RoundSink"]

#: Callback invoked after each completed round: ``hook(round_no)``.
RoundHook = Callable[[int], None]

#: Observability tap invoked once per completed round (after the round
#: hooks, before the round counter advances): ``sink(round_no)``.
#: Unlike round hooks, a sink must not mutate session state — it exists
#: so the service layer can publish round ticks without perturbing the
#: deterministic schedule.
RoundSink = Callable[[int], None]

# Hard ceiling on intra-round deliveries, to turn accidental message
# ping-pong bugs into a crisp error instead of a hang.
_MAX_DELIVERIES_PER_ROUND_PER_NODE = 10_000


@dataclass
class Simulator:
    """Drives a set of :class:`SimNode` through synchronous rounds.

    Attributes:
        network: shared transport (owns the bandwidth meter).
        nodes: node id -> node instance; iteration order is by id so
            runs are reproducible.
        round_seconds: wall-clock length of one gossip round (1 s in the
            paper's deployments).
    """

    network: Network
    nodes: Dict[int, SimNode] = field(default_factory=dict)
    round_seconds: float = 1.0
    current_round: int = 0
    round_hooks: List[RoundHook] = field(default_factory=list)
    #: batch-delivery strategy; the default serial policy reproduces the
    #: pre-policy engine schedule exactly (see repro.sim.execution).
    policy: ExecutionPolicy = field(default_factory=SerialPolicy)
    #: attached population planes, stepped once per round after the
    #: full-fidelity nodes finish (see repro.sim.population).  Planes
    #: are engine-level, not policy-level, so a population scenario runs
    #: identically under every execution policy.
    planes: List = field(default_factory=list)
    #: observability tap (see :data:`RoundSink`).  ``None`` — the
    #: default — keeps the hot loop on a single pointer check, so a run
    #: with no subscriber pays nothing (BENCH: service_hooks section).
    event_sink: Optional[RoundSink] = field(
        default=None, repr=False, compare=False
    )
    #: id-sorted node list, rebuilt only when membership changes (the
    #: seed engine re-sorted the whole dict twice per round).
    _sorted_nodes: Optional[List[SimNode]] = field(
        default=None, repr=False, compare=False
    )

    def add_node(self, node: SimNode) -> None:
        if node.node_id in self.nodes:
            raise ValueError(f"duplicate node id {node.node_id}")
        self.policy.notify_add(node)
        self.nodes[node.node_id] = node
        self._sorted_nodes = None

    def remove_node(self, node_id: int) -> None:
        """Drop a node from the engine (churn); undelivered traffic to it
        is silently discarded by the drain loop."""
        if node_id not in self.nodes:
            raise ValueError(
                f"cannot remove unknown node id {node_id}; "
                f"membership is {sorted(self.nodes)}"
            )
        del self.nodes[node_id]
        self._sorted_nodes = None
        self.policy.notify_remove(node_id)

    def _ordered_nodes(self) -> List[SimNode]:
        if self._sorted_nodes is None:
            self._sorted_nodes = [
                self.nodes[node_id] for node_id in sorted(self.nodes)
            ]
        return self._sorted_nodes

    def add_round_hook(self, hook: RoundHook) -> None:
        self.round_hooks.append(hook)

    def attach_plane(self, plane) -> None:
        """Attach a vectorised population plane (stepped per round)."""
        self.planes.append(plane)

    def run_round(self) -> None:
        """Execute one full round: begin, drain to quiescence, end.

        The node fan-outs are offered to the execution policy first
        (a worker-backed policy runs them on its own shards — see
        :meth:`ExecutionPolicy.begin_nodes`); policies that decline get
        the engine's inline loop, byte-for-byte the pre-handoff path.
        The round is one collection epoch (:mod:`repro.sim.collection`).
        """
        with round_epoch():
            round_no = self.current_round
            self.network.begin_round(round_no)
            ordered = self._ordered_nodes()
            if not self.policy.begin_nodes(round_no, ordered, self.network):
                for node in ordered:
                    node.begin_round(round_no)
            self._drain(round_no)
            if not self.policy.end_nodes(round_no, ordered, self.network):
                for node in ordered:
                    node.end_round(round_no)
            for plane in self.planes:
                plane.end_round(round_no)
            for hook in self.round_hooks:
                hook(round_no)
            if self.event_sink is not None:
                self.event_sink(round_no)
            self.current_round += 1

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` consecutive rounds."""
        for _ in range(rounds):
            self.run_round()

    def _drain(self, round_no: int) -> None:
        """Deliver queued messages until quiescence, in batches.

        The network hands over its whole pending queue at once; replies
        sent while a batch is processed accumulate into the next batch.
        How a batch is delivered to its recipients is the execution
        policy's business (serial FIFO by default, sharded by recipient
        with per-shard meters otherwise); the quiescence loop and the
        runaway-traffic budget stay here.
        """
        budget = _MAX_DELIVERIES_PER_ROUND_PER_NODE * max(1, len(self.nodes))
        delivered = 0
        nodes_get = self.nodes.get
        take_pending = self.network.take_pending
        deliver = self.policy.deliver
        network = self.network
        while True:
            batch = take_pending()
            if not batch:
                return
            delivered += len(batch)
            if delivered > budget:
                raise RuntimeError(
                    f"round {round_no}: delivery budget exceeded "
                    f"({budget} messages); suspected message loop"
                )
            deliver(batch, nodes_get, network)

    # -- reporting helpers -------------------------------------------------

    def fault_report(self) -> Dict[str, Dict[str, int]]:
        """Per-injector fault counters of the run's network.

        Injectors only ever evaluate on the parent network (replica
        workers run in capture mode), so under every execution policy
        this reads the authoritative tallies without any merge step.
        """
        return self.network.fault_report()


NodeT = TypeVar("NodeT", bound=SimNode)


@dataclass
class SimSession(Generic[NodeT]):
    """What every protocol's session shares: the engine, the stream
    source and the consumers, driven and measured one way.

    :class:`~repro.core.session.PagSession` and the AcTinG and RAC
    baseline sessions build these three and add their own reporting.

    Attributes:
        simulator: the round engine (exposes the bandwidth meter).
        source: the stream source node (assumed correct, never removed).
        nodes: consumer nodes by id; the membership every bandwidth
            reading covers.
    """

    simulator: Simulator
    source: SimNode
    nodes: Dict[int, NodeT]

    def run(self, rounds: int) -> None:
        self.simulator.run(rounds)

    def remove_node(self, node_id: int) -> None:
        """Churn: the consumer leaves (crashes) between rounds; from
        then on the engine skips it and bandwidth readings omit it."""
        if node_id == self.source.node_id:
            raise ValueError("the source is assumed correct and present")
        if node_id not in self.nodes:
            raise ValueError(f"cannot remove unknown node id {node_id}")
        del self.nodes[node_id]
        self.simulator.remove_node(node_id)

    def bandwidth_kbps(
        self, warmup_rounds: int = 0, direction: str = "both"
    ) -> Dict[int, float]:
        """Per-consumer average bandwidth in Kbps after a warmup window.

        Pass ``direction="down"`` for the unidirectional consumption the
        paper's figures report.
        """
        return self.simulator.network.meter.all_node_kbps(
            sorted(self.nodes),
            round_seconds=self.simulator.round_seconds,
            first_round=warmup_rounds,
            direction=direction,
        )

    def mean_bandwidth_kbps(
        self, warmup_rounds: int = 0, direction: str = "both"
    ) -> float:
        values = self.bandwidth_kbps(warmup_rounds, direction)
        return sum(values.values()) / len(values) if values else 0.0
