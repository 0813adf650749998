"""Session builder: assemble a full PAG deployment in one call.

This is the main entry point of the library: it wires membership,
views, crypto, the source, consumer nodes (optionally with selfish
behaviours) and the simulator together, and exposes the measurements the
paper reports (per-node bandwidth, crypto operation counts, verdicts,
playback quality).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
)

from repro.core.accusations import Verdict
from repro.core.behavior import Behavior
from repro.core.config import PagConfig
from repro.core.context import PagContext
from repro.core.node import PagNode, PagSourceNode
from repro.core.signing import Signer
from repro.gossip.source import StreamSchedule
from repro.membership.directory import Directory
from repro.sim.engine import SimSession, Simulator
from repro.sim.execution import ExecutionPolicy
from repro.sim.network import Network
from repro.streaming.player import PlaybackReport, evaluate_playback

if TYPE_CHECKING:
    from repro.crypto.backend import SharedLadderTable

__all__ = ["PagSession"]

#: Ceiling on the bases precomputed into a shared ladder table (memory
#: guard for very long runs; ~1 KB per base at the simulation modulus).
_SHARED_LADDER_MAX_BASES = 8192


@dataclass
class PagSession(SimSession[PagNode]):
    """A ready-to-run PAG deployment.

    Build with :meth:`create`, drive with :meth:`run`, read results with
    the reporting helpers.

    A node removed by :meth:`remove_node` (churn: it crashes between
    rounds) stays in the membership views as successor and monitor — as
    in a deployment where the membership service lags — so the
    remaining nodes exercise the omission paths: servers accuse it,
    probes go unanswered, and it is convicted as unresponsive
    (accountability without failure detectors cannot distinguish a
    crash from a refusal).

    Attributes:
        context: shared protocol context.
    """

    source: PagSourceNode
    context: PagContext
    #: nodes announced by the membership service but not yet arrived
    #: (join churn); :meth:`admit_node` moves them into the engine.
    pending: Dict[int, PagNode] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        n_nodes: int,
        config: Optional[PagConfig] = None,
        behaviors: Optional[Mapping[int, Behavior]] = None,
        signer: Optional[Signer] = None,
        execution_policy: Optional[ExecutionPolicy] = None,
        arrivals: Optional[Mapping[int, int]] = None,
    ) -> "PagSession":
        """Build a session of ``n_nodes`` (one of which is the source).

        Args:
            n_nodes: total membership size, ids ``0..n-1`` with node 0 as
                the source.
            config: protocol parameters; defaults to the paper's settings
                with the size-appropriate fanout.
            behaviors: per-node behaviour overrides (selfish strategies);
                nodes not listed are correct.
            signer: signature scheme override (real RSA for small runs).
            execution_policy: drain-batch delivery strategy (serial FIFO
                when omitted; see :mod:`repro.sim.execution`).
            arrivals: node id -> first participating round, for nodes
                that join mid-session.  They are announced in the
                directory from the start (so their stable monitor set is
                assigned immediately), excluded from successor draws
                before their round, and enter the engine only when
                :meth:`admit_node` is called — which
                :meth:`ScenarioSpec.build <repro.scenarios.spec.ScenarioSpec.build>`
                wires as a round hook.
        """
        if config is None:
            config = PagConfig.for_system_size(n_nodes)
        arrivals = dict(arrivals or {})
        directory = Directory.of_size(n_nodes, source_id=0)
        for node_id, first_round in arrivals.items():
            if node_id not in directory or node_id == 0:
                raise ValueError(
                    f"arrival names node {node_id}, not a consumer id"
                )
            if first_round < 1:
                raise ValueError(
                    "an arrival round below 1 is just initial membership"
                )
        context = PagContext.build(
            config, directory, signer=signer, active_from=arrivals
        )
        network = Network()
        simulator = Simulator(
            network=network, round_seconds=config.round_seconds
        )
        if execution_policy is not None:
            simulator.policy = execution_policy
        schedule = StreamSchedule(
            rate_kbps=config.stream_rate_kbps,
            update_bytes=config.update_bytes,
            playout_delay_rounds=config.playout_delay_rounds,
            round_seconds=config.round_seconds,
            rate_schedule=config.rate_schedule,
        )
        source = PagSourceNode(0, network, context, schedule)
        simulator.add_node(source)
        behaviors = dict(behaviors or {})
        nodes: Dict[int, PagNode] = {}
        pending: Dict[int, PagNode] = {}
        for node_id in directory.consumers():
            node = PagNode(
                node_id,
                network,
                context,
                behavior=behaviors.get(node_id),
            )
            if node_id in arrivals:
                # Built now — replica workers rebuild byte-identical
                # state from the spec — but kept out of the engine until
                # the arrival round.
                pending[node_id] = node
            else:
                nodes[node_id] = node
                simulator.add_node(node)
        return cls(
            context=context,
            simulator=simulator,
            source=source,
            nodes=nodes,
            pending=pending,
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def shared_ladder_table(
        self, rounds: int
    ) -> "SharedLadderTable | None":
        """Precomputed fixed-base tables for the run's update contents.

        The stream schedule is deterministic, so the update-content
        bases a ``rounds``-long run will hash — the dominant
        session-lifetime bases of the fixed-base cache — are known
        before the first round.  This builds their narrow tables once
        (read-only, plain int tuples) so worker replicas of a parallel
        run adopt them instead of each rebuilding identical tables; see
        :meth:`HomomorphicHasher.adopt_shared_ladders
        <repro.crypto.homomorphic.HomomorphicHasher.adopt_shared_ladders>`.

        Returns None when the active backend does not use the table
        fast path (gmpy2 beats it outright) or the link primes are too
        wide for one (``narrow_layout``), so callers can skip the build
        entirely.
        """
        from repro.crypto.backend import SharedLadderTable, narrow_layout
        from repro.gossip.updates import content_integer

        hasher = self.context.hasher
        config = self.context.config
        if (
            not getattr(hasher, "_use_fixed_base", False)
            or narrow_layout(config.sim_prime_bits) is None
        ):
            return None
        # Replay the release schedule to count the uids exactly (the
        # fractional-rate carry makes a closed form fragile).
        schedule = StreamSchedule(
            rate_kbps=config.stream_rate_kbps,
            update_bytes=config.update_bytes,
            playout_delay_rounds=config.playout_delay_rounds,
            round_seconds=config.round_seconds,
            rate_schedule=config.rate_schedule,
        )
        for round_no in range(max(0, rounds)):
            schedule.release(round_no)
        total = min(schedule.total_released(), _SHARED_LADDER_MAX_BASES)
        bases = [content_integer(uid, 0) for uid in range(total)]
        return SharedLadderTable.build(
            bases, hasher.modulus, config.sim_prime_bits
        )

    def admit_node(self, node_id: int) -> None:
        """Join churn: a pre-announced node arrives between rounds.

        The node was built at session creation (so execution-policy
        replicas hold byte-identical copies) and held in
        :attr:`pending`; admission moves it into the engine, whose
        policy mirrors the add onto the owning worker replica.  From the
        next round on the successor draws include it (see
        :class:`~repro.membership.views.ViewProvider.active_from`) and
        its stable monitor set — assigned at announcement time — starts
        receiving declarations: monitoring needs no special case for
        late arrivals.
        """
        node = self.pending.pop(node_id, None)
        if node is None:
            raise ValueError(
                f"cannot admit node id {node_id}; pending arrivals are "
                f"{sorted(self.pending)}"
            )
        self.nodes[node_id] = node
        self.simulator.add_node(node)

    def set_behavior(self, node_id: int, behavior: Behavior) -> None:
        """Operator control: swap a consumer's behaviour between rounds.

        Replicates the behaviour-dependent monitor wiring of
        :class:`~repro.core.node.PagNode` construction (active flag,
        lift-transform hook and the derived batching flags), so a flip
        applied before the node's first round is bit-identical to
        building the session with the new strategy in
        ``node_strategies`` — the service layer's differential test
        relies on exactly this equivalence.
        """
        node = self.nodes.get(node_id) or self.pending.get(node_id)
        if node is None:
            raise ValueError(
                f"cannot set behavior of unknown node id {node_id}"
            )
        node.behavior = behavior
        node.monitor.set_behavior_hooks(
            active=(
                self.context.config.detection_enabled
                and behavior.performs_monitoring()
            ),
            lift_transform=(
                behavior.transform_lifted
                if behavior.transforms_lifted()
                else None
            ),
        )

    def attach_verdict_sink(
        self, sink: Optional[Callable[[Verdict], None]]
    ) -> None:
        """Tap every consumer monitor's verdict log (service layer).

        The sink fires once per *new* verdict, at the moment the
        monitor records it; pass ``None`` to detach.  Pending arrivals
        are tapped too, so a node admitted mid-run streams its verdicts
        without re-wiring.
        """
        for node in self.nodes.values():
            node.monitor.verdicts.sink = sink
        for node in self.pending.values():
            node.monitor.verdicts.sink = sink

    @property
    def current_round(self) -> int:
        return self.simulator.current_round

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def all_verdicts(
        self, exclude_detectors: Optional[Set[int]] = None
    ) -> List[Verdict]:
        """Verdicts from every monitor, deduplicated by (node, reason,
        round) — independent monitors convict the same fault.

        Args:
            exclude_detectors: ignore verdicts issued by these nodes —
                e.g. a partitioned monitor's local view indicts every
                node it can no longer hear, and a deployment would
                discount verdicts from unreachable monitors.
        """
        excluded = exclude_detectors or set()
        seen = set()
        merged: List[Verdict] = []
        for node in self.nodes.values():
            for verdict in node.verdicts():
                if verdict.detected_by in excluded:
                    continue
                key = (verdict.node, verdict.reason, verdict.exchange_round)
                if key not in seen:
                    seen.add(key)
                    merged.append(verdict)
        return merged

    def convicted_nodes(
        self, exclude_detectors: Optional[Set[int]] = None
    ) -> Set[int]:
        return {v.node for v in self.all_verdicts(exclude_detectors)}

    def playback_report(
        self, node_id: int, warmup_rounds: int = 2
    ) -> PlaybackReport:
        """Playback quality of one node.

        Note the judgement window: a chunk is judged only once its
        playout deadline passed, so with a 10-round playout delay the
        session must run at least ``warmup_rounds + 11`` rounds for any
        chunk to be due; callers that assert on continuity should also
        assert ``chunks_due > 0``.
        """
        node = self.nodes[node_id]
        return evaluate_playback(
            self.source.released,
            node.store,
            current_round=self.current_round,
            warmup_rounds=warmup_rounds,
        )

    def mean_continuity(self, warmup_rounds: int = 2) -> float:
        reports = [
            self.playback_report(node_id, warmup_rounds)
            for node_id in self.nodes
        ]
        return sum(r.continuity for r in reports) / len(reports)

    def crypto_report(self) -> Dict[str, int]:
        """Session-wide cryptographic operation counts (Table I units)."""
        report = self.context.counters.snapshot()
        report["signatures"] += self.context.signer.counters.signatures
        report["verifications"] += self.context.signer.counters.verifications
        report["homomorphic_hashes"] = self.context.hasher.operations
        return report

    def accusation_report(self) -> Dict[str, int]:
        """Summed accusation-path counters across every monitor engine.

        Fault-injection runs read this to see how the accountability
        plane absorbed the damage: how many declarations were rejected
        (corruption), how many cases opened, probes fired, and disputes
        resolved at the deadline.
        """
        totals: Dict[str, int] = {}
        for node in self.nodes.values():
            monitor = getattr(node, "monitor", None)
            counters = getattr(monitor, "counters", None)
            if not counters:
                continue
            for key, value in counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals
