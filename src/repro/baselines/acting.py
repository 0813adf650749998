"""AcTinG baseline: accountable (but not private) gossip with secure logs.

AcTinG [Mokhtar, Decouchant et al., SRDS 2014] is the paper's main
accountability comparator (section VII).  Nodes log every interaction in
a tamper-evident :class:`~repro.baselines.securelog.SecureLog`; monitors
probabilistically audit log segments and replay the protocol rules to
catch free-riders.  Two properties matter for the comparison:

* **cheaper than PAG** — a node may *refuse* updates it already has
  (propose/request negotiation with cleartext identifiers), so payload
  travels roughly once, and the monitoring cost is log shipping rather
  than per-exchange homomorphic traffic;
* **no privacy** — proposals, requests, and audited logs expose update
  identifiers and the full interaction graph to partners and monitors.

The implementation follows AcTinG's structure at the fidelity the
comparison needs: three-way propose/request/serve exchange, dual-entry
logging, chain-verified audits, and omission detection by rule replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Set, Tuple

from repro.baselines.securelog import (
    LOG_ENTRY_WIRE_BYTES,
    SecureLog,
    verify_segment,
)
from repro.core.accusations import FaultReason, Verdict, VerdictLog
from repro.gossip.source import StreamSchedule
from repro.gossip.updates import Update, UpdateStore
from repro.membership.views import ViewProvider
from repro.sim.engine import SimSession, Simulator
from repro.sim.message import Message, WireSizes
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.sim.rng import SeedSequence

__all__ = [
    "ActingConfig",
    "ActingNode",
    "ActingSourceNode",
    "ActingPropose",
    "ActingRequest",
    "ActingServe",
    "AuditRequest",
    "AuditReply",
]


@dataclass(frozen=True)
class ActingConfig:
    """AcTinG parameters (paper-aligned defaults)."""

    fanout: int = 3
    monitors_per_node: int = 3
    audit_probability: float = 0.3
    stream_rate_kbps: float = 300.0
    update_bytes: int = 938
    playout_delay_rounds: int = 10
    seed: int = 2014


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


@dataclass
class ActingPropose(Message):
    """Cleartext advertisement of the updates available to forward."""

    uids: Tuple[int, ...] = ()
    signature: int = 0
    kind: ClassVar[str] = "acting_propose"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header + len(self.uids) * sizes.update_id + sizes.signature
        )


@dataclass
class ActingRequest(Message):
    """The subset of proposed updates the receiver lacks."""

    uids: Tuple[int, ...] = ()
    signature: int = 0
    kind: ClassVar[str] = "acting_request"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header + len(self.uids) * sizes.update_id + sizes.signature
        )


@dataclass
class ActingServe(Message):
    """Requested update payloads."""

    updates: Tuple[Update, ...] = ()
    signature: int = 0
    kind: ClassVar[str] = "acting_serve"

    def size_bytes(self, sizes: WireSizes) -> int:
        payload = sum(
            u.payload_bytes + sizes.update_id for u in self.updates
        )
        return sizes.header + payload + sizes.signature


@dataclass
class AuditRequest(Message):
    """A monitor asks for the log segment since its last audit."""

    first_seq: int = 0
    signature: int = 0
    kind: ClassVar[str] = "audit_request"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 8 + sizes.signature


@dataclass
class AuditReply(Message):
    """The audited node ships a log segment (sized per entry)."""

    entries: Tuple = ()
    first_seq: int = 0
    signature: int = 0
    kind: ClassVar[str] = "audit_reply"

    def size_bytes(self, sizes: WireSizes) -> int:
        return (
            sizes.header
            + len(self.entries) * LOG_ENTRY_WIRE_BYTES
            + sizes.signature
        )


# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class ActingNode(SimNode):
    """A consumer node running AcTinG.

    Args:
        selfish: a free-riding AcTinG node: receives but never proposes.
            Exists so the audit machinery has something to catch, and so
            Fig. 10's comparison of what a *coalition* learns from logs
            can run on real audit traffic.
        forges_log: a cheater that rewrites history: it ships audit
            segments with some RCV entries deleted, to shed the
            forwarding obligations they record.  The surviving entries'
            chain hashes still commit to the deleted ones, so the
            auditor's verification fails on the first audit — the
            tamper evidence PeerReview-style logs provide (section
            II-B).
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        views: ViewProvider,
        config: ActingConfig,
        seeds: SeedSequence,
        selfish: bool = False,
        forges_log: bool = False,
    ) -> None:
        super().__init__(node_id, network)
        self.views = views
        self.config = config
        self.selfish = selfish
        self.forges_log = forges_log
        self.store = UpdateStore()
        self.log = SecureLog(node_id)
        self.verdicts = VerdictLog()
        self._to_forward: Dict[int, Update] = {}
        self._last_proposal: Dict[int, Update] = {}
        self._audit_cursor: Dict[int, int] = {}
        self._audit_rng = seeds.stream("acting-audit", node_id)
        #: logs fetched through audits: audited node -> entries seen.
        self.audited_knowledge: Dict[int, List] = {}

    # -- data path ----------------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        self._propose(round_no)
        self._maybe_audit(round_no)

    def _propose(self, round_no: int) -> None:
        if self.selfish:
            self._to_forward.clear()
            return
        available = {
            uid: u
            for uid, u in self._to_forward.items()
            if not u.is_expired(round_no)
        }
        self._to_forward.clear()
        self._last_proposal = available
        if not available:
            return
        for successor in self.views.successors(self.node_id, round_no):
            self.log.append("SND", round_no, successor, available.keys())
            self.send(
                ActingPropose(
                    sender=self.node_id,
                    recipient=successor,
                    round_no=round_no,
                    uids=tuple(sorted(available)),
                )
            )

    def on_message(self, message: Message) -> None:
        if isinstance(message, ActingPropose):
            self._on_propose(message)
        elif isinstance(message, ActingRequest):
            self._on_request(message)
        elif isinstance(message, ActingServe):
            self._on_serve(message)
        elif isinstance(message, AuditRequest):
            self._on_audit_request(message)
        elif isinstance(message, AuditReply):
            self._on_audit_reply(message)

    def _on_propose(self, message: ActingPropose) -> None:
        missing = tuple(
            uid for uid in message.uids if uid not in self.store
        )
        if not missing:
            return
        self.send(
            ActingRequest(
                sender=self.node_id,
                recipient=message.sender,
                round_no=message.round_no,
                uids=missing,
            )
        )

    def _on_request(self, message: ActingRequest) -> None:
        available = self._last_proposal
        to_send = tuple(
            available[uid] for uid in message.uids if uid in available
        )
        if not to_send:
            return
        self.log.append(
            "SND", message.round_no, message.sender, (u.uid for u in to_send)
        )
        self.send(
            ActingServe(
                sender=self.node_id,
                recipient=message.sender,
                round_no=message.round_no,
                updates=to_send,
            )
        )

    def _on_serve(self, message: ActingServe) -> None:
        # Log only the receipts that create a forwarding obligation:
        # chunks expiring before the next round carry no obligation
        # (the same exemption PAG's two-list mechanism encodes).
        obligating = [
            u
            for u in message.updates
            if not u.expires_next_round(message.round_no)
        ]
        self.log.append(
            "RCV",
            message.round_no,
            message.sender,
            (u.uid for u in obligating),
        )
        for update in message.updates:
            if self.store.add(update, message.round_no):
                self._to_forward[update.uid] = update

    def end_round(self, round_no: int) -> None:
        self.store.drop_expired(round_no)

    # -- audits ---------------------------------------------------------

    def _maybe_audit(self, round_no: int) -> None:
        for monitored in self.views.monitored_by(self.node_id):
            if monitored == self.views.directory.source_id:
                continue
            if self._audit_rng.random() >= self.config.audit_probability:
                continue
            self.send(
                AuditRequest(
                    sender=self.node_id,
                    recipient=monitored,
                    round_no=round_no,
                    first_seq=self._audit_cursor.get(monitored, 0),
                )
            )

    def _on_audit_request(self, message: AuditRequest) -> None:
        segment = tuple(self.log.segment(message.first_seq))
        if self.forges_log:
            # Rewrite history: drop half the RCV entries to shed their
            # forwarding obligations.  The surviving entries' sequence
            # numbers and chain hashes still commit to the deleted
            # ones, so verification fails at the auditor.
            segment = tuple(
                e
                for e in segment
                if e.entry_type != "RCV" or e.seq % 2 == 0
            )
        self.send(
            AuditReply(
                sender=self.node_id,
                recipient=message.sender,
                round_no=message.round_no,
                entries=segment,
                first_seq=message.first_seq,
            )
        )

    def _on_audit_reply(self, message: AuditReply) -> None:
        audited = message.sender
        segment = list(message.entries)
        if not verify_segment(segment):
            self.verdicts.record(
                Verdict(
                    node=audited,
                    reason=FaultReason.WRONG_FORWARD_SET,
                    exchange_round=message.round_no,
                    detected_by=self.node_id,
                    evidence="log chain verification failed",
                )
            )
            return
        self.audited_knowledge.setdefault(audited, []).extend(segment)
        self._audit_cursor[audited] = message.first_seq + len(segment)
        self._replay_rules(audited, message.round_no)

    def _replay_rules(self, audited: int, round_no: int) -> None:
        """Omission detection by rule replay over the audited log.

        This is the audit of Fig. 2: "each monitor can check that node X
        has forwarded all the updates it received during round R ... to
        all its successors ... during round R+1".  Obligating receipts
        at round R must be proposed (SND entry) to *every* successor of
        round R+1.
        """
        entries = self.audited_knowledge.get(audited, [])
        received: Dict[int, Set[int]] = {}
        proposed: Dict[Tuple[int, int], Set[int]] = {}
        max_round = -1
        for entry in entries:
            max_round = max(max_round, entry.round_no)
            if entry.entry_type == "RCV":
                received.setdefault(entry.round_no, set()).update(
                    entry.update_uids
                )
            else:
                proposed.setdefault(
                    (entry.round_no, entry.partner), set()
                ).update(entry.update_uids)
        for rnd, uids in received.items():
            if rnd + 1 >= max_round:
                continue  # the forwarding round may not be logged yet
            for successor in self.views.successors(audited, rnd + 1):
                missing = uids - proposed.get((rnd + 1, successor), set())
                if missing:
                    self.verdicts.record(
                        Verdict(
                            node=audited,
                            reason=FaultReason.WRONG_FORWARD_SET,
                            exchange_round=rnd + 1,
                            detected_by=self.node_id,
                            evidence=(
                                f"log shows {len(missing)} update(s) "
                                f"received in round {rnd} and never "
                                f"proposed to successor {successor} in "
                                f"round {rnd + 1}"
                            ),
                        )
                    )


class ActingSourceNode(SimNode):
    """The AcTinG stream source: proposes fresh chunks to random nodes."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        views: ViewProvider,
        schedule: StreamSchedule,
    ) -> None:
        super().__init__(node_id, network)
        self.views = views
        self.schedule = schedule
        self.released: List[Update] = []
        self._last_proposal: Dict[int, Update] = {}

    def begin_round(self, round_no: int) -> None:
        chunks = self.schedule.release(round_no)
        self.released.extend(chunks)
        if not chunks:
            return
        self._last_proposal = {u.uid: u for u in chunks}
        for successor in self.views.successors(self.node_id, round_no):
            self.send(
                ActingPropose(
                    sender=self.node_id,
                    recipient=successor,
                    round_no=round_no,
                    uids=tuple(sorted(self._last_proposal)),
                )
            )

    def on_message(self, message: Message) -> None:
        if isinstance(message, ActingRequest):
            to_send = tuple(
                self._last_proposal[uid]
                for uid in message.uids
                if uid in self._last_proposal
            )
            if to_send:
                self.send(
                    ActingServe(
                        sender=self.node_id,
                        recipient=message.sender,
                        round_no=message.round_no,
                        updates=to_send,
                    )
                )

    def total_released(self) -> int:
        return len(self.released)


@dataclass
class ActingSession(SimSession[ActingNode]):
    """A ready-to-run AcTinG deployment (mirrors
    :class:`repro.core.session.PagSession`)."""

    source: ActingSourceNode
    config: ActingConfig

    @classmethod
    def create(
        cls,
        n_nodes: int,
        config: Optional[ActingConfig] = None,
        selfish_nodes: Optional[Set[int]] = None,
        forging_nodes: Optional[Set[int]] = None,
    ) -> "ActingSession":
        from repro.membership.directory import Directory

        if config is None:
            config = ActingConfig(
                fanout=max(3, round(math.log10(n_nodes))),
                monitors_per_node=max(3, round(math.log10(n_nodes))),
            )
        directory = Directory.of_size(n_nodes, source_id=0)
        seeds = SeedSequence(config.seed)
        views = ViewProvider(
            directory=directory,
            seeds=seeds.child("views"),
            fanout=config.fanout,
            monitors_per_node=config.monitors_per_node,
        )
        network = Network()
        simulator = Simulator(network=network)
        schedule = StreamSchedule(
            rate_kbps=config.stream_rate_kbps,
            update_bytes=config.update_bytes,
            playout_delay_rounds=config.playout_delay_rounds,
        )
        source = ActingSourceNode(0, network, views, schedule)
        simulator.add_node(source)
        selfish_nodes = selfish_nodes or set()
        forging_nodes = forging_nodes or set()
        nodes: Dict[int, ActingNode] = {}
        for node_id in directory.consumers():
            node = ActingNode(
                node_id,
                network,
                views,
                config,
                seeds,
                selfish=node_id in selfish_nodes,
                forges_log=node_id in forging_nodes,
            )
            nodes[node_id] = node
            simulator.add_node(node)
        return cls(
            simulator=simulator, source=source, nodes=nodes, config=config
        )

    def all_verdicts(self) -> List[Verdict]:
        seen = set()
        merged: List[Verdict] = []
        for node in self.nodes.values():
            for verdict in node.verdicts:
                key = (verdict.node, verdict.reason, verdict.exchange_round)
                if key not in seen:
                    seen.add(key)
                    merged.append(verdict)
        return merged

    def convicted_nodes(self) -> Set[int]:
        return {v.node for v in self.all_verdicts()}


__all__.append("ActingSession")
