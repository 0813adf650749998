"""Fault injection: loss, delay, partitions, corruption, throttles.

The paper's system model notes that "using classical techniques we
handle omission failures" (section IV-A): a lost serve or ack triggers
the accusation path of Fig. 3, which re-delivers the content through
the accused node's monitors and exonerates honest parties via Confirm.
These faults — all installed as network drop rules — let the tests
exercise exactly those paths.

Each fault kind is one frozen declaration (``LossFault``,
``DelayFault``, ``PartitionFault``, ``OutageFault``, ``LinkCutFault``,
``CorruptionFault``, ``BudgetFault``), carried by
``ScenarioSpec.fault_schedule`` and serialised by its ``kind`` tag.  A
declaration checks its fields once at construction, range-checks them
against a scenario's size in :meth:`FaultSpec.validate_for`, and
decides each message itself (:meth:`FaultSpec.decide`).
:meth:`FaultSpec.build` pairs it with the run's state — the rng stream
the caller derives from the scenario seed, the tallies, a delay's held
messages, a budget's used bytes — in a :class:`FaultRule`, which is
what ``Network.add_drop_rule`` installs and what reports its counters
through :meth:`FaultRule.stats`.  The same spec therefore always
produces the same fault schedule, byte for byte, under every execution
policy.

Determinism: drop rules are only ever evaluated on the parent network
(replica workers run in capture mode, which bypasses rules), and the
parent evaluates them in the reconstructed serial send order.  Every
rule draws from the generator it was built with; there is no default.

Invariant envelope: the accountability plane (monitor broadcasts, ack
relays, accusations, probes, confirms) is assumed reliable by the paper
— faults injected there can convict honest nodes.  The *data plane*
(key exchange, serves, attestations, acks) and the declaration seam
(ack copies, attestation relays, declaration acks) recover through
accusations and monitor rotation, so loss/delay/corruption restricted
to ``DATA_PLANE_KINDS`` preserves the zero-false-conviction invariant.
The fuzz harness (``repro.scenarios.fuzz``) draws only from that
envelope; unrestricted faults remain available for targeted tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.sim.message import Message, WireSizes

if TYPE_CHECKING:
    from repro.sim.network import Network

__all__ = [
    "DATA_PLANE_KINDS",
    "SAFE_CORRUPTION_KINDS",
    "FaultSpec",
    "FaultRule",
    "LossFault",
    "DelayFault",
    "PartitionFault",
    "OutageFault",
    "LinkCutFault",
    "CorruptionFault",
    "BudgetFault",
    "FAULT_SPEC_TYPES",
    "fault_report",
]

#: Message kinds whose loss/delay the protocol recovers from without
#: convicting anyone: the Fig. 5 exchange plus the declaration seam
#: (redeclaration rotates to the next monitor when no DeclarationAck
#: arrives).  The monitoring/accusation plane is NOT in this set — the
#: paper assumes reliable channels there.
DATA_PLANE_KINDS: frozenset = frozenset(
    {
        "key_request",
        "key_response",
        "serve",
        "attestation",
        "ack",
        "ack_copy",
        "attestation_relay",
        "declaration_ack",
    }
)

#: Kinds a corruption knows how to mutate; every mutation is caught by
#: a signature or hash check at the receiver and degrades to an omission.
SAFE_CORRUPTION_KINDS: frozenset = frozenset(
    {"serve", "attestation", "ack", "ack_copy", "attestation_relay"}
)

#: XOR mask applied to an update id when corrupting a Serve: far above
#: any real sequence number, so the tampered chunk can never collide
#: with a legitimate update.
_UID_FLIP = 1 << 48


class FaultRule:
    """One installed fault: a declaration plus the state of one run.

    The declaration decides; the rule only holds what a run changes —
    the rng stream, the hit tally (``stats`` reports it under the
    declaration's ``counter``), a delay's held messages and trigger
    count, a budget's used bytes per (recipient, round) — and the wire
    sizes and round length a budget prices against.
    """

    __slots__ = (
        "fault",
        "rng",
        "label",
        "sizes",
        "round_seconds",
        "withholds_for_delay",
        "hits",
        "released",
        "trigger",
        "held",
        "used",
    )

    def __init__(
        self,
        fault: "FaultSpec",
        rng: random.Random,
        label: str,
        sizes: WireSizes,
        round_seconds: float,
    ) -> None:
        self.fault = fault
        self.rng = rng
        self.label = label
        self.sizes = sizes
        self.round_seconds = round_seconds
        #: Marks a delay: the network counts its withheld messages as
        #: delayed (not dropped) and polls it for releases.
        self.withholds_for_delay = isinstance(fault, DelayFault)
        self.hits = 0
        self.released = 0
        self.trigger = 0
        self.held: List[Tuple[int, Message]] = []
        self.used: Dict[Tuple[int, int], int] = {}

    def __call__(self, message: Message) -> bool:
        return self.fault.decide(self, message)

    def take_released(self) -> List[Message]:
        """Messages whose delay elapsed; called after each evaluation."""
        if not self.held:
            return []
        due = [m for when, m in self.held if when <= self.trigger]
        if due:
            self.held = [
                (when, m) for when, m in self.held if when > self.trigger
            ]
            self.released += len(due)
        return due

    def flush_delayed(self) -> List[Message]:
        """Round boundary: everything still held is released at once."""
        due = [m for _, m in self.held]
        self.held = []
        self.released += len(due)
        return due

    def stats(self) -> Dict[str, int]:
        stats = {self.fault.counter: self.hits}
        if self.withholds_for_delay:
            stats["released"] = self.released
        return stats


@dataclass(frozen=True)
class FaultSpec:
    """Base class of the fault declarations.

    Subclasses are frozen, repr-replayable dataclasses tagged by
    ``kind``.  An empty ``kinds`` field means every message kind.
    """

    kind: ClassVar[str] = "fault"
    #: the counter ``FaultRule.stats`` reports this fault's hits under.
    counter: ClassVar[str] = "dropped"

    def validate_for(self, nodes: int, rounds: int) -> None:
        """Range-check ids/windows against a scenario's dimensions."""

    def decide(self, rule: FaultRule, message: Message) -> bool:
        """True when ``message`` is withheld (dropped or delayed)."""
        raise NotImplementedError

    def build(
        self,
        rng: random.Random,
        network: "Network",
        round_seconds: float = 1.0,
        label: str = "",
    ) -> FaultRule:
        """The drop rule running this fault on ``network``."""
        return FaultRule(
            self, rng, label or self.kind, network.sizes, round_seconds
        )


def _check_probability(probability: float) -> None:
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be within [0, 1]")


def _check_window(what: str, first_round: int, last_round: int) -> None:
    if first_round < 0:
        raise ValueError("first_round must be non-negative")
    if last_round < first_round:
        raise ValueError(
            f"empty {what} window [{first_round}, {last_round}]"
        )


def _check_node_ids(ids: Iterable[int], nodes: int, what: str) -> None:
    for node in ids:
        if not 0 <= node < nodes:
            raise ValueError(
                f"{what}: node {node} outside the membership "
                f"[0, {nodes})"
            )


def _check_takes_effect(what: str, first_round: int, rounds: int) -> None:
    if first_round >= rounds:
        raise ValueError(
            f"{what} window starting at round {first_round} never "
            f"takes effect in a {rounds}-round scenario"
        )


@dataclass(frozen=True)
class LossFault(FaultSpec):
    """Drop each matching message independently with a fixed probability.

    Draws from the rng only for a matching kind.
    """

    probability: float = 0.05
    kinds: Tuple[str, ...] = ()
    kind: ClassVar[str] = "loss"

    def __post_init__(self) -> None:
        _check_probability(self.probability)

    def decide(self, rule: FaultRule, message: Message) -> bool:
        if self.kinds and message.kind not in self.kinds:
            return False
        if rule.rng.random() < self.probability:
            rule.hits += 1
            return True
        return False


@dataclass(frozen=True)
class DelayFault(FaultSpec):
    """Withhold matching messages and re-enqueue them a few sends later.

    A held message is released back onto the queue after ``triggers``
    further rule evaluations — matching or not, every evaluated send
    counts — or at the next round boundary, whichever comes first.
    Both release points are fixed functions of the global send order,
    so delayed schedules stay bit-identical across execution policies.
    The one-round cap keeps delays inside the protocol's tolerance: an
    ack held past the end-of-round obligation check would manufacture
    an accusation the sender cannot distinguish from a real omission
    (which is precisely what the accusation path then absorbs).
    """

    probability: float = 0.05
    triggers: int = 8
    kinds: Tuple[str, ...] = ()
    kind: ClassVar[str] = "delay"
    counter: ClassVar[str] = "delayed"

    def __post_init__(self) -> None:
        _check_probability(self.probability)
        if self.triggers < 1:
            raise ValueError("triggers must be at least 1")

    def decide(self, rule: FaultRule, message: Message) -> bool:
        rule.trigger += 1
        if self.kinds and message.kind not in self.kinds:
            return False
        if rule.rng.random() < self.probability:
            rule.held.append((rule.trigger + self.triggers, message))
            rule.hits += 1
            return True
        return False


@dataclass(frozen=True)
class PartitionFault(FaultSpec):
    """Bidirectional cut between a node group and the rest, with heal.

    During rounds ``first_round..last_round`` every matching message
    crossing the group boundary (in either direction) is dropped;
    traffic within either side flows normally, and the cut heals
    afterwards.  A full partition also severs the accusation plane,
    which the paper's model assumes reliable, so fuzzing uses
    data-plane-only partitions and full ones are exercised by targeted
    tests.
    """

    group: Tuple[int, ...] = ()
    first_round: int = 0
    last_round: int = 0
    kinds: Tuple[str, ...] = ()
    kind: ClassVar[str] = "partition"

    def __post_init__(self) -> None:
        if not self.group:
            raise ValueError("partition group must not be empty")
        if any(node < 0 for node in self.group):
            raise ValueError("partition group has a negative node id")
        _check_window("partition", self.first_round, self.last_round)

    def validate_for(self, nodes: int, rounds: int) -> None:
        _check_node_ids(self.group, nodes, "PartitionFault")
        _check_takes_effect("PartitionFault", self.first_round, rounds)

    def decide(self, rule: FaultRule, message: Message) -> bool:
        if not self.first_round <= message.round_no <= self.last_round:
            return False
        if self.kinds and message.kind not in self.kinds:
            return False
        if (message.sender in self.group) != (
            message.recipient in self.group
        ):
            rule.hits += 1
            return True
        return False


@dataclass(frozen=True)
class OutageFault(FaultSpec):
    """A node is unreachable (and mute) during a round window.

    Models a crash-recovery outage: all traffic from and to the node is
    dropped while the outage lasts.  Accountability systems without
    failure detectors conflate crashes with refusals — the tests verify
    both that a *permanent* crash is convicted (it is indistinguishable
    from a selfish silent node) and that the rest of the membership
    keeps streaming.
    """

    node_id: int = 0
    first_round: int = 0
    last_round: int = 0
    kind: ClassVar[str] = "outage"

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError("node_id must be non-negative")
        _check_window("outage", self.first_round, self.last_round)

    def validate_for(self, nodes: int, rounds: int) -> None:
        _check_node_ids((self.node_id,), nodes, "OutageFault")
        _check_takes_effect("OutageFault", self.first_round, rounds)

    def decide(self, rule: FaultRule, message: Message) -> bool:
        if not self.first_round <= message.round_no <= self.last_round:
            return False
        if self.node_id in (message.sender, message.recipient):
            rule.hits += 1
            return True
        return False


@dataclass(frozen=True)
class LinkCutFault(FaultSpec):
    """Silently discard traffic on specific directed links.

    A cut of both directions lists both pairs.  An unrestricted cut
    severs the accountability plane too — e.g. ``monitor_broadcast``
    between two monitors of the same node, which no redeclaration can
    route around (the declaration was acknowledged, so the declarer
    never retries) — and can therefore falsely convict honest nodes;
    confine cuts to :data:`DATA_PLANE_KINDS` when invariant 1 must hold.
    """

    links: Tuple[Tuple[int, int], ...] = ()
    kinds: Tuple[str, ...] = ()
    kind: ClassVar[str] = "link-cut"

    def __post_init__(self) -> None:
        if not self.links:
            raise ValueError("links must not be empty")
        for link in self.links:
            if len(link) != 2:
                raise ValueError(
                    f"link {link!r} is not a (sender, recipient) pair"
                )
            a, b = link
            if a == b:
                raise ValueError(f"link {link!r} is a self-link")
            if a < 0 or b < 0:
                raise ValueError(f"link {link!r} has a negative node id")

    def validate_for(self, nodes: int, rounds: int) -> None:
        for link in self.links:
            _check_node_ids(link, nodes, "LinkCutFault")

    def decide(self, rule: FaultRule, message: Message) -> bool:
        if (message.sender, message.recipient) in self.links and (
            not self.kinds or message.kind in self.kinds
        ):
            rule.hits += 1
            return True
        return False


@dataclass(frozen=True)
class CorruptionFault(FaultSpec):
    """Byzantine in-flight mutation of message contents.

    Matching messages are tampered with (and *delivered*): a Serve gets
    a bit-flipped update id, an Attestation/Ack/AckCopy a flipped hash,
    an AttestationRelay a wrong cofactor.  Every mutation is
    size-preserving and breaks a signature or hash check at the
    receiver, so the protocol degrades it to an omission: unacked
    serves enter the accusation path, rejected declarations rotate to
    the next monitor.  ``max_corruptions`` bounds the blast radius —
    corrupting every redeclaration retry would exhaust the victim's
    monitor set, which no Byzantine *network* (as opposed to a
    Byzantine monitor coalition) can do in the paper's model.  An empty
    ``kinds`` means every kind in :data:`SAFE_CORRUPTION_KINDS`.

    Checks the budget, then the kind, and only then draws.
    """

    probability: float = 1.0
    max_corruptions: int = 1
    kinds: Tuple[str, ...] = ()
    kind: ClassVar[str] = "corruption"
    counter: ClassVar[str] = "corrupted"

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be within (0, 1]")
        if self.max_corruptions < 1:
            raise ValueError("max_corruptions must be at least 1")
        unknown = set(self.kinds) - SAFE_CORRUPTION_KINDS
        if unknown:
            raise ValueError(
                f"no corruption defined for kinds {sorted(unknown)}; "
                f"supported: {sorted(SAFE_CORRUPTION_KINDS)}"
            )

    def decide(self, rule: FaultRule, message: Message) -> bool:
        if rule.hits >= self.max_corruptions:
            return False
        if message.kind not in (self.kinds or SAFE_CORRUPTION_KINDS):
            return False
        if rule.rng.random() >= self.probability:
            return False
        if _mutate(message):
            rule.hits += 1
        return False  # the corrupted message is delivered, not dropped


def _mutate(message: Any) -> bool:
    kind = message.kind
    if kind == "serve":
        if not message.entries:
            return False
        entry = message.entries[0]
        tampered = replace(
            entry,
            update=replace(entry.update, uid=entry.update.uid ^ _UID_FLIP),
        )
        message.entries = (tampered,) + message.entries[1:]
        return True
    if kind == "attestation":
        att = message.attestation
        message.attestation = replace(att, hash_forward=att.hash_forward ^ 1)
        return True
    if kind in ("ack", "ack_copy"):
        ack = message.ack
        message.ack = replace(ack, hash_total=ack.hash_total ^ 1)
        return True
    if kind == "attestation_relay":
        message.cofactor ^= 1
        return True
    return False  # pragma: no cover - kinds validated at construction


@dataclass(frozen=True)
class BudgetFault(FaultSpec):
    """Per-node download throttle (the Fig. 7 heterogeneity spread).

    Each throttled node has a per-round byte budget derived from its
    link capacity in Kbps and the round length; matching messages
    beyond the budget are tail-dropped.  By default only serves are
    throttled — the big payload carrier, and a kind whose loss the
    accusation path recovers — so a constrained node degrades to late
    (re-delivered) chunks instead of convictions.
    """

    node_kbps: Tuple[Tuple[int, float], ...] = ()
    kinds: Tuple[str, ...] = ("serve",)
    kind: ClassVar[str] = "budget"

    def __post_init__(self) -> None:
        if not self.node_kbps:
            raise ValueError("node_kbps must not be empty")
        seen = set()
        for node, kbps in self.node_kbps:
            if node < 0:
                raise ValueError("node_kbps has a negative node id")
            if kbps <= 0:
                raise ValueError(
                    f"node {node}: budget must be positive, got {kbps}"
                )
            if node in seen:
                raise ValueError(f"node {node} appears twice in node_kbps")
            seen.add(node)

    def validate_for(self, nodes: int, rounds: int) -> None:
        _check_node_ids(
            (node for node, _ in self.node_kbps), nodes, "BudgetFault"
        )

    def decide(self, rule: FaultRule, message: Message) -> bool:
        for node, kbps in self.node_kbps:
            if node == message.recipient:
                break
        else:
            return False
        if self.kinds and message.kind not in self.kinds:
            return False
        key = (message.recipient, message.round_no)
        used = rule.used.get(key, 0)
        size = message.size_bytes(rule.sizes)
        if used + size > kbps * 1000.0 / 8.0 * rule.round_seconds:
            rule.hits += 1
            return True
        rule.used[key] = used + size
        return False


#: kind tag -> declaration class: the ``kind`` of a serialised fault
#: entry (``ScenarioSpec.to_json``) names its class here.
FAULT_SPEC_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        LossFault,
        DelayFault,
        PartitionFault,
        OutageFault,
        LinkCutFault,
        CorruptionFault,
        BudgetFault,
    )
}


def fault_report(
    rules: Iterable[Callable[[Message], bool]],
) -> Dict[str, Dict[str, int]]:
    """Collect per-rule counters from a network's drop rules."""
    report: Dict[str, Dict[str, int]] = {}
    for index, rule in enumerate(rules):
        stats: Optional[Callable[[], Dict[str, int]]] = getattr(
            rule, "stats", None
        )
        if stats is None:
            continue
        label = getattr(rule, "label", "") or type(rule).__name__
        key = label if label not in report else f"{label}#{index}"
        report[key] = stats()
    return report
