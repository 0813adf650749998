"""The monitor engine: log-less verification of reception and forwarding.

Every node hosts one :class:`MonitorEngine` that carries out its duties
towards the nodes it monitors (section IV-A).  Per monitored node X and
round R the engine:

1. **Receiver side** — receives X's AckCopy/AttestationRelay pairs
   (messages 6-7), lifts each attested hash to X's full round key with
   the supplied cofactor (message 8 computation), broadcasts the lifted
   values to the other monitors of X, and relays X's acknowledgement to
   the monitors of the serving node (message 9).  At the end of the
   round, the per-predecessor lifted hashes multiply into X's
   *forwarding obligation*: ``H(everything X must forward)_(K(R,X))``
   (section V-C).

2. **Server side** — during round R+1 collects, for each successor D of
   X, the relayed acknowledgement (message 9 from D's monitors, or a
   Confirm from the accusation path).  Each ack must equal X's round-R
   obligation.  A missing ack opens a :class:`CaseFile`: the engine asks
   X to exhibit D's signed ack ("they ask node A for the acknowledgement
   that node B should have sent", section IV-A); exhibition convicts D,
   a Nack from D's monitors convicts D, and silence or an unbacked
   accusation claim convicts X at the deadline.

Monitors never see update contents, identifiers, or individual primes on
the happy path — only hashes and prime *products* — which is the privacy
property P1.  Only the accusation path (Fig. 3) reveals a serve's
content to the accused node's monitors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.accusations import CaseFile, FaultReason, Verdict, VerdictLog
from repro.core.context import PagContext
from repro.core.messages import (
    Accusation,
    AckCopy,
    AckRelay,
    AttestationRelay,
    AttestationRelayBatch,
    Confirm,
    DeclarationAck,
    InvestigateRequest,
    InvestigateResponse,
    MonitorBroadcast,
    MonitorProbe,
    Nack,
    ProbeAck,
    RelayPair,
    SelfCheck,
    ServeEntry,
    SignedAck,
    SignedAttestation,
)
from repro.core.verification import (
    BatchVerifier,
    combine_lifted,
    hash_entries,
    lift_attested,
)
from repro.sim.message import Message

__all__ = ["MonitorEngine", "MONITOR_COUNTER_KEYS"]

#: Rounds granted to resolve a dispute before conviction at the deadline
#: (accusation + probe + nack travel takes two rounds in the simulator).
_CASE_DEADLINE_ROUNDS = 2

#: The fixed accusation-path counter schema every engine carries, in
#: canonical order.  Parallel shard merges, JSON summaries and the
#: service layer's per-round counter deltas all iterate this tuple, so
#: adding a counter here is the single schema change.
MONITOR_COUNTER_KEYS: Tuple[str, ...] = (
    "declarations_processed",
    "declarations_rejected",
    "accusations_received",
    "accusation_claims",
    "probes_sent",
    "probe_acks_accepted",
    "confirms_sent",
    "nacks_sent",
    "cases_opened",
    "cases_resolved",
    "deadline_convictions",
)


@dataclass
class _ReceiverRecord:
    """Message 6/7 bookkeeping for one (monitored, predecessor, round)."""

    ack: Optional[SignedAck] = None
    attestation: Optional[object] = None
    cofactor: int = 1
    processed: bool = False
    #: the attestation arrived inside an AttestationRelayBatch, whose
    #: peer sharing is the forwarded batch itself — the pair folds into
    #: the round's BatchVerifier instead of materialising a lift.
    batched: bool = False


@dataclass
class _PendingProbe:
    """A probe sent after an accusation, awaiting the accused's ack."""

    accused: int
    accuser: int
    exchange_round: int
    entries: Tuple[ServeEntry, ...]
    key_prev: int
    key_prime_count: int
    answered: bool = False


class MonitorEngine:
    """Monitoring duties of one host node.

    Args:
        host_id: the node carrying out the duties.
        context: shared session context.
        send: callback delivering a message to the network.
        active: monitoring can be disabled (selfish monitors, or pure
            data-path bandwidth runs).
        first_round: the host's first participating round (join churn).
            A monitor that arrives mid-session missed the declarations
            of earlier rounds, so it must not judge exchanges whose
            obligation accumulates from rounds before it was present —
            its duties start with the first full declaration round it
            observed.
    """

    def __init__(
        self,
        host_id: int,
        context: PagContext,
        send: Callable[[Message], None],
        active: bool = True,
        lift_transform: Optional[Callable] = None,
        first_round: int = 0,
    ) -> None:
        self.host_id = host_id
        self.context = context
        self.send = send
        self.first_round = first_round
        self.verdicts = VerdictLog()
        self.set_behavior_hooks(active, lift_transform)
        #: (monitored, round) -> folded pairs of relay batches.
        self._batch: Dict[Tuple[int, int], BatchVerifier] = {}
        #: (monitored, pred, round) pairs already folded from a wire
        #: batch — BatchVerifier adds are irreversible, so duplicate
        #: forwarded copies must be dropped here, not after the fold.
        self._batch_seen: set[Tuple[int, int, int]] = set()
        #: (monitored, pred, round) -> paired messages 6/7.
        self._receiver_records: Dict[
            Tuple[int, int, int], _ReceiverRecord
        ] = {}
        #: (monitored, round) -> pred -> (lifted_fwd, lifted_ack, source).
        self._lifted: Dict[
            Tuple[int, int], Dict[int, Tuple[int, int, int]]
        ] = {}
        #: section V-B cross-checks: (monitored, round) -> pred -> pair.
        self._self_checks: Dict[
            Tuple[int, int], Dict[int, Tuple[int, int]]
        ] = {}
        #: (server, round) -> successor -> relayed SignedAck.
        self._relays: Dict[Tuple[int, int], Dict[int, SignedAck]] = {}
        #: open disputes by case key.
        self._cases: Dict[Tuple[int, int, int], CaseFile] = {}
        #: accusation claims seen: (accuser, accused, round).
        self._accusation_claims: set[Tuple[int, int, int]] = set()
        #: probes awaiting ProbeAck, keyed by (accused, accuser, round).
        self._pending_probes: Dict[Tuple[int, int, int], _PendingProbe] = {}
        #: messages to emit at the start of the next round.
        self._outbox_next_round: List[Callable[[int], Message]] = []
        #: accusation-path and declaration-seam tallies, surfaced via
        #: ``PagSession.accusation_report`` and the run summaries.  Keys
        #: are fixed at construction (:data:`MONITOR_COUNTER_KEYS`) so
        #: parallel shard merges, JSON reports and the service layer's
        #: counter deltas see a stable schema.
        self.counters: Dict[str, int] = {
            key: 0 for key in MONITOR_COUNTER_KEYS
        }

    def set_behavior_hooks(
        self, active: bool, lift_transform: Optional[Callable]
    ) -> None:
        """Derive the behaviour-dependent wiring: at construction, and
        again after a strategy swap (operator control).

        One derivation for both, so a node whose behaviour is flipped
        between rounds is indistinguishable from one built with the new
        behaviour — the property the service layer's static/dynamic
        differential test pins down.
        """
        self.active = active
        #: hook applied to lifted pairs before broadcasting (message 8);
        #: a lying monitor corrupts here (Behavior.transform_lifted).
        self.lift_transform = lift_transform
        #: batched monitor verification: fold the raw pairs of an
        #: AttestationRelayBatch (a daemon fleet's batched message 7)
        #: with one multi-exponentiation, since their individual lifted
        #: values never reach the wire.  Lifts that are transformed (a
        #: lying monitor's hook) or cross-checked against signed
        #: self-checks (section V-B compares them value by value) must
        #: be materialised per pair.
        self._fold_batched = lift_transform is None and not getattr(
            self.context.config, "monitor_cross_checks", False
        )

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        """Emit deferred traffic (investigations, nacks) for this round."""
        if not self.active:
            return
        pending, self._outbox_next_round = self._outbox_next_round, []
        for build in pending:
            message = build(round_no)
            if message is not None:
                self.send(message)

    def end_round(self, round_no: int) -> None:
        """Finalise obligations and run the server-side checks."""
        if not self.active:
            return
        self._check_servers(round_no)
        self._close_unanswered_probes(round_no)
        self._resolve_deadlines(round_no)
        self._prune(round_no)

    # ------------------------------------------------------------------
    # Receiver-side monitoring (messages 6-9)
    # ------------------------------------------------------------------

    def on_ack_copy(self, message: AckCopy) -> None:
        if not self.active:
            return
        ack = message.ack
        if not self._ack_signature_valid(ack):
            self.counters["declarations_rejected"] += 1
            return  # a forged copy must not enter the relay chain
        record = self._record_for(message.sender, ack.server, ack.round_no)
        record.ack = ack
        self._maybe_process_pair(message.sender, ack.server, ack.round_no)

    def on_attestation_relay(self, message: AttestationRelay) -> None:
        if not self.active:
            return
        attestation = message.attestation
        if not self.context.signer.verify(
            attestation.server,
            attestation.payload_bytes_desc(),
            attestation.signature,
        ):
            self.counters["declarations_rejected"] += 1
            return  # forged attestation: ignore (cannot be lifted safely)
        if not self.context.signer.verify(
            message.sender,
            (
                f"attrelay|{attestation.round_no}|{attestation.server}|"
                f"{message.cofactor}"
            ).encode(),
            message.signature,
        ):
            # The declarer's outer signature covers the cofactor: a
            # tampered cofactor would lift the attested hash to a bogus
            # obligation and falsely convict the server downstream, so
            # the relay is discarded here and the declarer's missing
            # DeclarationAck rotates it to its next monitor.
            self.counters["declarations_rejected"] += 1
            return
        key = (message.sender, attestation.server, attestation.round_no)
        record = self._record_for(*key)
        record.attestation = attestation
        record.cofactor = message.cofactor
        self._maybe_process_pair(*key)

    def on_attestation_relay_batch(
        self, message: AttestationRelayBatch
    ) -> None:
        """Batched message 7: raw (hash, cofactor) pairs, one signature.

        Direct from the declarer, every valid pair enters the normal
        receiver record (paired with its AckCopy, acknowledged with a
        DeclarationAck, its ack relayed as message 9) — but the lift is
        never materialised: the same signed batch is forwarded to the
        peer monitors in place of per-pair MonitorBroadcasts, and every
        monitor folds the raw pairs through its round
        :class:`BatchVerifier` (one multi-exponentiation per obligation
        instead of one wide ``pow`` per pair).
        """
        if not self.active:
            return
        declarer = message.declarer
        if not self.context.signer.verify(
            declarer, message.payload_desc(), message.signature
        ):
            # One outer signature covers every cofactor in the list; a
            # tampered batch is discarded whole, and the declarer's
            # missing DeclarationAcks rotate the pairs to its next
            # monitors as individual relays.
            self.counters["declarations_rejected"] += 1
            return
        forwarded = message.sender != declarer
        if not forwarded and self._fold_batched:
            # Peer sharing for the whole batch: forward the declarer's
            # own signed artifact (peers re-verify the declarer's
            # signature; this monitor cannot corrupt it).
            for peer in self.context.monitors_of(declarer):
                if peer == self.host_id:
                    continue
                self.send(
                    AttestationRelayBatch(
                        sender=self.host_id,
                        recipient=peer,
                        round_no=message.round_no,
                        declarer=declarer,
                        pairs=message.pairs,
                        signature=message.signature,
                    )
                )
        for pair in message.pairs:
            att = pair.attestation
            if not self.context.signer.verify(
                att.server, att.payload_bytes_desc(), att.signature
            ):
                self.counters["declarations_rejected"] += 1
                continue
            if forwarded:
                self._on_forwarded_pair(declarer, pair, message.sender)
                continue
            key = (declarer, att.server, att.round_no)
            record = self._record_for(*key)
            record.attestation = att
            record.cofactor = pair.cofactor
            record.batched = self._fold_batched
            self._maybe_process_pair(*key)

    def _on_forwarded_pair(
        self, monitored: int, pair: RelayPair, source: int
    ) -> None:
        """A peer-forwarded batch pair: fold it, or fall back to a
        materialised lift when a transform/cross-check needs per-pair
        values (mirroring :meth:`on_monitor_broadcast`)."""
        att = pair.attestation
        if self._fold_batched:
            self._fold_wire_pair(monitored, att, pair.cofactor)
            return
        hasher = self.context.hasher
        self._accumulate(
            monitored,
            att.round_no,
            att.server,
            lift_attested(hasher, att.hash_forward, pair.cofactor),
            lift_attested(hasher, att.hash_ack_only, pair.cofactor),
            source=source,
        )

    def _fold_wire_pair(
        self, monitored: int, att: SignedAttestation, cofactor: int
    ) -> None:
        """Fold one wire-carried raw pair into the round's verifier.

        The ack-only lift is tallied but folded out: monitors
        acknowledge the expiring/duplicate list without adding it to
        the forwarding obligation (section V-D).
        """
        key = (monitored, att.server, att.round_no)
        if key in self._batch_seen:
            return
        self._batch_seen.add(key)
        verifier = self._batch.setdefault(
            (monitored, att.round_no), BatchVerifier(self.context.hasher)
        )
        verifier.add(att.hash_forward, cofactor)
        verifier.add(att.hash_ack_only, cofactor, include=False)

    def _record_for(
        self, monitored: int, predecessor: int, round_no: int
    ) -> _ReceiverRecord:
        key = (monitored, predecessor, round_no)
        return self._receiver_records.setdefault(key, _ReceiverRecord())

    def _maybe_process_pair(
        self, monitored: int, predecessor: int, round_no: int
    ) -> None:
        """Once both messages 6 and 7 arrived: lift, broadcast, relay."""
        record = self._record_for(monitored, predecessor, round_no)
        if (
            record.processed
            or record.ack is None
            or record.attestation is None
        ):
            return
        record.processed = True
        self.counters["declarations_processed"] += 1
        # Confirm receipt so the declarer knows this monitor is alive
        # (otherwise it re-sends the pair to its next monitor).
        self.send(
            DeclarationAck(
                sender=self.host_id,
                recipient=monitored,
                round_no=round_no,
                server=predecessor,
                exchange_round=round_no,
                signature=self._sign(
                    f"declack|{monitored}|{predecessor}|{round_no}"
                ),
            )
        )
        att = record.attestation
        hasher = self.context.hasher
        if record.batched:
            # The pair arrived in an AttestationRelayBatch: the signed
            # batch itself was forwarded to the peer monitors, so no
            # per-pair lift is ever materialised — fold the raw pair
            # (even when fm > 1) and relay the ack as usual.
            self._fold_wire_pair(monitored, att, record.cofactor)
            self._relay_ack(predecessor, record.ack, round_no)
            return
        lifted_forward = lift_attested(
            hasher, att.hash_forward, record.cofactor
        )
        lifted_ack_only = lift_attested(
            hasher, att.hash_ack_only, record.cofactor
        )
        if self.lift_transform is not None:
            lifted_forward, lifted_ack_only = self.lift_transform(
                monitored, predecessor, round_no,
                (lifted_forward, lifted_ack_only),
            )
        self._accumulate(
            monitored, round_no, predecessor, lifted_forward,
            lifted_ack_only, source=self.host_id,
        )
        # Message 8: share the lifted pair with the other monitors of X.
        for peer in self.context.monitors_of(monitored):
            if peer == self.host_id:
                continue
            self.send(
                MonitorBroadcast(
                    sender=self.host_id,
                    recipient=peer,
                    round_no=round_no,
                    monitored=monitored,
                    predecessor=predecessor,
                    lifted_forward=lifted_forward,
                    lifted_ack_only=lifted_ack_only,
                    ack=record.ack,
                    signature=self._sign(
                        f"mb|{monitored}|{predecessor}|{round_no}|"
                        f"{lifted_forward}|{lifted_ack_only}"
                    ),
                )
            )
        # Message 9: relay X's ack to the serving node's monitors.
        self._relay_ack(predecessor, record.ack, round_no)

    def _relay_ack(self, server: int, ack: SignedAck, round_no: int) -> None:
        if not self.context.is_monitored(server):
            return  # the source is correct by assumption: nobody checks it
        for monitor in self.context.monitors_of(server):
            if monitor == self.host_id:
                self._store_relay(server, ack)
                continue
            self.send(
                AckRelay(
                    sender=self.host_id,
                    recipient=monitor,
                    round_no=round_no,
                    server=server,
                    ack=ack,
                    signature=self._sign(
                        f"relay|{server}|{ack.receiver}|{ack.round_no}|"
                        f"{ack.hash_total}"
                    ),
                )
            )

    def on_monitor_broadcast(self, message: MonitorBroadcast) -> None:
        if not self.active:
            return
        self._accumulate(
            message.monitored,
            message.ack.round_no,
            message.predecessor,
            message.lifted_forward,
            message.lifted_ack_only,
            source=message.sender,
        )

    def on_self_check(self, message: SelfCheck) -> None:
        """Section V-B cross-check: the monitored node's own lifted pair."""
        if not self.active:
            return
        if not self.context.signer.verify(
            message.sender, message.payload_desc(), message.signature
        ):
            return
        per_pred = self._self_checks.setdefault(
            (message.sender, message.round_no), {}
        )
        per_pred.setdefault(
            message.predecessor,
            (message.lifted_forward, message.lifted_ack_only),
        )

    def on_ack_relay(self, message: AckRelay) -> None:
        if not self.active:
            return
        if not self._ack_signature_valid(message.ack):
            return  # forged relay: an attacker framing the server
        self._store_relay(message.server, message.ack)

    def _ack_signature_valid(self, ack: SignedAck) -> bool:
        return self.context.signer.verify(
            ack.receiver, ack.payload_bytes_desc(), ack.signature
        )

    def _store_relay(self, server: int, ack: SignedAck) -> None:
        per_round = self._relays.setdefault((server, ack.round_no), {})
        per_round[ack.receiver] = ack
        # A late relay can still exonerate an open case.
        case = self._cases.get((server, ack.receiver, ack.round_no))
        if case is not None and not case.resolved:
            self._judge_relay(case, ack)

    def _accumulate(
        self,
        monitored: int,
        round_no: int,
        predecessor: int,
        lifted_forward: int,
        lifted_ack_only: int,
        source: int,
    ) -> None:
        per_pred = self._lifted.setdefault((monitored, round_no), {})
        per_pred.setdefault(
            predecessor, (lifted_forward, lifted_ack_only, source)
        )

    def obligation(self, monitored: int, round_no: int) -> int:
        """``H(forward product of round_no)_(K(round_no, monitored))``.

        The multiplicative combination of section V-C; 1 when the node
        received nothing that round.  Lifts that were materialised (for
        broadcast, or received from peers) multiply directly; the raw
        pairs of relay batches fold through the round's
        :class:`BatchVerifier` in one multi-exponentiation pass — the
        same product, bit for bit.
        """
        per_pred = self._lifted.get((monitored, round_no), {})
        combined = combine_lifted(
            self.context.hasher,
            (forward for forward, _ack_only, _src in per_pred.values()),
        )
        verifier = self._batch.get((monitored, round_no))
        if verifier is None:
            return combined
        return combined * verifier.fold() % self.context.hasher.modulus

    def obligation_from_self_checks(
        self, monitored: int, round_no: int
    ) -> Optional[int]:
        """Obligation recomputed from the node's own signed self-checks
        (None when cross-checks are off or incomplete)."""
        per_pred = self._self_checks.get((monitored, round_no))
        if not per_pred:
            return None
        lifted = self._lifted.get((monitored, round_no), {})
        if not set(per_pred) >= set(lifted):
            # The node's checks omit a declared receipt: a partial
            # forwarder shrinking its own evidence cannot arbitrate.
            # The superset direction is allowed — a predecessor's
            # declaration can be legitimately missing (the declarer
            # crashed or left before redeclaring), and claiming a
            # phantom receipt never pays: the successors' acks only
            # match if the node really forwarded that content.
            return None
        return combine_lifted(
            self.context.hasher,
            (forward for forward, _ack_only in per_pred.values()),
        )

    # ------------------------------------------------------------------
    # Server-side checks
    # ------------------------------------------------------------------

    def _check_servers(self, round_no: int) -> None:
        """End of round R: every monitored server must have valid acks."""
        if self.first_round > 0 and round_no - 1 < self.first_round:
            # Join churn: the obligation for round R accumulates from
            # round R-1 declarations; a monitor that joined after that
            # round never saw them and cannot judge these exchanges.
            # Session-start monitors (first_round 0) are untouched —
            # their round-0 checks run exactly as before.
            return
        for server in self.context.views.monitored_by(self.host_id):
            if not self.context.is_monitored(server):
                continue
            expected = self.obligation(server, round_no - 1)
            relays = self._relays.get((server, round_no), {})
            for successor in self.context.views.successors(server, round_no):
                ack = relays.get(successor)
                if ack is not None:
                    self._judge_ack(server, successor, round_no, ack, expected)
                else:
                    self._open_case(server, successor, round_no)

    def _judge_ack(
        self,
        server: int,
        successor: int,
        round_no: int,
        ack: SignedAck,
        expected: int,
    ) -> None:
        if not self.context.signer.verify(
            ack.receiver, ack.payload_bytes_desc(), ack.signature
        ):
            self._open_case(server, successor, round_no)
            return
        if ack.hash_total != expected:
            # Section V-B cross-check arbitration: if the node's own
            # signed self-checks produce exactly the acknowledged hash,
            # the mismatch is a lying designated monitor, not the server.
            self_expected = self.obligation_from_self_checks(
                server, round_no - 1
            )
            if self_expected is not None and ack.hash_total == self_expected:
                self._convict_lying_monitors(server, round_no - 1)
                return
            self.verdicts.record(
                Verdict(
                    node=server,
                    reason=FaultReason.WRONG_FORWARD_SET,
                    exchange_round=round_no,
                    detected_by=self.host_id,
                    evidence=(
                        f"successor {successor} acknowledged "
                        f"{ack.hash_total:#x} but the accumulated obligation "
                        f"is {expected:#x}"
                    ),
                )
            )

    def _convict_lying_monitors(self, monitored: int, round_no: int) -> None:
        """Per-predecessor comparison: every broadcast value that differs
        from the node's signed self-check convicts its source monitor."""
        lifted = self._lifted.get((monitored, round_no), {})
        checks = self._self_checks.get((monitored, round_no), {})
        for pred, (fwd, _ao, source) in lifted.items():
            check = checks.get(pred)
            if check is None or check[0] == fwd:
                continue
            if source == self.host_id:
                continue  # we computed this ourselves; not our lie to judge
            self.verdicts.record(
                Verdict(
                    node=source,
                    reason=FaultReason.MONITOR_MISBEHAVIOR,
                    exchange_round=round_no,
                    detected_by=self.host_id,
                    evidence=(
                        f"broadcast lifted hash for predecessor {pred} of "
                        f"node {monitored} disagrees with the node's signed "
                        "self-check; successors' acks side with the node"
                    ),
                )
            )

    def _judge_relay(self, case: CaseFile, ack: SignedAck) -> None:
        """A relay/confirm arrived for an open case: settle it."""
        expected = self.obligation(case.server, case.exchange_round - 1)
        case.resolved = True
        self.counters["cases_resolved"] += 1
        if ack.hash_total != expected:
            self.verdicts.record(
                Verdict(
                    node=case.server,
                    reason=FaultReason.WRONG_FORWARD_SET,
                    exchange_round=case.exchange_round,
                    detected_by=self.host_id,
                    evidence=(
                        f"late ack from {case.successor} mismatches "
                        "obligation"
                    ),
                )
            )

    def _open_case(self, server: int, successor: int, round_no: int) -> None:
        key = (server, successor, round_no)
        if key in self._cases:
            return
        self.counters["cases_opened"] += 1
        case = CaseFile(
            server=server,
            successor=successor,
            exchange_round=round_no,
            deadline_round=round_no + _CASE_DEADLINE_ROUNDS,
        )
        if (server, successor, round_no) in self._accusation_claims:
            case.server_claims_accusation = True
        self._cases[key] = case
        # Ask the server to exhibit the missing acknowledgement.
        case.investigated = True
        self._outbox_next_round.append(
            lambda rnd, s=server, d=successor, r=round_no: InvestigateRequest(
                sender=self.host_id,
                recipient=s,
                round_no=rnd,
                successor=d,
                exchange_round=r,
                signature=self._sign(f"inv|{s}|{d}|{r}"),
            )
        )

    # ------------------------------------------------------------------
    # Accusation path (Fig. 3)
    # ------------------------------------------------------------------

    def on_accusation(self, message: Accusation) -> None:
        if not self.active:
            return
        accuser = message.sender
        accused = message.accused
        claim = (accuser, accused, message.exchange_round)
        if self.host_id in self.context.monitors_of(accuser):
            # CC copy: the accuser proves it tried; note the claim so an
            # open case does not convict it at the deadline.
            self.counters["accusation_claims"] += 1
            self._accusation_claims.add(claim)
            case = self._cases.get(claim)
            if case is not None:
                case.server_claims_accusation = True
        if self.host_id in self.context.monitors_of(accused):
            # Forward the serve to the accused and demand an ack.
            self.counters["accusations_received"] += 1
            self.counters["probes_sent"] += 1
            self._pending_probes[claim] = _PendingProbe(
                accused=accused,
                accuser=accuser,
                exchange_round=message.exchange_round,
                entries=message.entries,
                key_prev=message.key_prev,
                key_prime_count=message.key_prime_count,
            )
            self.send(
                MonitorProbe(
                    sender=self.host_id,
                    recipient=accused,
                    round_no=message.round_no,
                    accuser=accuser,
                    exchange_round=message.exchange_round,
                    entries=message.entries,
                    key_prev=message.key_prev,
                    key_prime_count=message.key_prime_count,
                    signature=self._sign(
                        f"probe|{accused}|{accuser}|{message.exchange_round}"
                    ),
                )
            )

    def on_probe_ack(self, message: ProbeAck) -> None:
        if not self.active:
            return
        ack = message.ack
        # Pending probes are keyed (accuser, accused, exchange round);
        # the probe ack's server is the accuser, its receiver the accused.
        key = (ack.server, ack.receiver, ack.round_no)
        probe = self._pending_probes.get(key)
        if probe is None or probe.answered:
            return
        expected = hash_entries(
            self.context.hasher, probe.entries, probe.key_prev
        )
        if ack.hash_total != expected or not self.context.signer.verify(
            ack.receiver, ack.payload_bytes_desc(), ack.signature
        ):
            return  # a bogus probe answer counts as no answer
        probe.answered = True
        self.counters["probe_acks_accepted"] += 1
        # Confirm to the accuser's monitors (and the accuser's own check).
        for monitor in self.context.monitors_of(probe.accuser):
            if monitor == self.host_id:
                self._store_relay(probe.accuser, ack)
                continue
            self.counters["confirms_sent"] += 1
            self.send(
                Confirm(
                    sender=self.host_id,
                    recipient=monitor,
                    round_no=message.round_no,
                    ack=ack,
                    signature=self._sign(
                        f"confirm|{ack.receiver}|{ack.server}|{ack.round_no}"
                    ),
                )
            )

    def on_confirm(self, message: Confirm) -> None:
        if not self.active:
            return
        if not self._ack_signature_valid(message.ack):
            return
        self._store_relay(message.ack.server, message.ack)

    def on_nack(self, message: Nack) -> None:
        if not self.active:
            return
        # A Nack from one prober does not override a valid ack that
        # reached us through another path (a Confirm from a different
        # monitor, or a regular relay): only convict if the exchange
        # remains unacknowledged.  This keeps lossy networks from
        # producing false convictions.
        acked = (
            self._relays.get(
                (message.accuser, message.exchange_round), {}
            ).get(message.accused)
            is not None
        )
        if not acked:
            self.verdicts.record(
                Verdict(
                    node=message.accused,
                    reason=FaultReason.REFUSED_RECEPTION,
                    exchange_round=message.exchange_round,
                    detected_by=self.host_id,
                    evidence=(
                        f"monitor {message.sender} probed "
                        f"{message.accused} after an accusation by "
                        f"{message.accuser}; no ack"
                    ),
                )
            )
        case = self._cases.get(
            (message.accuser, message.accused, message.exchange_round)
        )
        if case is not None and not case.resolved:
            case.resolved = True
            self.counters["cases_resolved"] += 1

    def _close_unanswered_probes(self, round_no: int) -> None:
        for key, probe in list(self._pending_probes.items()):
            if probe.answered:
                del self._pending_probes[key]
                continue
            if probe.exchange_round >= round_no:
                continue  # the probe round is still in flight
            del self._pending_probes[key]
            for monitor in self.context.monitors_of(probe.accuser):
                self._outbox_next_round.append(
                    lambda rnd, t=monitor, p=probe: self._build_nack(t, p, rnd)
                )

    def _build_nack(
        self, target: int, probe: _PendingProbe, round_no: int
    ) -> Optional[Nack]:
        """Build a Nack for one of the accuser's monitors.

        The prober may itself monitor the accuser, in which case the
        nack is recorded locally instead of travelling the network.
        """
        self.counters["nacks_sent"] += 1
        nack = Nack(
            sender=self.host_id,
            recipient=target,
            round_no=round_no,
            accused=probe.accused,
            accuser=probe.accuser,
            exchange_round=probe.exchange_round,
            signature=self._sign(
                f"nack|{probe.accused}|{probe.accuser}|{probe.exchange_round}"
            ),
        )
        if target == self.host_id:
            self.on_nack(nack)
            return None
        return nack

    # ------------------------------------------------------------------
    # Investigations
    # ------------------------------------------------------------------

    def on_investigate_response(self, message: InvestigateResponse) -> None:
        if not self.active:
            return
        key = (message.sender, message.successor, message.exchange_round)
        case = self._cases.get(key)
        if case is None or case.resolved:
            return
        if message.ack is not None:
            ack = message.ack
            valid = (
                ack.receiver == message.successor
                and ack.round_no == message.exchange_round
                and self.context.signer.verify(
                    ack.receiver, ack.payload_bytes_desc(), ack.signature
                )
            )
            if valid:
                # The successor acknowledged to its server, yet the ack
                # never reached us through the monitor chain.  Either
                # the successor omitted messages 6/7 (selfish), or its
                # designated monitor failed and the re-sent declaration
                # is still in flight — so don't convict yet: mark the
                # exhibit and let the deadline decide (a late relay
                # exonerates the successor).
                case.exhibited = True
                self._judge_ack_after_exhibit(case, ack)
                return
        if message.accused_instead:
            case.server_claims_accusation = True

    def _judge_ack_after_exhibit(self, case: CaseFile, ack: SignedAck) -> None:
        expected = self.obligation(case.server, case.exchange_round - 1)
        if ack.hash_total != expected:
            self.verdicts.record(
                Verdict(
                    node=case.server,
                    reason=FaultReason.WRONG_FORWARD_SET,
                    exchange_round=case.exchange_round,
                    detected_by=self.host_id,
                    evidence="exhibited ack mismatches obligation",
                )
            )

    def _resolve_deadlines(self, round_no: int) -> None:
        for case in self._cases.values():
            if case.resolved or round_no < case.deadline_round:
                continue
            case.resolved = True
            self.counters["cases_resolved"] += 1
            self.counters["deadline_convictions"] += 1
            if case.exhibited:
                # The server proved the successor acknowledged; by the
                # deadline no declaration reached the monitor chain:
                # the successor hid the reception (messages 6/7).
                self.verdicts.record(
                    Verdict(
                        node=case.successor,
                        reason=FaultReason.OMITTED_DECLARATION,
                        exchange_round=case.exchange_round,
                        detected_by=self.host_id,
                        evidence=(
                            f"server {case.server} exhibited the signed "
                            "ack; no declaration arrived by the deadline"
                        ),
                    )
                )
                continue
            if case.server_claims_accusation:
                # The server claims it accused, yet neither Confirm nor
                # Nack arrived: the claim is unbacked.
                reason = FaultReason.OMISSION_TO_SERVE
                evidence = (
                    f"claimed accusation of {case.successor} produced "
                    "neither Confirm nor Nack"
                )
            elif case.investigated:
                reason = FaultReason.OMISSION_TO_SERVE
                evidence = (
                    f"no ack from successor {case.successor}, no exhibit, "
                    "no accusation"
                )
            else:
                reason = FaultReason.UNRESPONSIVE_INVESTIGATION
                evidence = "no response to investigation"
            self.verdicts.record(
                Verdict(
                    node=case.server,
                    reason=reason,
                    exchange_round=case.exchange_round,
                    detected_by=self.host_id,
                    evidence=evidence,
                )
            )

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------

    def _sign(self, description: str) -> int:
        return self.context.signer.sign(self.host_id, description.encode())

    def _prune(self, round_no: int) -> None:
        horizon = round_no - _CASE_DEADLINE_ROUNDS - 2
        for store in (self._receiver_records,):
            for key in [k for k in store if k[2] < horizon]:
                del store[key]
        for key in [k for k in self._lifted if k[1] < horizon]:
            del self._lifted[key]
        for key in [k for k in self._batch if k[1] < horizon]:
            del self._batch[key]
        self._batch_seen = {
            k for k in self._batch_seen if k[2] >= horizon
        }
        for key in [k for k in self._self_checks if k[1] < horizon]:
            del self._self_checks[key]
        for key in [k for k in self._relays if k[1] < horizon]:
            del self._relays[key]
        for key in [
            k for k, c in self._cases.items() if c.resolved
            and c.exchange_round < horizon
        ]:
            del self._cases[key]
