"""PAG protocol participants: consumer nodes and the source.

A :class:`PagNode` plays three roles simultaneously:

* **server** — each round it runs the five-message exchange of Fig. 5
  with every successor, serving the updates it received the previous
  round;
* **receiver** — it issues fresh primes, verifies attestations, signs
  acknowledgements, and declares its receptions to its monitors
  (messages 6-7 of Fig. 6);
* **monitor** — it hosts a :class:`~repro.core.monitor.MonitorEngine`
  carrying out its duties towards the nodes it monitors.

All deviations a selfish node might attempt are delegated to the node's
:class:`~repro.core.behavior.Behavior` object, so this class encodes the
protocol exactly once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.accusations import VerdictLog
from repro.core.behavior import Behavior, CorrectBehavior
from repro.core.context import PagContext
from repro.core.messages import (
    Accusation,
    Ack,
    AckCopy,
    AckRelay,
    Attestation,
    AttestationRelay,
    AttestationRelayBatch,
    Confirm,
    DeclarationAck,
    InvestigateRequest,
    InvestigateResponse,
    KeyRequest,
    KeyResponse,
    MonitorBroadcast,
    MonitorProbe,
    Nack,
    ProbeAck,
    SelfCheck,
    Serve,
    ServeEntry,
    SignedAck,
    SignedAttestation,
    ack_payload,
    attestation_payload,
    forget_expired_entries,
    serve_entry,
)
from repro.core.monitor import MonitorEngine
from repro.core.state import (
    ForwardSet,
    OutgoingExchange,
    PagNodeState,
    ServePlan,
)
from repro.core.verification import (
    ack_hash,
    entry_power,
    hash_product,
    serve_hashes,
    split_products,
)
from repro.crypto.primes import PrimePool
from repro.gossip.source import StreamSchedule
from repro.gossip.updates import Update, UpdateStore
from repro.sim.message import Message
from repro.sim.network import Network
from repro.sim.node import SimNode

__all__ = ["PagNode", "PagSourceNode"]


class PagNode(SimNode):
    """A consumer node running PAG."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        context: PagContext,
        behavior: Optional[Behavior] = None,
    ) -> None:
        super().__init__(node_id, network)
        self.context = context
        self.behavior = behavior if behavior is not None else CorrectBehavior()
        self.state = PagNodeState()
        self.store = UpdateStore()
        self.monitor = MonitorEngine(
            host_id=node_id,
            context=context,
            send=self.send,
            active=(
                context.config.detection_enabled
                and self.behavior.performs_monitoring()
            ),
            # Join churn: a late-arriving monitor must not judge
            # exchanges whose declarations predate its arrival.
            first_round=context.views.active_from.get(node_id, 0),
            # Honest behaviors never change a lifted pair; handing the
            # engine no hook at all lets batched verification defer the
            # per-pair exponentiations (the hook forces materialisation).
            lift_transform=(
                self.behavior.transform_lifted
                if self.behavior.transforms_lifted()
                else None
            ),
        )
        self._prime_rng = context.prime_rng(node_id)
        #: sieve-windowed pool amortising the per-round prime draws.
        self._prime_pool = PrimePool(
            context.config.sim_prime_bits, self._prime_rng
        )
        #: (round, contents) advertised to every predecessor this round.
        self._buffermap_cache: Tuple[int, List[int]] = (-1, [])
        self._queued_accusations: List[Tuple[int, OutgoingExchange]] = []
        self._contacted: Dict[int, List[int]] = {}
        self._designations: Dict[int, int] = {}
        #: declarations awaiting a DeclarationAck, keyed (round, server):
        #: {"attestation", "ack", "tried": [monitor ids]}.
        self._pending_declarations: Dict[Tuple[int, int], Dict] = {}
        #: message type -> handler, built once (on_message runs per
        #: delivered message).
        self._handlers: Dict[type, Callable[[Any], None]] = {
            KeyRequest: self._on_key_request,
            KeyResponse: self._on_key_response,
            Serve: self._on_serve,
            Attestation: self._on_attestation,
            Ack: self._on_ack,
            AckCopy: self.monitor.on_ack_copy,
            AttestationRelay: self.monitor.on_attestation_relay,
            AttestationRelayBatch: (
                self.monitor.on_attestation_relay_batch
            ),
            MonitorBroadcast: self.monitor.on_monitor_broadcast,
            AckRelay: self.monitor.on_ack_relay,
            Accusation: self.monitor.on_accusation,
            MonitorProbe: self._on_monitor_probe,
            ProbeAck: self.monitor.on_probe_ack,
            Confirm: self.monitor.on_confirm,
            Nack: self.monitor.on_nack,
            InvestigateRequest: self._on_investigate_request,
            InvestigateResponse: self.monitor.on_investigate_response,
            DeclarationAck: self._on_declaration_ack,
            SelfCheck: self.monitor.on_self_check,
        }

    # ------------------------------------------------------------------
    # Round lifecycle
    # ------------------------------------------------------------------

    def begin_round(self, round_no: int) -> None:
        self.monitor.begin_round(round_no)
        self._send_queued_accusations(round_no)
        self._redeclare_unacknowledged(round_no)
        contacted = self._contacted.setdefault(round_no, [])
        for successor in self.context.views.successors(self.node_id, round_no):
            if not self.behavior.initiates_exchange(successor, round_no):
                continue
            contacted.append(successor)
            self.send(
                KeyRequest(
                    sender=self.node_id,
                    recipient=successor,
                    round_no=round_no,
                    signature=self._sign(f"keyreq|{round_no}|{successor}"),
                )
            )

    def end_round(self, round_no: int) -> None:
        self._queue_accusations(round_no)
        self._forward_set(round_no).plan = None  # its serves are over
        self.monitor.end_round(round_no)
        self.store.drop_expired(round_no)
        horizon = round_no - self.context.config.playout_delay_rounds - 4
        self.state.prune_before(horizon)
        # Kept: this round's forward set and the one it served from (a
        # KeyResponse held to the barrier is served from it next round).
        for rnd in [r for r in self.state.forward_sets if r < round_no - 1]:
            del self.state.forward_sets[rnd]
        self.context.views.prune_rounds_before(horizon)
        self.context.hasher.forget_links()
        forget_expired_entries(round_no)
        for rnd in [r for r in self._designations if r < horizon]:
            del self._designations[rnd]

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def on_message(self, message: Message) -> None:
        handler = self._handlers.get(type(message))
        if handler is not None:
            handler(message)

    # ------------------------------------------------------------------
    # Server side (A in Fig. 5)
    # ------------------------------------------------------------------

    def _forward_set(self, round_no: int) -> ForwardSet:
        """What this node must serve in ``round_no`` (with counts)."""
        return self.state.forward_set(round_no - 1)

    def _serve_plan(self, round_no: int) -> ServePlan:
        """The round's serves, as far as they do not depend on the
        successor; kept on the forward set, which drops it on ``add``."""
        forward_set = self._forward_set(round_no)
        plan = forward_set.plan
        if plan is None:
            hasher = self.context.hasher
            contents = []
            rows = []
            for update, count in forward_set.items():
                expiring = update.expires_next_round(round_no)
                contents.append(update.content)
                fields = (
                    update.uid, update.round_created, update.expiry_round,
                    update.payload_bytes, update.session,
                )
                fresh = serve_entry(fields, count, 1 | expiring << 1, update)
                # Already owned: acknowledge-only, whatever its expiry.
                owned = serve_entry(fields, count, 2, update)
                rows.append((entry_power(hasher, update, count), fresh, owned))
            plan = forward_set.plan = ServePlan(contents, rows)
        return plan

    def _serving_key(self, round_no: int) -> Tuple[int, int]:
        """``K(round_no - 1, self)`` and its prime count, for the Ack."""
        return self.state.round_key(round_no - 1)

    def _on_key_response(self, message: KeyResponse) -> None:
        round_no = message.round_no
        successor = message.sender
        self.context.counters_decrypt()
        signer = self.context.signer
        prime, buffermap = message.prime, message.buffermap
        fields = (successor, message.recipient, round_no, prime, buffermap)
        if not signer.take((successor, fields, message.signature)):
            desc = self._key_response_desc(fields)
            if not signer.verify(successor, desc, message.signature):
                return
        hasher = self.context.hasher
        entries, products = self._classify_entries(round_no, buffermap, prime)
        served = self.behavior.filter_serve(entries, successor, round_no)
        if served is not entries:
            entries = served
            products = split_products(hasher, entries)
        key_prev, key_count = self._serving_key(round_no)
        hash_forward, hash_ack_only = serve_hashes(hasher, products, prime)
        exhibit = (
            round_no, self.node_id, successor, hash_forward, hash_ack_only
        )
        attestation = SignedAttestation(
            *exhibit,
            signer.sign(self.node_id, attestation_payload(*exhibit)),
        )
        signer.remember(self.node_id, attestation)
        hasher.leave((round_no, self.node_id, successor), (entries, products))
        exchange = OutgoingExchange(
            successor=successor,
            round_no=round_no,
            entries=entries,
            key_prev=key_prev,
            key_prime_count=key_count,
            expected_ack_hash=ack_hash(hasher, products, key_prev),
            served=True,
        )
        self.state.outgoing[(round_no, successor)] = exchange
        self.context.counters_encrypt()
        self.send(
            Serve(
                sender=self.node_id,
                recipient=successor,
                round_no=round_no,
                key_prev=key_prev,
                key_prime_count=key_count,
                entries=entries,
                signature=self._sign(f"serve|{round_no}|{successor}"),
            )
        )
        self.send(
            Attestation(
                sender=self.node_id,
                recipient=successor,
                round_no=round_no,
                attestation=attestation,
            )
        )

    def _classify_entries(
        self, round_no: int, buffermap: frozenset, prime: int
    ) -> Tuple[Tuple[ServeEntry, ...], Tuple[int, int]]:
        """One successor's payload / ack-only entries (sections V-A and
        V-D) and their ``(forward, ack_only)`` products, in one pass
        over the round's plan."""
        plan = self._serve_plan(round_no)
        hasher = self.context.hasher
        modulus = hasher.modulus
        forward = ack_only = 1
        entries = []
        for hashed, (power, fresh, owned) in zip(
            hasher.hash_many(plan.contents, prime), plan.rows
        ):
            entry = owned if hashed in buffermap else fresh
            entries.append(entry)
            if entry.ack_only:
                ack_only = ack_only * power % modulus
            else:
                forward = forward * power % modulus
        return tuple(entries), (forward, ack_only)

    def _on_ack(self, message: Ack) -> None:
        ack = message.ack
        exchange = self.state.outgoing.get((ack.round_no, ack.receiver))
        if exchange is None:
            return
        if not self.context.signer.check(ack.receiver, ack):
            return
        if ack.hash_total != exchange.expected_ack_hash:
            return  # a wrong ack counts as no ack: the accusation will fire
        exchange.ack = ack

    def _queue_accusations(self, round_no: int) -> None:
        """End of round: contacted successors without a valid ack are
        accused (Fig. 3), whether they refused the key exchange or
        refused the acknowledgement."""
        for successor in self._contacted.pop(round_no, []):
            exchange = self.state.outgoing.get((round_no, successor))
            if exchange is None:
                # The successor never even issued a prime (message 2
                # withheld): accuse with the set we meant to serve.
                exchange = self._pseudo_exchange(round_no, successor)
                self.state.outgoing[(round_no, successor)] = exchange
            if exchange.acknowledged or exchange.accused:
                continue
            if not self.behavior.accuses_silent_successor(successor, round_no):
                continue
            exchange.accused = True
            self._queued_accusations.append((round_no, exchange))

    def _pseudo_exchange(
        self, round_no: int, successor: int
    ) -> OutgoingExchange:
        """The serve we would have sent, reconstructed for an accusation.

        Without a KeyResponse there is no buffermap and no prime, so all
        entries carry payload and only expiration drives the ack-only
        split.
        """
        entries = tuple(
            fresh for _power, fresh, _owned in self._serve_plan(round_no).rows
        )
        key_prev, key_count = self._serving_key(round_no)
        hasher = self.context.hasher
        return OutgoingExchange(
            successor=successor,
            round_no=round_no,
            entries=entries,
            key_prev=key_prev,
            key_prime_count=key_count,
            expected_ack_hash=ack_hash(
                hasher, split_products(hasher, entries), key_prev
            ),
            served=False,
        )

    def _send_queued_accusations(self, round_no: int) -> None:
        pending, self._queued_accusations = self._queued_accusations, []
        for exchange_round, exchange in pending:
            targets = list(self.context.monitors_of(exchange.successor))
            targets += [
                m
                for m in self.context.monitors_of(self.node_id)
                if m not in targets and m != exchange.successor
            ]
            for target in targets:
                if target == self.node_id:
                    continue
                self.send(
                    Accusation(
                        sender=self.node_id,
                        recipient=target,
                        round_no=round_no,
                        accused=exchange.successor,
                        exchange_round=exchange_round,
                        entries=exchange.entries,
                        key_prev=exchange.key_prev,
                        key_prime_count=exchange.key_prime_count,
                        signature=self._sign(
                            f"accuse|{exchange.successor}|{exchange_round}"
                        ),
                    )
                )

    def _on_investigate_request(self, message: InvestigateRequest) -> None:
        if not self.behavior.answers_investigation(
            message.sender, message.round_no
        ):
            return
        exchange = self.state.outgoing.get(
            (message.exchange_round, message.successor)
        )
        ack = exchange.ack if exchange is not None else None
        accused = exchange.accused if exchange is not None else False
        self.send(
            InvestigateResponse(
                sender=self.node_id,
                recipient=message.sender,
                round_no=message.round_no,
                successor=message.successor,
                exchange_round=message.exchange_round,
                ack=ack,
                accused_instead=accused,
                signature=self._sign(
                    f"invresp|{message.successor}|{message.exchange_round}"
                ),
            )
        )

    # ------------------------------------------------------------------
    # Receiver side (B in Fig. 5)
    # ------------------------------------------------------------------

    def _on_key_request(self, message: KeyRequest) -> None:
        round_no = message.round_no
        predecessor = message.sender
        if not self.behavior.answers_key_request(predecessor, round_no):
            return
        if self.state.prime_for(round_no, predecessor) is not None:
            return  # idempotence: one prime per link per round
        # Pooled primes never repeat, so no link shares another's prime.
        prime = self._prime_pool.take()
        self.state.issue_prime(round_no, predecessor, prime)
        self.context.counters.prime_generations += 1
        buffermap = frozenset(
            self.context.hasher.hash_many(
                self._buffermap_contents(round_no), prime
            )
        )
        signer = self.context.signer
        fields = (self.node_id, predecessor, round_no, prime, buffermap)
        signature = signer.sign(self.node_id, self._key_response_desc(fields))
        signer.records.add((self.node_id, fields, signature))
        self.context.counters_encrypt()
        self.send(KeyResponse(*fields, signature))

    def _buffermap_contents(self, round_no: int) -> List[int]:
        """Contents advertised in this round's buffermaps.

        Cached per round: every predecessor's KeyRequest reads the same
        store state, because all KeyRequests of a round are queued at
        round start and therefore drain before any of the round's serves
        is ingested.
        """
        cached_round, contents = self._buffermap_cache
        if cached_round == round_no:
            return contents
        depth = self.context.config.buffermap_depth
        uids = self.store.recent_uids(round_no, depth)
        contents = []
        for uid in sorted(uids):
            update = self.store.get(uid)
            if update is not None:
                contents.append(update.content)
        self._buffermap_cache = (round_no, contents)
        return contents

    def _on_serve(self, message: Serve) -> None:
        self.context.counters_decrypt()
        key = (message.round_no, message.sender)
        self.state.pending_serves[key] = message

    def _on_attestation(self, message: Attestation) -> None:
        round_no = message.round_no
        server = message.sender
        serve = self.state.pending_serves.pop((round_no, server), None)
        if serve is None:
            return
        prime = self.state.prime_for(round_no, server)
        if prime is None:
            return
        attestation = message.attestation
        if not self.context.signer.check(server, attestation):
            return
        hasher = self.context.hasher
        link = (round_no, server, self.node_id)
        entries, products = hasher.take(link) or (None, None)
        if entries != serve.entries:  # rewritten in flight, or not left
            products = split_products(hasher, serve.entries)
        expected = serve_hashes(hasher, products, prime)
        if (attestation.hash_forward, attestation.hash_ack_only) != expected:
            return  # "the attestation ... can be verified by node B"
        self._ingest_serve(serve, round_no)
        if not self.behavior.sends_ack(server, round_no):
            return
        ack = self._sign_ack(
            round_no, server, products, serve.key_prev,
            serve.key_prime_count,
        )
        self.send(
            Ack(
                sender=self.node_id,
                recipient=server,
                round_no=round_no,
                ack=ack,
            )
        )
        if self.behavior.declares_to_monitors(server, round_no):
            self._declare_to_monitors(round_no, server, attestation, ack)
            if self.context.config.monitor_cross_checks:
                self._send_self_checks(round_no, server, products)

    def _ingest_serve(self, serve: Serve, round_no: int) -> None:
        forward_set = self.state.forward_set(round_no)
        for entry in serve.entries:
            if entry.has_payload:
                self.store.add(entry.update, round_no)
            if not entry.ack_only:
                forward_set.add(entry.update, entry.count)

    def _sign_ack(
        self,
        round_no: int,
        server: int,
        products: Tuple[int, int],
        key_prev: int,
        key_prime_count: int,
    ) -> SignedAck:
        signer = self.context.signer
        total = ack_hash(self.context.hasher, products, key_prev)
        exhibit = (round_no, self.node_id, server, total, key_prime_count)
        payload = ack_payload(*exhibit)
        ack = SignedAck(*exhibit, signer.sign(self.node_id, payload))
        signer.remember(self.node_id, ack)
        return ack

    def _declare_to_monitors(
        self,
        round_no: int,
        server: int,
        attestation: SignedAttestation,
        ack: SignedAck,
    ) -> None:
        """Messages 6 and 7: declare the reception to one monitor.

        Each predecessor's pair goes to a *different* monitor, assigned
        round-robin in arrival order, "to prevent monitors from
        receiving all the products of the prime numbers" (section V-B):
        two cofactors of the same round reveal individual primes through
        a gcd.

        With join churn the rotation runs over the monitors that have
        actually arrived (:meth:`PagContext.active_monitors_of
        <repro.core.context.PagContext.active_monitors_of>`): the duty
        is reassigned to the present monitors and a late-arriving one
        enters the rotation the round it joins.
        """
        monitors = self.context.active_monitors_of(self.node_id, round_no)
        counter = self._designations.get(round_no, round_no)
        self._designations[round_no] = counter + 1
        monitor = monitors[counter % len(monitors)]
        self._pending_declarations[(round_no, server)] = {
            "attestation": attestation,
            "ack": ack,
            "tried": [monitor],
        }
        self._send_declaration_pair(
            round_no, server, attestation, ack, monitor
        )

    def _send_declaration_pair(
        self,
        round_no: int,
        server: int,
        attestation: SignedAttestation,
        ack: SignedAck,
        monitor: int,
    ) -> None:
        cofactor, cofactor_count = self.state.cofactor(round_no, server)
        self.send(
            AckCopy(
                sender=self.node_id,
                recipient=monitor,
                round_no=round_no,
                ack=ack,
            )
        )
        self.context.counters_encrypt()
        self.send(
            AttestationRelay(
                sender=self.node_id,
                recipient=monitor,
                round_no=round_no,
                attestation=attestation,
                cofactor=cofactor,
                cofactor_prime_count=cofactor_count,
                signature=self._sign(
                    f"attrelay|{round_no}|{server}|{cofactor}"
                ),
            )
        )

    def _on_declaration_ack(self, message: DeclarationAck) -> None:
        self._pending_declarations.pop(
            (message.exchange_round, message.server), None
        )

    def _redeclare_unacknowledged(self, round_no: int) -> None:
        """A silent designated monitor is presumed dead: re-send the
        declaration pair to every monitor not yet tried.

        The obligation check runs at the end of round ``decl_round + 1``,
        so there is exactly one round to recover a failed declaration —
        retrying a single monitor per round cannot meet that deadline
        when the retry target is itself gone (a designated monitor in
        outage plus a freshly departed peer monitor convicts the honest
        declarer's own predecessor chain).  Fanning the retry out
        realises the paper's at-least-one-correct-monitor assumption
        within the deadline; the happy path still hands each monitor at
        most one cofactor (the cofactor travels again only on failure,
        as before — just to the whole remainder of the set at once).
        """
        monitors = self.context.active_monitors_of(self.node_id, round_no)
        for (decl_round, server), pending in list(
            self._pending_declarations.items()
        ):
            if decl_round >= round_no:
                continue  # the original send is still in flight
            untried = [m for m in monitors if m not in pending["tried"]]
            if not untried:
                del self._pending_declarations[(decl_round, server)]
                continue
            for target in untried:
                pending["tried"].append(target)
                self._send_declaration_pair(
                    decl_round,
                    server,
                    pending["attestation"],
                    pending["ack"],
                    target,
                )

    def _send_self_checks(
        self, round_no: int, server: int, products: Tuple[int, int]
    ) -> None:
        """Section V-B: compute the lifted pair ourselves and send it,
        signed, to every monitor, so they can check each other."""
        key, _count = self.state.round_key(round_no)
        forward, ack_only = products
        lifted_forward = hash_product(self.context.hasher, forward, key)
        lifted_ack_only = hash_product(self.context.hasher, ack_only, key)
        for monitor in self.context.monitors_of(self.node_id):
            check = SelfCheck(
                sender=self.node_id,
                recipient=monitor,
                round_no=round_no,
                predecessor=server,
                lifted_forward=lifted_forward,
                lifted_ack_only=lifted_ack_only,
                signature=0,
            )
            check.signature = self.context.signer.sign(
                self.node_id, check.payload_desc()
            )
            self.send(check)

    def _on_monitor_probe(self, message: MonitorProbe) -> None:
        if not self.behavior.answers_probe(message.sender, message.round_no):
            return
        # Late ingestion: the payloads are still useful for playback,
        # but probed entries do not re-enter the forwarding obligation
        # (a simplification of the failure path: a probe answer never
        # opens new obligations).
        for entry in message.entries:
            if entry.has_payload:
                self.store.add(entry.update, message.round_no)
        ack = self._sign_ack(
            message.exchange_round,
            message.accuser,
            split_products(self.context.hasher, message.entries),
            message.key_prev,
            message.key_prime_count,
        )
        self.send(
            ProbeAck(
                sender=self.node_id,
                recipient=message.sender,
                round_no=message.round_no,
                ack=ack,
            )
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _key_response_desc(fields: tuple) -> bytes:
        sender, recipient, round_no, prime, buffermap = fields
        return (
            f"keyresp|{round_no}|{sender}|{recipient}|{prime}|"
            f"{sorted(buffermap)}".encode()
        )

    def _sign(self, description: str) -> int:
        return self.context.signer.sign(self.node_id, description.encode())

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def verdicts(self) -> VerdictLog:
        return self.monitor.verdicts


class PagSourceNode(PagNode):
    """The stream source.

    Serves freshly released chunks through the standard exchange.  Its
    acknowledgement key is a private per-round prime (it has no
    predecessors, hence no ``K(R-1)``); its monitors' checks are skipped
    because the source is correct by assumption (section III).
    """

    def __init__(
        self,
        node_id: int,
        network: Network,
        context: PagContext,
        schedule: StreamSchedule,
    ) -> None:
        super().__init__(node_id, network, context)
        self.schedule = schedule
        self.released: List[Update] = []
        #: round -> the chunks released in it, served as a forward set.
        self._round_chunks: Dict[int, ForwardSet] = {}
        self._source_keys: Dict[int, int] = {}

    def begin_round(self, round_no: int) -> None:
        chunks = self.schedule.release(round_no)
        self.released.extend(chunks)
        forward_set = self._round_chunks[round_no] = ForwardSet()
        for chunk in chunks:
            forward_set.add(chunk, 1)
        self._source_keys[round_no] = self._prime_pool.take()
        super().begin_round(round_no)

    def _forward_set(self, round_no: int) -> ForwardSet:
        forward_set = self._round_chunks.get(round_no)
        return ForwardSet() if forward_set is None else forward_set

    def _serving_key(self, round_no: int) -> Tuple[int, int]:
        key = self._source_keys.get(round_no)
        if key is None:
            key = self._prime_pool.take()
            self._source_keys[round_no] = key
        return key, 1

    def end_round(self, round_no: int) -> None:
        super().end_round(round_no)
        horizon = round_no - 4
        for store in (self._round_chunks, self._source_keys):
            for rnd in [r for r in store if r < horizon]:
                del store[rnd]

    def total_released(self) -> int:
        return len(self.released)
