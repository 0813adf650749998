"""Asyncio node daemon and session coordinator.

The simulator runs a whole deployment in one process; this module
splits it across real processes.  A :class:`NodeDaemon` listens on a
transport endpoint and hosts one *shard* of a scenario's nodes; a
:class:`SessionCoordinator` connects to every daemon, ships the
scenario spec in the join handshake, and drives the round-synchronous
schedule as a sequence of barrier steps.

Determinism model — *replica from spec*: every daemon rebuilds the
**full** session from the spec's one JSON form (``ScenarioSpec.to_json``
in canonical key order, shipped in ``JoinRequest``: same seeds, same
keys, same membership views) but executes only its owned nodes,
``sorted(ids)[shard::shards]``.  Node state is a pure function of the
ordered lifecycle calls a node receives, and every message crosses
shards as v1 wire bytes, so the shards jointly execute one PAG
deployment: verdicts are reached by the monitors that own them and the
coordinator merges the shard reports (deduplicated on
``(node, reason, round)`` exactly like a single session would).

One round runs as a BSP superstep loop:

1. coordinator broadcasts ``RoundStart`` — each daemon runs
   ``begin_round`` for its owned nodes (deferred monitor traffic and
   the source's stream enter the local queue);
2. each *step*, a daemon drains its pending queue: messages for remote
   nodes are encoded and sent on the peer link (attestation relays to
   one monitor optionally coalesce into a single signed
   :class:`~repro.core.messages.AttestationRelayBatch` — the fm>1
   batched fold on the wire), then a ``StepMark`` barrier frame chases
   them; per-link FIFO means awaiting every peer's mark guarantees all
   of this step's payloads have arrived.  Remote arrivals (by peer
   shard order) and then the local batch are delivered to owned nodes;
3. daemons report ``StepDone`` with their queue depth; the coordinator
   answers ``StepGo`` until every shard is quiescent — the distributed
   equivalent of the engine's drain-to-quiescence loop;
4. after the rounds, ``CollectRequest`` gathers per-shard JSON reports
   and ``Shutdown`` closes the links.

A daemon's round, ``RoundStart`` through ``RoundDone``, is one
collection epoch (:mod:`repro.sim.collection`): automatic cyclic
collection is held off and the deferred collection runs after
``RoundDone`` is sent, while the coordinator gathers the other shards.
Two daemons in one event loop interleave their pauses; only the one
that turned collection off turns it back on.

The handshake carries every spec field, but scenarios with churn,
arrivals, fault schedules or a population plane are rejected at join
time (:func:`validate_daemon_spec`) — those are simulator-tier
features; the daemon runs the plain protocol schedule.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.core.messages import (
    AttestationRelay,
    AttestationRelayBatch,
    RelayPair,
)
from repro.net import wire
from repro.net.transport import Connection, TransportError, connect, listen
from repro.scenarios.spec import ScenarioSpec
from repro.sim.collection import round_epoch

__all__ = [
    "DaemonError",
    "NodeDaemon",
    "SessionCoordinator",
    "run_coordinated_session",
    "recv_message",
    "send_message",
    "spec_digest",
    "validate_daemon_spec",
]


class DaemonError(Exception):
    """Protocol violation or unsupported scenario on the daemon path."""


async def recv_message(conn: Connection) -> Any:
    """Receive and decode one wire message; ``None`` on clean EOF.

    The shared inbound seam of every control link — coordinator,
    daemon, and the supervised-service runtime all speak the same
    framed v1 payloads, so decode happens exactly once, here.
    """
    payload = await conn.recv()
    if payload is None:
        return None
    return wire.decode_message(payload)


async def send_message(conn: Connection, message: Any) -> int:
    """Encode and send one wire message; returns the payload length."""
    payload = wire.encode_message(message)
    await conn.send(payload)
    return len(payload)


# ---------------------------------------------------------------------------
# Spec transfer: ScenarioSpec.to_json bytes both sides rebuild from
# ---------------------------------------------------------------------------


def validate_daemon_spec(spec: ScenarioSpec) -> None:
    """Reject scenario features the daemon runtime does not model."""
    if spec.protocol != "pag":
        raise DaemonError(
            f"the daemon runtime speaks the PAG protocol only, "
            f"not {spec.protocol!r}"
        )
    for feature in ("churn", "arrivals", "fault_schedule"):
        if getattr(spec, feature):
            raise DaemonError(
                f"scenario {spec.name!r} uses {feature}, which is a "
                "simulator-tier feature the daemon runtime does not run"
            )
    if spec.population:
        raise DaemonError(
            "population-tier scenarios do not run on the daemon runtime"
        )


def spec_digest(data: bytes) -> str:
    """Digest the coordinator and every daemon agree on."""
    return hashlib.sha256(data).hexdigest()[:16]


def owned_node_ids(
    all_ids: Iterable[int], shard: int, shards: int
) -> List[int]:
    """The ids shard ``shard`` executes: ``sorted(ids)[shard::shards]``."""
    return sorted(all_ids)[shard::shards]


# ---------------------------------------------------------------------------
# Peer links
# ---------------------------------------------------------------------------


class _PeerLink:
    """One daemon-to-daemon connection plus its reordering state.

    The reader task splits the inbound stream into session payloads
    (buffered until the owning step delivers them) and ``StepMark``
    barriers (queued for the step loop to await).  Per-link FIFO makes
    the mark a delivery barrier for everything sent before it.  When
    the stream ends, for whatever reason, the reader queues the reason
    as a final ``str`` in place of a mark, so a step loop waiting on
    this link wakes up to a dead peer instead of waiting for ever.
    """

    def __init__(self, shard: int, conn: Connection) -> None:
        self.shard = shard
        self.conn = conn
        self.payloads: List[object] = []
        self.marks: asyncio.Queue = asyncio.Queue()
        self.reader: Optional[asyncio.Task] = None

    def start_reader(self) -> None:
        self.reader = asyncio.get_running_loop().create_task(self._read())

    async def _read(self) -> None:
        cause = "end of stream"
        try:
            while True:
                message = await recv_message(self.conn)
                if message is None:
                    break
                if isinstance(message, wire.StepMark):
                    self.marks.put_nowait(message)
                else:
                    self.payloads.append(message)
        except (TransportError, wire.WireError) as exc:
            cause = f"{type(exc).__name__}: {exc}"
        self.marks.put_nowait(cause)

    def take_payloads(self) -> List[object]:
        taken = self.payloads
        self.payloads = []
        return taken

    async def close(self) -> None:
        if self.reader is not None:
            self.reader.cancel()
        await self.conn.close()


# ---------------------------------------------------------------------------
# The daemon
# ---------------------------------------------------------------------------


class NodeDaemon:
    """Hosts one shard of a scenario behind a transport endpoint.

    Lifecycle: :meth:`start` binds the listener (resolving ephemeral
    ports), a coordinator connects and sends ``JoinRequest``, the
    daemon builds its session replica, dials every lower-numbered peer,
    acknowledges with ``JoinAccept`` and then obeys the coordinator's
    round/collect/shutdown schedule.  :meth:`serve_forever` returns
    after a clean ``Shutdown``.
    """

    def __init__(self, endpoint: str) -> None:
        self.requested_endpoint = endpoint
        self.endpoint = endpoint
        self._listener = None
        self._join: Optional[wire.JoinRequest] = None
        self._control: Optional[Connection] = None
        self._join_ready = asyncio.Event()
        self._peers: Dict[int, _PeerLink] = {}
        self._peers_changed = asyncio.Event()
        self._done = asyncio.Event()
        self._conns: List[Connection] = []
        # Wire counters, reported at collection.
        self.frames_sent = 0
        self.bytes_sent = 0
        self.relay_batches = 0
        self.relays_batched = 0

    async def start(self) -> str:
        """Bind the listener; returns the resolved endpoint."""
        self._listener = await listen(self.requested_endpoint, self._accept)
        self.endpoint = self._listener.endpoint
        return self.endpoint

    async def serve_forever(self) -> None:
        """Block until the coordinator shuts this daemon down."""
        if self._listener is None:
            await self.start()
        await self._join_ready.wait()
        try:
            await self._run_session()
        finally:
            await self._shutdown()

    async def _accept(self, conn: Connection) -> None:
        """First frame decides the link type: coordinator or peer."""
        self._conns.append(conn)
        try:
            message = await recv_message(conn)
        except TransportError:
            return
        if message is None:
            return
        if isinstance(message, wire.JoinRequest):
            if self._join is not None:
                await self._send(conn, wire.JoinReject(
                    reason="daemon already joined a session"
                ))
                return
            self._join = message
            self._control = conn
            self._join_ready.set()
        elif isinstance(message, wire.PeerHello):
            link = _PeerLink(message.shard, conn)
            self._peers[message.shard] = link
            link.start_reader()
            self._peers_changed.set()
        else:
            raise DaemonError(
                f"unexpected first frame {type(message).__name__} on a "
                "new connection"
            )

    async def _send(self, conn: Connection, message: Any) -> None:
        sent = await send_message(conn, message)
        self.frames_sent += 1
        self.bytes_sent += sent + 4

    # -- session ------------------------------------------------------------

    async def _run_session(self) -> None:
        join = self._join
        control = self._control
        assert join is not None and control is not None
        try:
            spec = ScenarioSpec.from_json(json.loads(join.spec_json))
            validate_daemon_spec(spec)
        except (ValueError, DaemonError) as exc:
            await self._send(
                control,
                wire.JoinReject(reason=f"invalid scenario spec: {exc}"),
            )
            return
        self.shard = join.shard
        self.shards = join.shards
        session = spec.build(None)
        simulator = session.simulator
        all_ids = sorted(simulator.nodes)
        owned = owned_node_ids(all_ids, join.shard, join.shards)
        self._owned = set(owned)
        self._shard_of = {
            node_id: index % join.shards
            for index, node_id in enumerate(all_ids)
        }
        self._session = session
        self._spec = spec

        await self._connect_peers(join)
        await self._send(control, wire.JoinAccept(
            shard=join.shard,
            nodes_owned=len(owned),
            spec_digest=spec_digest(join.spec_json),
        ))

        while True:
            message = await recv_message(control)
            if message is None:
                return
            if isinstance(message, wire.RoundStart):
                with round_epoch():
                    await self._run_round(message.round_no)
            elif isinstance(message, wire.CollectRequest):
                await self._send(control, wire.SessionReport(
                    payload=json.dumps(self._report()).encode()
                ))
            elif isinstance(message, wire.Shutdown):
                return
            else:
                raise DaemonError(
                    f"unexpected control frame {type(message).__name__}"
                )

    async def _connect_peers(self, join: wire.JoinRequest) -> None:
        """Dial every lower shard; await dial-ins from higher shards."""
        if len(join.peers) != join.shards:
            raise DaemonError(
                f"join names {len(join.peers)} peer endpoints for "
                f"{join.shards} shards"
            )
        for shard in range(join.shard):
            conn = await connect(join.peers[shard])
            await self._send(conn, wire.PeerHello(shard=join.shard))
            link = _PeerLink(shard, conn)
            self._peers[shard] = link
            link.start_reader()
        while len(self._peers) < join.shards - 1:
            self._peers_changed.clear()
            await self._peers_changed.wait()

    async def _run_round(self, round_no: int) -> None:
        session = self._session
        simulator = session.simulator
        network = simulator.network
        control = self._control
        network.begin_round(round_no)
        for node in simulator._ordered_nodes():
            if node.node_id in self._owned:
                node.begin_round(round_no)
        step = 0
        while True:
            batch = network.take_pending()
            local: List[object] = []
            remote: Dict[int, List[object]] = {}
            for message in batch:
                target = self._shard_of.get(message.recipient)
                if target is None or target == self.shard:
                    local.append(message)
                else:
                    remote.setdefault(target, []).append(message)
            sent_remote = 0
            for target in sorted(remote):
                link = self._peers[target]
                for message in self._coalesce(remote[target]):
                    await self._send(link.conn, message)
                    sent_remote += 1
            for shard in sorted(self._peers):
                await self._send(
                    self._peers[shard].conn,
                    wire.StepMark(round_no=round_no, step=step),
                )
            arrivals: List[object] = []
            for shard in sorted(self._peers):
                link = self._peers[shard]
                mark = await link.marks.get()
                if isinstance(mark, str):
                    raise DaemonError(
                        f"peer shard {shard} closed its link in round "
                        f"{round_no} step {step}: {mark}"
                    )
                if mark.round_no != round_no or mark.step != step:
                    raise DaemonError(
                        f"peer {shard} at step {mark.round_no}/"
                        f"{mark.step}, expected {round_no}/{step}"
                    )
                arrivals.extend(link.take_payloads())
            delivered = 0
            for message in arrivals:
                node = simulator.nodes.get(message.recipient)
                if node is not None:
                    node.on_message(message)
                    delivered += 1
            for message in local:
                node = simulator.nodes.get(message.recipient)
                if node is not None:
                    node.on_message(message)
                    delivered += 1
            await self._send(control, wire.StepDone(
                round_no=round_no,
                step=step,
                delivered=delivered,
                sent_remote=sent_remote,
                pending_local=network.pending(),
            ))
            go = await recv_message(control)
            if go is None:
                raise DaemonError("coordinator vanished mid-round")
            if not isinstance(go, wire.StepGo):
                raise DaemonError(
                    f"expected StepGo, got {type(go).__name__}"
                )
            if not go.proceed:
                break
            step += 1
        for node in simulator._ordered_nodes():
            if node.node_id in self._owned:
                node.end_round(round_no)
        session.round_over(round_no)
        simulator.current_round = round_no + 1
        await self._send(control, wire.RoundDone(round_no=round_no))

    def _coalesce(self, messages: List[object]) -> List[object]:
        """Fold same-destination attestation relays into signed batches.

        Relays from one declarer to one monitor in one round collapse
        into a single :class:`AttestationRelayBatch` carrying the raw
        (hash, cofactor) pairs under ONE signature by the declarer —
        the receiving monitor verifies that signature and folds the
        pairs through its round :class:`BatchVerifier`.  The batch
        replaces the group's first relay, preserving relative order;
        singleton groups stay plain relays.
        """
        groups: Dict[Tuple[int, int, int], List[int]] = {}
        for index, message in enumerate(messages):
            if isinstance(message, AttestationRelay):
                key = (message.sender, message.recipient, message.round_no)
                groups.setdefault(key, []).append(index)
        replaced: Dict[int, object] = {}
        dropped = set()
        signer = self._session.context.signer
        for (sender, recipient, round_no), indices in groups.items():
            if len(indices) < 2:
                continue
            pairs = tuple(
                RelayPair(
                    attestation=messages[i].attestation,
                    cofactor=messages[i].cofactor,
                    cofactor_prime_count=messages[i].cofactor_prime_count,
                )
                for i in indices
            )
            batch = AttestationRelayBatch(
                sender=sender,
                recipient=recipient,
                round_no=round_no,
                declarer=sender,
                pairs=pairs,
                signature=0,
            )
            batch.signature = signer.sign(sender, batch.payload_desc())
            replaced[indices[0]] = batch
            dropped.update(indices[1:])
            self.relay_batches += 1
            self.relays_batched += len(indices)
        if not replaced:
            return messages
        out: List[object] = []
        for index, message in enumerate(messages):
            if index in dropped:
                continue
            out.append(replaced.get(index, message))
        return out

    def _report(self) -> dict:
        session = self._session
        spec = self._spec
        network = session.simulator.network
        verdicts = sorted(
            (v.node, v.reason.value, v.exchange_round, v.detected_by)
            for v in session.all_verdicts()
        )
        continuity = {}
        for node_id in sorted(self._owned):
            if node_id == 0:
                continue
            report = session.playback_report(
                node_id, warmup_rounds=spec.warmup_rounds
            )
            if report.chunks_due:
                continuity[str(node_id)] = report.continuity
        return {
            "shard": self.shard,
            "owned": sorted(self._owned),
            "verdicts": verdicts,
            "messages_sent": network.messages_sent,
            "frames_sent": self.frames_sent,
            "bytes_sent": self.bytes_sent,
            "relay_batches": self.relay_batches,
            "relays_batched": self.relays_batched,
            "continuity": continuity,
        }

    async def _shutdown(self) -> None:
        for link in self._peers.values():
            await link.close()
        for conn in self._conns:
            await conn.close()
        if self._listener is not None:
            await self._listener.close()
        self._done.set()


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class SessionCoordinator:
    """Drives a scenario across a fleet of daemons.

    Connects to every endpoint, ships the spec, runs the BSP round
    schedule, merges the shard reports and shuts the fleet down.
    """

    def __init__(self, spec: ScenarioSpec, endpoints: List[str]) -> None:
        if len(endpoints) < 1:
            raise ValueError("a session needs at least one daemon")
        validate_daemon_spec(spec)
        self.spec = spec
        self.endpoints = list(endpoints)

    async def run(self) -> dict:
        spec_json = json.dumps(self.spec.to_json(), sort_keys=True).encode()
        digest = spec_digest(spec_json)
        conns: List[Connection] = []
        try:
            for endpoint in self.endpoints:
                conns.append(await connect(endpoint))
            for shard, conn in enumerate(conns):
                await self._send(conn, wire.JoinRequest(
                    shard=shard,
                    shards=len(conns),
                    spec_json=spec_json,
                    peers=tuple(self.endpoints),
                ))
            for shard, conn in enumerate(conns):
                reply = await self._recv(conn)
                if isinstance(reply, wire.JoinReject):
                    raise DaemonError(
                        f"daemon {shard} rejected the session: "
                        f"{reply.reason}"
                    )
                if not isinstance(reply, wire.JoinAccept):
                    raise DaemonError(
                        f"daemon {shard} answered "
                        f"{type(reply).__name__}, expected JoinAccept"
                    )
                if reply.spec_digest != digest:
                    raise DaemonError(
                        f"daemon {shard} rebuilt spec digest "
                        f"{reply.spec_digest}, coordinator has {digest}"
                    )
            for round_no in range(self.spec.rounds):
                await self._run_round(conns, round_no)
            for conn in conns:
                await self._send(conn, wire.CollectRequest())
            reports = []
            for shard, conn in enumerate(conns):
                reply = await self._recv(conn)
                if not isinstance(reply, wire.SessionReport):
                    raise DaemonError(
                        f"daemon {shard} answered "
                        f"{type(reply).__name__}, expected SessionReport"
                    )
                reports.append(json.loads(reply.payload.decode()))
            for conn in conns:
                await self._send(conn, wire.Shutdown())
            return self._merge(reports)
        finally:
            for conn in conns:
                await conn.close()

    async def _send(self, conn: Connection, message: Any) -> None:
        await send_message(conn, message)

    async def _recv(self, conn: Connection) -> Any:
        message = await recv_message(conn)
        if message is None:
            raise DaemonError("a daemon hung up mid-session")
        return message

    async def _run_round(
        self, conns: List[Connection], round_no: int
    ) -> None:
        for conn in conns:
            await self._send(conn, wire.RoundStart(round_no=round_no))
        step = 0
        while True:
            pending = 0
            for shard, conn in enumerate(conns):
                done = await self._recv(conn)
                if not isinstance(done, wire.StepDone) or (
                    done.round_no != round_no or done.step != step
                ):
                    raise DaemonError(
                        f"daemon {shard}: expected StepDone "
                        f"{round_no}/{step}, got {done}"
                    )
                pending += done.pending_local
            proceed = pending > 0
            for conn in conns:
                await self._send(conn, wire.StepGo(
                    round_no=round_no, step=step, proceed=proceed
                ))
            if not proceed:
                break
            step += 1
        for shard, conn in enumerate(conns):
            done = await self._recv(conn)
            if not isinstance(done, wire.RoundDone):
                raise DaemonError(
                    f"daemon {shard}: expected RoundDone, got {done}"
                )

    def _merge(self, reports: List[dict]) -> dict:
        """Union of the shard reports, verdicts deduplicated exactly as
        :meth:`PagSession.all_verdicts` does: by (node, reason, round)."""
        seen = set()
        verdicts = []
        for report in reports:
            for node, reason, exchange_round, detected_by in report[
                "verdicts"
            ]:
                key = (node, reason, exchange_round)
                if key in seen:
                    continue
                seen.add(key)
                verdicts.append(
                    (node, reason, exchange_round, detected_by)
                )
        verdicts.sort()
        continuity = {}
        for report in reports:
            continuity.update(report.get("continuity", {}))
        mean_continuity = (
            sum(continuity.values()) / len(continuity)
            if continuity
            else None
        )
        return {
            "scenario": self.spec.name,
            "shards": len(reports),
            "rounds": self.spec.rounds,
            "verdicts": verdicts,
            "convicted": sorted({v[0] for v in verdicts}),
            "mean_continuity": mean_continuity,
            "messages_sent": sum(r["messages_sent"] for r in reports),
            "frames_sent": sum(r["frames_sent"] for r in reports),
            "bytes_on_wire": sum(r["bytes_sent"] for r in reports),
            "relay_batches": sum(r["relay_batches"] for r in reports),
            "relays_batched": sum(r["relays_batched"] for r in reports),
            "per_shard": reports,
        }


async def run_coordinated_session(
    spec: ScenarioSpec,
    shards: int = 2,
    scheme: str = "mem",
) -> dict:
    """Spin up ``shards`` daemons plus a coordinator in this event loop.

    ``scheme`` picks the transport: ``"mem"`` (loopback queues, tests),
    ``"tcp"`` (real localhost sockets) or ``"unix"``.  Returns the
    merged session report.
    """
    import os
    import tempfile

    daemons: List[NodeDaemon] = []
    endpoints: List[str] = []
    tmpdir = None
    if scheme == "unix":
        tmpdir = tempfile.mkdtemp(prefix="repro-daemon-")
    try:
        for shard in range(shards):
            if scheme == "mem":
                endpoint = f"mem://daemon-{id(object())}-{shard}"
            elif scheme == "tcp":
                endpoint = "tcp://127.0.0.1:0"
            elif scheme == "unix":
                endpoint = f"unix://{tmpdir}/daemon-{shard}.sock"
            else:
                raise ValueError(f"unknown transport scheme {scheme!r}")
            daemon = NodeDaemon(endpoint)
            endpoints.append(await daemon.start())
            daemons.append(daemon)
        servers = [
            asyncio.get_running_loop().create_task(d.serve_forever())
            for d in daemons
        ]
        result = await SessionCoordinator(spec, endpoints).run()
        await asyncio.gather(*servers)
        return result
    finally:
        if tmpdir is not None:
            import shutil

            shutil.rmtree(tmpdir, ignore_errors=True)
