"""Pluggable execution policies for the round-drain loop.

The engine's drain loop is the hottest non-crypto path of the
simulator: every message of every round passes through it.  The paper's
deployments run nodes on independent machines, so within a drain batch
(one quiescence step of a round) nodes are independent until they send.
This module makes that structure explicit:

* :class:`SerialPolicy` delivers a batch one message at a time in FIFO
  order — byte-for-byte the engine behaviour before policies existed.
* :class:`ShardedPolicy` partitions each batch by *recipient* across a
  fixed number of shards.  Per-recipient FIFO order is preserved (all
  messages to one node stay in one shard, in order), each shard's
  deliveries are metered into a private :class:`~repro.sim.network.SendCapture`,
  and the captures are merged into the shared network in shard-index
  order at batch end — so the combined accounting is deterministic and
  the per-node byte totals match the serial schedule exactly.
* :class:`ParallelShardedPolicy` turns that partition/capture/merge
  contract into real worker-backed rounds.  Each shard owns the nodes
  with ``node_id % workers == shard`` and holds a *replica* of the whole
  session, rebuilt deterministically from the scenario spec inside the
  worker.  The engine hands the policy the round barriers
  (``begin_round`` fan-out, every drain batch, ``end_round``); each
  worker executes only the lifecycle calls and deliveries of its owned
  nodes, buffering sends in a private capture, and the parent merges the
  captures by ``(trigger_index, seq)`` — the exact order a serial walk
  would have produced.  Taps, drop rules, the shared meter and the
  pending queue live only in the parent, so traces, drops and byte
  accounting are bit-identical to :class:`SerialPolicy` by construction.

  Workers run on a :mod:`concurrent.futures` pool: one single-worker
  ``ProcessPoolExecutor`` per shard (pinning each shard to its replica
  process) when the session bootstrap is picklable, with a thread-pool
  fallback otherwise, and a synchronous ``serialized`` mode for
  deterministic timing and debugging.  PAG nodes interact exclusively
  through messages (monitors defer their traffic to a next-round
  outbox), which is what makes replica execution exact: a node's state
  is a pure function of its constructor and the ordered lifecycle calls
  it receives, all of which are routed to exactly one worker.
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.sim.network import RemoteSend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.message import Message
    from repro.sim.network import Network
    from repro.sim.node import SimNode

__all__ = [
    "ExecutionPolicy",
    "SerialPolicy",
    "ShardedPolicy",
    "ParallelShardedPolicy",
    "ParallelStats",
    "DaemonPolicy",
    "make_policy",
]

#: ``nodes_get(node_id)`` -> the node instance, or None after churn.
NodeLookup = Callable[[int], Optional["SimNode"]]


class ExecutionPolicy:
    """Strategy for delivering one drain batch to its recipients.

    Beyond :meth:`deliver`, the engine offers policies ownership of the
    per-round node lifecycle: :meth:`begin_nodes` / :meth:`end_nodes`
    may execute the round fan-out themselves (returning True), and
    membership changes are announced through :meth:`notify_add` /
    :meth:`notify_remove`.  The defaults decline ownership and ignore
    membership, which keeps :class:`SerialPolicy` and
    :class:`ShardedPolicy` byte-for-byte on the pre-handoff engine
    path.
    """

    name: str = "abstract"

    def deliver(
        self,
        batch: Sequence["Message"],
        nodes_get: NodeLookup,
        network: "Network",
    ) -> None:
        """Deliver every message of ``batch``; replies land in the
        network's pending queue for the next batch."""
        raise NotImplementedError

    # -- round barriers (ownership handoff) --------------------------------

    def begin_nodes(
        self,
        round_no: int,
        nodes: Sequence["SimNode"],
        network: "Network",
    ) -> bool:
        """Run ``begin_round`` for every node, or decline (return False)
        and let the engine run the loop inline."""
        return False

    def end_nodes(
        self,
        round_no: int,
        nodes: Sequence["SimNode"],
        network: "Network",
    ) -> bool:
        """Run ``end_round`` for every node, or decline (return False)."""
        return False

    # -- membership --------------------------------------------------------

    def notify_add(self, node: "SimNode") -> None:
        """A node joined the engine (always before the first round)."""

    def notify_remove(self, node_id: int) -> None:
        """A node left the engine (churn between rounds)."""

    # -- lifecycle ---------------------------------------------------------

    def sync_session(self, session) -> None:
        """Bring the session's reporting state up to date (no-op unless
        the policy executes nodes somewhere other than the session's own
        objects)."""

    def close(self) -> None:
        """Release any execution resources (worker pools); the policy
        may be reused afterwards."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class SerialPolicy(ExecutionPolicy):
    """One-at-a-time FIFO delivery — the reference schedule.

    Replies sent while the batch is processed go straight onto the
    shared queue, so the delivery order is identical to one-at-a-time
    queue popping (the pre-policy engine behaviour, bit for bit).
    """

    name = "serial"

    def deliver(
        self,
        batch: Sequence["Message"],
        nodes_get: NodeLookup,
        network: "Network",
    ) -> None:
        for message in batch:
            recipient = nodes_get(message.recipient)
            if recipient is None:
                # Recipient left the system (churn); gossip tolerates
                # this.
                continue
            recipient.on_message(message)


class DaemonPolicy(ExecutionPolicy):
    """Serial FIFO delivery through the v1 wire codec (loopback).

    Every message whose type has a wire schema is encoded, framed,
    reassembled and decoded before reaching its recipient — exactly the
    byte path of the node daemon's loopback transport, without sockets
    or an event loop.  Because the codec round-trip is the identity on
    message values and the network meters sizes at send time, the
    schedule, byte accounting, crypto-op counts and verdicts are
    bit-identical to :class:`SerialPolicy`; the differential suite
    holds that equality over the whole scenario registry.

    Message types outside the PAG wire catalogue (the AcTinG baseline's
    audit traffic, the push baseline) pass through unencoded and are
    tallied in ``passthrough``.
    """

    name = "daemon"

    def __init__(self) -> None:
        self.frames = 0
        self.bytes_on_wire = 0
        self.passthrough = 0
        self._assembler = None

    def deliver(
        self,
        batch: Sequence["Message"],
        nodes_get: NodeLookup,
        network: "Network",
    ) -> None:
        # Lazy import: repro.net pulls in the message catalogue, which
        # the bare engine path never needs.
        from repro.net import wire

        if self._assembler is None:
            self._assembler = wire.FrameAssembler()
        assembler = self._assembler
        for message in batch:
            recipient = nodes_get(message.recipient)
            if recipient is None:
                # Recipient left the system (churn); gossip tolerates
                # this.
                continue
            if not wire.encodable(message):
                self.passthrough += 1
                recipient.on_message(message)
                continue
            payloads = assembler.feed(wire.frame(wire.encode_message(message)))
            if len(payloads) != 1:  # pragma: no cover - codec invariant
                raise RuntimeError(
                    f"loopback frame did not reassemble 1:1 "
                    f"({len(payloads)} payloads)"
                )
            self.frames += 1
            self.bytes_on_wire += len(payloads[0]) + 4
            recipient.on_message(wire.decode_message(payloads[0]))


def _deliver_sharded(
    batch: Sequence["Message"],
    nodes_get: NodeLookup,
    network: "Network",
    shards: int,
) -> None:
    """Recipient-partitioned capture/merge delivery on the live nodes.

    The in-process shard loop shared by :class:`ShardedPolicy` and the
    bootstrap-less fallback of :class:`ParallelShardedPolicy`.
    """
    buckets: List[List[tuple]] = [[] for _ in range(shards)]
    for index, message in enumerate(batch):
        buckets[message.recipient % shards].append((index, message))
    captures = []
    for bucket in buckets:
        if not bucket:
            continue
        capture = network.begin_capture()
        try:
            for index, message in bucket:
                recipient = nodes_get(message.recipient)
                if recipient is None:
                    continue
                # Tag replies with the batch position of the message
                # that triggered them, so the merge can reconstruct
                # the serial send order.
                capture.trigger_index = index
                recipient.on_message(message)
        finally:
            network.release_capture()
        captures.append(capture)
    network.merge_captures(captures)


@dataclass
class ShardedPolicy(ExecutionPolicy):
    """Partition each batch by recipient across ``shards`` shards.

    Recipients map to shards by ``node_id % shards``, so the partition
    is stable across batches and rounds.  All messages to one recipient
    land in one shard in their original order — per-recipient FIFO is
    preserved — while sends from different shards are buffered apart
    and merged in shard-index order, keeping metering and the next
    batch's queue deterministic.

    Args:
        shards: number of partitions (>= 1; 1 degenerates to a serial
            schedule with capture overhead).
    """

    shards: int = 4
    name = "sharded"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shard count must be at least 1")

    def deliver(
        self,
        batch: Sequence["Message"],
        nodes_get: NodeLookup,
        network: "Network",
    ) -> None:
        _deliver_sharded(batch, nodes_get, network, self.shards)


# ---------------------------------------------------------------------------
# Parallel backend: replicated shard workers
# ---------------------------------------------------------------------------


def _ops_snapshot(session) -> Dict[str, int]:
    """Protocol-level operation counters of a session (PAG only; the
    AcTinG baseline keeps no crypto tallies).

    The hasher's cache buckets travel with the operation count: every
    protocol-level hash call lands in exactly one bucket, so grafting
    ``hashes`` without them would leave the parent's
    ``cache_stats()`` hit-rate denominator missing the workers' calls.
    """
    context = getattr(session, "context", None)
    if context is None:
        return {}
    hasher = context.hasher
    return {
        "hashes": hasher.operations,
        "hash_memo_hits": hasher.memo_hits,
        "hash_fixed_base_hits": hasher.fixed_base_hits,
        "hash_cold_powmods": hasher.cold_powmods,
        "hash_batched_lifts": hasher.batched_lifts,
        "hash_shared_ladder_seeds": hasher.shared_ladder_seeds,
        "encryptions": context.counters.encryptions,
        "decryptions": context.counters.decryptions,
        "prime_generations": context.counters.prime_generations,
        "signatures": context.signer.counters.signatures,
        "verifications": context.signer.counters.verifications,
    }


def _apply_ops(session, baseline: Dict[str, int], run_ops: Dict[str, int]):
    """Graft summed per-worker operation deltas onto the parent session.

    Operation counts are tallied per protocol call (caching never
    changes them — see :class:`~repro.crypto.homomorphic.HomomorphicHasher`),
    so the run-phase counts partition exactly by executing node and the
    serial total is ``setup + sum(worker deltas)``.  Idempotent: the
    parent's setup baseline is fixed at bind time.
    """
    context = getattr(session, "context", None)
    if context is None:
        return
    hasher = context.hasher
    hasher.operations = baseline["hashes"] + run_ops.get("hashes", 0)
    for attr, key in (
        ("memo_hits", "hash_memo_hits"),
        ("fixed_base_hits", "hash_fixed_base_hits"),
        ("cold_powmods", "hash_cold_powmods"),
        ("batched_lifts", "hash_batched_lifts"),
        ("shared_ladder_seeds", "hash_shared_ladder_seeds"),
    ):
        setattr(hasher, attr, baseline.get(key, 0) + run_ops.get(key, 0))
    counters = context.counters
    counters.encryptions = baseline["encryptions"] + run_ops.get(
        "encryptions", 0
    )
    counters.decryptions = baseline["decryptions"] + run_ops.get(
        "decryptions", 0
    )
    counters.prime_generations = baseline["prime_generations"] + run_ops.get(
        "prime_generations", 0
    )
    signer = context.signer.counters
    signer.signatures = baseline["signatures"] + run_ops.get("signatures", 0)
    signer.verifications = baseline["verifications"] + run_ops.get(
        "verifications", 0
    )


def _export_node_state(node) -> Dict[str, object]:
    """Reporting-level state of one node, as plain picklable data.

    Covers everything :class:`~repro.scenarios.spec.ScenarioResult` and
    the session reporting helpers read: monitor verdicts (PAG), verdict
    logs (AcTinG), update stores (playback continuity) and the source's
    released schedule.
    """
    state: Dict[str, object] = {}
    monitor = getattr(node, "monitor", None)
    if monitor is not None and hasattr(monitor, "verdicts"):
        state["monitor_verdicts"] = monitor.verdicts
    if monitor is not None and getattr(monitor, "counters", None):
        # Accusation-path tallies travel wholesale per node, like the
        # verdict log: the parent's engines never ran the rounds, so
        # the replica's counters are authoritative, not deltas.
        state["monitor_counters"] = monitor.counters
    verdicts = getattr(node, "verdicts", None)
    if verdicts is not None and not callable(verdicts):
        state["verdict_log"] = verdicts
    store = getattr(node, "store", None)
    if store is not None:
        state["store"] = store
    released = getattr(node, "released", None)
    if released is not None:
        state["released"] = released
    return state


def _apply_node_state(node, state: Dict[str, object]) -> None:
    if "monitor_verdicts" in state:
        node.monitor.verdicts = state["monitor_verdicts"]
    if "monitor_counters" in state:
        node.monitor.counters = state["monitor_counters"]
    if "verdict_log" in state:
        node.verdicts = state["verdict_log"]
    if "store" in state:
        node.store = state["store"]
    if "released" in state:
        node.released = state["released"]


class _SpecBootstrap:
    """Rebuild a scenario's session inside a worker.

    Picklable by construction: a :class:`~repro.scenarios.spec.ScenarioSpec`
    is frozen plain data, and ``spec.build()`` is a deterministic
    function of the spec (all randomness is seed-derived), so every
    replica starts from byte-identical state.

    ``shared_ladders`` optionally carries a read-only
    :class:`~repro.crypto.backend.SharedLadderTable` built once in the
    parent: fork-mode process workers inherit its pages for free (the
    bootstrap is created before the pools start), spawn and thread modes
    ship/share it through this object, and every replica's hasher adopts
    it instead of rebuilding identical fixed-base tables.
    """

    def __init__(self, spec, shared_ladders=None) -> None:
        self.spec = spec
        self.shared_ladders = shared_ladders

    def __call__(self):
        session = self.spec.build()
        if self.shared_ladders is not None:
            context = getattr(session, "context", None)
            if context is not None:
                context.hasher.adopt_shared_ladders(self.shared_ladders)
        return session


class _ReplicaWorker:
    """One shard's replica session and its execution loop.

    Lives in a dedicated worker process (process mode) or in the parent
    process (thread/serialized modes, one instance per shard, never
    touched by two tasks at once).  Executes only the lifecycle calls
    and deliveries the parent routes here — the owned nodes — so the
    replica's owned-node state tracks the authoritative schedule exactly
    while non-owned nodes stay frozen at construction and are never
    read.
    """

    def __init__(
        self,
        bootstrap,
        shard: int,
        workers: int,
        shared_stash: Optional[dict] = None,
    ) -> None:
        self.session = bootstrap()
        self.simulator = self.session.simulator
        self.network = self.simulator.network
        self.shard = shard
        self.workers = workers
        self.baseline = _ops_snapshot(self.session)
        #: payloads of sends awaiting their delivery barrier, keyed by
        #: ``(trigger_index, seq)``.  In-process workers (thread /
        #: serialized modes) share one stash, so no payload is ever
        #: serialised; process workers keep a private stash for their
        #: intra-shard sends and ship the rest as pre-partitioned blobs.
        self._stash: dict = shared_stash if shared_stash is not None else {}
        self._shares_stash = shared_stash is not None

    def run_phase(
        self,
        phase: str,
        round_no: int,
        items: List[tuple],
        fast: bool,
        blobs: Optional[List[bytes]] = None,
        remote: bool = False,
        barrier_seq: int = 0,
    ):
        """Execute one barrier's work on the owned nodes.

        ``items`` is ``[(global_index, node_id), ...]`` for lifecycle
        phases, ``[(global_index, message), ...]`` for full-fidelity
        deliveries, and ``[(global_index, key), ...]`` for metadata-mode
        deliveries (payloads looked up in the stash and in ``blobs``
        shipped from other shards).  The global index becomes the
        capture's ``trigger_index`` so the parent reconstructs the
        serial send order.

        Returns ``("capture", capture, wall_s, cpu_s)`` or, with
        ``fast`` set (no parent-side taps/drop rules),
        ``("fast", meta, outbound_blobs, wall_s, cpu_s)`` where ``meta``
        is ``[(trigger, seq, sender, recipient, size), ...]`` and
        ``outbound_blobs`` maps destination shards to pickled
        ``[(key, message), ...]`` lists.  Stash/blob keys are
        ``(barrier_seq, trigger, seq)``: the parent's barrier counter
        scopes them globally, so sends of different barriers can never
        collide in the shared stash while another shard's pops are still
        in flight.
        """
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        network = self.network
        network.current_round = round_no
        nodes_get = self.simulator.nodes.get
        inbound: dict = {}
        for blob in blobs or ():
            inbound.update(pickle.loads(blob))
        capture = network.begin_capture()
        try:
            if phase == "deliver":
                stash = self._stash
                for index, payload in items:
                    if remote:
                        message = inbound.pop(payload, None)
                        if message is None:
                            message = stash.pop(payload, None)
                        if message is None:
                            raise RuntimeError(
                                f"shard {self.shard}: no payload for "
                                f"queued send {payload!r}"
                            )
                    else:
                        message = payload
                    node = nodes_get(message.recipient)
                    if node is None:
                        continue
                    capture.trigger_index = index
                    node.on_message(message)
            elif phase == "begin":
                for index, node_id in items:
                    node = nodes_get(node_id)
                    if node is None:
                        continue
                    capture.trigger_index = index
                    node.begin_round(round_no)
            elif phase == "end":
                for index, node_id in items:
                    node = nodes_get(node_id)
                    if node is None:
                        continue
                    capture.trigger_index = index
                    node.end_round(round_no)
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown phase {phase!r}")
        finally:
            network.release_capture()
        if not fast:
            return (
                "capture",
                capture,
                time.perf_counter() - wall0,
                time.thread_time() - cpu0,
            )
        meta = []
        outbound: Dict[int, list] = {}
        stash = self._stash
        for trigger, seq, message, size in capture.entries:
            meta.append(
                (trigger, seq, message.sender, message.recipient, size)
            )
            key = (barrier_seq, trigger, seq)
            if self._shares_stash:
                stash[key] = message
                continue
            dest = message.recipient % self.workers
            if dest == self.shard:
                stash[key] = message
            else:
                outbound.setdefault(dest, []).append((key, message))
        blobs_out = {
            dest: pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)
            for dest, pairs in outbound.items()
        }
        return (
            "fast",
            meta,
            blobs_out,
            time.perf_counter() - wall0,
            time.thread_time() - cpu0,
        )

    def remove(self, node_id: int) -> None:
        """Mirror a parent-side churn removal on the replica."""
        session = self.session
        remove = getattr(session, "remove_node", None)
        if remove is not None:
            remove(node_id)
            return
        self.simulator.remove_node(node_id)
        nodes = getattr(session, "nodes", None)
        if nodes is not None:
            nodes.pop(node_id, None)

    def admit(self, node_id: int) -> None:
        """Mirror a parent-side join (admission) on the replica.

        The replica was rebuilt from the same spec, so it holds its own
        byte-identical pending instance of the arriving node; admitting
        by id keeps node state out of the scatter/gather protocol.
        """
        admit = getattr(self.session, "admit_node", None)
        if admit is None:
            raise RuntimeError(
                f"shard {self.shard}: replica session cannot admit "
                f"node {node_id} (no pending-arrival support)"
            )
        admit(node_id)

    def collect(self) -> Dict[str, object]:
        """Reporting state of the owned nodes plus run-phase op deltas."""
        current = _ops_snapshot(self.session)
        ops = {
            key: current[key] - self.baseline[key] for key in current
        }
        nodes: Dict[int, Dict[str, object]] = {}
        for node_id, node in self.simulator.nodes.items():
            if node_id % self.workers != self.shard:
                continue
            state = _export_node_state(node)
            if state:
                nodes[node_id] = state
        return {"ops": ops, "nodes": nodes}


#: Per-process replica, installed by the pool initializer.  Each shard
#: owns a single-worker ProcessPoolExecutor, so one process hosts
#: exactly one replica for its whole life.
_PROCESS_REPLICA: Optional[_ReplicaWorker] = None


def _init_process_replica(  # lint: replica-scope
    bootstrap, shard: int, workers: int
) -> None:
    # lint: allow[PAR302] pool initializer installing the per-process
    # replica slot; runs only inside the worker process
    global _PROCESS_REPLICA
    _PROCESS_REPLICA = _ReplicaWorker(bootstrap, shard, workers)


def _process_phase(
    phase: str,
    round_no: int,
    items: List[tuple],
    fast: bool,
    blobs: Optional[List[bytes]],
    remote: bool,
    barrier_seq: int,
):
    return _PROCESS_REPLICA.run_phase(
        phase, round_no, items, fast, blobs, remote, barrier_seq
    )


def _process_remove(node_id: int) -> None:
    # lint: allow[PAR302] the slot holds this process's own replica;
    # process workers never share the module with the parent
    _PROCESS_REPLICA.remove(node_id)


def _process_admit(node_id: int) -> None:
    _PROCESS_REPLICA.admit(node_id)


def _process_collect() -> Dict[str, object]:
    return _PROCESS_REPLICA.collect()


class _ShardHandle:
    """Parent-side endpoint of one shard's worker."""

    def __init__(
        self,
        shard: int,
        executor=None,
        local: Optional[_ReplicaWorker] = None,
    ) -> None:
        self.shard = shard
        self._executor = executor
        self._local = local

    def run_phase(
        self,
        phase: str,
        round_no: int,
        items: List[tuple],
        fast: bool,
        blobs: Optional[List[bytes]] = None,
        remote: bool = False,
        barrier_seq: int = 0,
    ):
        if self._local is not None:
            if self._executor is not None:  # thread mode
                return self._executor.submit(
                    self._local.run_phase,
                    phase,
                    round_no,
                    items,
                    fast,
                    blobs,
                    remote,
                    barrier_seq,
                )
            future: Future = Future()  # serialized mode
            future.set_result(
                self._local.run_phase(
                    phase, round_no, items, fast, blobs, remote, barrier_seq
                )
            )
            return future
        return self._executor.submit(
            _process_phase,
            phase,
            round_no,
            items,
            fast,
            blobs,
            remote,
            barrier_seq,
        )

    def remove(self, node_id: int) -> None:
        if self._local is not None:
            if self._executor is not None:
                self._executor.submit(self._local.remove, node_id).result()
            else:
                self._local.remove(node_id)
            return
        self._executor.submit(_process_remove, node_id).result()

    def admit(self, node_id: int) -> None:
        if self._local is not None:
            if self._executor is not None:
                self._executor.submit(self._local.admit, node_id).result()
            else:
                self._local.admit(node_id)
            return
        self._executor.submit(_process_admit, node_id).result()

    def collect(self) -> Dict[str, object]:
        if self._local is not None:
            if self._executor is not None:
                return self._executor.submit(self._local.collect).result()
            return self._local.collect()
        return self._executor.submit(_process_collect).result()


@dataclass
class ParallelStats:
    """Execution accounting of one parallel run.

    ``wall`` times are parent-observed; ``busy``/``critical`` come from
    per-worker clocks inside :meth:`_ReplicaWorker.run_phase`:
    ``busy_cpu_seconds`` sums every worker's thread CPU time, and
    ``critical_cpu_seconds`` sums, per barrier, only the *slowest*
    worker's CPU time — the compute a machine with one core per worker
    could not avoid.  The gap between the two is the parallelisable
    fraction the partition actually exposed.
    """

    barriers: int = 0
    wall_seconds: float = 0.0
    busy_wall_seconds: float = 0.0
    busy_cpu_seconds: float = 0.0
    critical_cpu_seconds: float = 0.0
    shard_cpu_seconds: Dict[int, float] = field(default_factory=dict)
    removed_nodes: int = 0
    admitted_nodes: int = 0

    def imbalance(self) -> float:
        """Max/mean shard CPU ratio (1.0 = perfectly balanced)."""
        if not self.shard_cpu_seconds:
            return 1.0
        values = list(self.shard_cpu_seconds.values())
        mean = sum(values) / len(values)
        return max(values) / mean if mean > 0 else 1.0


class ParallelShardedPolicy(ExecutionPolicy):
    """Worker-backed shard execution, bit-identical to ``SerialPolicy``.

    Shard ``i`` owns every node with ``node_id % workers == i`` and runs
    that shard's lifecycle calls and deliveries on its own replica of
    the session (see the module docstring for why replica execution is
    exact).  The parent keeps the authoritative queue, meter, taps and
    drop rules, merging worker captures in shard order by
    ``(trigger_index, seq)``.

    Args:
        workers: shard/worker count (>= 1).
        backend: ``"process"`` (one single-worker process pool per
            shard), ``"thread"``, ``"serialized"`` (no executor — the
            replica machinery driven synchronously, for determinism
            tests and timing), or ``"auto"`` (process when the session
            bootstrap pickles, thread otherwise).

    The session-lifetime fixed-base ladders are precomputed once in the
    parent and handed to every replica read-only, instead of letting
    each worker rebuild identical tables.

    A scenario bootstrap is required for replica execution and is bound
    by :meth:`ScenarioSpec.build <repro.scenarios.spec.ScenarioSpec.build>`;
    without one (e.g. a hand-assembled :class:`~repro.core.session.PagSession`)
    the policy degrades to the in-process sharded capture/merge loop,
    still bit-identical, with ``mode == "inline"``.

    After ``session.run(...)`` call :meth:`sync_session` (done
    automatically by ``ScenarioSpec.run``) before reading verdicts,
    playback or crypto counts off the session, then :meth:`close`.
    """

    name = "parallel"

    _BACKENDS = ("auto", "process", "thread", "serialized")

    def __init__(
        self,
        workers: int = 4,
        backend: str = "auto",
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        if backend not in self._BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; expected one of "
                f"{self._BACKENDS}"
            )
        self.workers = workers
        self.backend = backend
        #: resolved execution mode, set on first use: "process",
        #: "thread", "serialized", or "inline" (no bootstrap bound).
        self.mode = "unstarted"
        #: why a requested/auto process backend fell back, if it did.
        self.fallback_reason: Optional[str] = None
        self.stats = ParallelStats()
        self._bootstrap = None
        self._parent_baseline: Optional[Dict[str, int]] = None
        self._handles: Optional[List[_ShardHandle]] = None
        self._inbound_blobs: Dict[int, List[bytes]] = {}
        self._barrier_seq = 0
        self._started = False

    # -- wiring ------------------------------------------------------------

    def bind_scenario(self, spec, session) -> None:
        """Bind the replica bootstrap (called by ``ScenarioSpec.build``).

        Must happen before the first round; the parent session's
        operation counters are snapshotted here as the setup baseline
        for :meth:`sync_session`.
        """
        if self._started:
            raise RuntimeError(
                "cannot rebind a running ParallelShardedPolicy; close() it "
                "first"
            )
        builder = getattr(session, "shared_ladder_table", None)
        ladders = builder(spec.rounds) if builder is not None else None
        self._bootstrap = _SpecBootstrap(spec, shared_ladders=ladders)
        self._parent_baseline = _ops_snapshot(session)

    def _process_capable(self) -> tuple:
        try:
            pickle.dumps(self._bootstrap)
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            return False, f"session bootstrap is not picklable: {exc!r}"
        if not multiprocessing.get_all_start_methods():
            return False, "no multiprocessing start method available"
        return True, ""

    def _ensure_started(self) -> bool:
        """Start the workers on first use; False means inline fallback."""
        if self._started:
            return self.mode != "inline"
        self._started = True
        self.stats = ParallelStats()
        self._inbound_blobs = {}
        self._barrier_seq = 0
        if self._bootstrap is None:
            self.mode = "inline"
            self.fallback_reason = (
                "no scenario bootstrap bound; running the in-process "
                "sharded loop"
            )
            return False
        mode = self.backend
        if mode in ("auto", "process"):
            capable, why = self._process_capable()
            if capable:
                mode = "process"
            elif self.backend == "process":
                raise RuntimeError(
                    f"process backend requested but unavailable: {why}"
                )
            else:
                self.fallback_reason = why
                mode = "thread"
        if mode == "process":
            start_methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in start_methods else start_methods[0]
            )
            self._handles = [
                _ShardHandle(
                    shard,
                    executor=ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=context,
                        initializer=_init_process_replica,
                        initargs=(self._bootstrap, shard, self.workers),
                    ),
                )
                for shard in range(self.workers)
            ]
        elif mode == "thread":
            executor = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-shard",
            )
            stash: dict = {}
            self._handles = [
                _ShardHandle(
                    shard,
                    executor=executor,
                    local=_ReplicaWorker(
                        self._bootstrap,
                        shard,
                        self.workers,
                        shared_stash=stash,
                    ),
                )
                for shard in range(self.workers)
            ]
        else:  # serialized
            stash = {}
            self._handles = [
                _ShardHandle(
                    shard,
                    local=_ReplicaWorker(
                        self._bootstrap,
                        shard,
                        self.workers,
                        shared_stash=stash,
                    ),
                )
                for shard in range(self.workers)
            ]
        self.mode = mode
        return True

    # -- barriers ----------------------------------------------------------

    def _barrier(
        self,
        phase: str,
        round_no: int,
        work: List[List[tuple]],
        network: "Network",
        remote: bool = False,
    ) -> None:
        """Scatter one phase to the shards, gather, merge in shard order.

        When the parent network has no taps and no drop rules, the
        barrier runs in metadata mode: workers return send metadata plus
        pre-partitioned payload blobs, and the parent meters/queues
        :class:`~repro.sim.network.RemoteSend` references without ever
        materialising the messages (the dominant coordinator cost
        otherwise).  Any tap or drop rule switches the barrier to full
        captures, where every send crosses as a real message and the
        network replays it through rules and taps in serial order —
        both modes produce bit-identical accounting and schedules.

        Lifecycle phases are always submitted to every shard (even with
        no owned work) so replicas initialise eagerly; delivery skips
        empty buckets.
        """
        wall0 = time.perf_counter()
        fast = not network.taps and not network.drop_rules
        barrier_seq = self._barrier_seq = self._barrier_seq + 1
        futures: List[Optional[Future]] = []
        for shard, items in enumerate(work):
            if phase == "deliver" and not items:
                futures.append(None)
                continue
            blobs = self._inbound_blobs.pop(shard, None) if remote else None
            futures.append(
                self._handles[shard].run_phase(
                    phase, round_no, items, fast, blobs, remote, barrier_seq
                )
            )
        self._inbound_blobs = {}
        captures = []
        meta: List[tuple] = []
        barrier_cpu = 0.0
        for shard, future in enumerate(futures):
            if future is None:
                continue
            result = future.result()
            if result[0] == "fast":
                _, shard_meta, blobs_out, wall, cpu = result
                meta.extend(shard_meta)
                for dest, blob in blobs_out.items():
                    self._inbound_blobs.setdefault(dest, []).append(blob)
            else:
                _, capture, wall, cpu = result
                captures.append(capture)
            self.stats.busy_wall_seconds += wall
            self.stats.busy_cpu_seconds += cpu
            self.stats.shard_cpu_seconds[shard] = (
                self.stats.shard_cpu_seconds.get(shard, 0.0) + cpu
            )
            barrier_cpu = max(barrier_cpu, cpu)
        self.stats.critical_cpu_seconds += barrier_cpu
        if captures:
            network.merge_captures(captures)
        if meta:
            meta.sort()
            network.merge_remote(
                [
                    RemoteSend(
                        (barrier_seq, trigger, seq), sender, recipient, size
                    )
                    for trigger, seq, sender, recipient, size in meta
                ]
            )
        self.stats.barriers += 1
        self.stats.wall_seconds += time.perf_counter() - wall0

    def _lifecycle_work(
        self, nodes: Sequence["SimNode"]
    ) -> List[List[tuple]]:
        work: List[List[tuple]] = [[] for _ in range(self.workers)]
        for index, node in enumerate(nodes):
            work[node.node_id % self.workers].append((index, node.node_id))
        return work

    def begin_nodes(self, round_no, nodes, network) -> bool:
        if not self._ensure_started():
            return False
        self._barrier("begin", round_no, self._lifecycle_work(nodes), network)
        return True

    def end_nodes(self, round_no, nodes, network) -> bool:
        if not self._ensure_started():
            return False
        self._barrier("end", round_no, self._lifecycle_work(nodes), network)
        return True

    def deliver(self, batch, nodes_get, network) -> None:
        if not self._ensure_started():
            _deliver_sharded(batch, nodes_get, network, self.workers)
            return
        remote = bool(batch) and isinstance(batch[0], RemoteSend)
        work: List[List[tuple]] = [[] for _ in range(self.workers)]
        if remote:
            for index, send in enumerate(batch):
                work[send.recipient % self.workers].append(
                    (index, send.key)
                )
        else:
            for index, message in enumerate(batch):
                work[message.recipient % self.workers].append(
                    (index, message)
                )
        self._barrier(
            "deliver", network.current_round, work, network, remote=remote
        )

    # -- membership --------------------------------------------------------

    def notify_add(self, node) -> None:
        """Mirror a mid-run admission onto the owning worker replica.

        Only spec-declared arrivals can be mirrored: the replica admits
        its own pending instance by id (``session.admit_node``), so a
        hand-assembled session adding an arbitrary node after the
        workers started fails loudly inside the replica rather than
        silently diverging.
        """
        if not self._started or self.mode == "inline":
            return
        self._handles[node.node_id % self.workers].admit(node.node_id)
        self.stats.admitted_nodes += 1

    def notify_remove(self, node_id: int) -> None:
        if not self._started or self.mode == "inline":
            return
        self._handles[node_id % self.workers].remove(node_id)
        self.stats.removed_nodes += 1

    # -- reporting sync & shutdown -----------------------------------------

    def sync_session(self, session) -> None:
        """Graft the workers' reporting state back onto ``session``.

        Verdicts, update stores and the source's release log come from
        each node's owning worker; operation counters are the parent's
        setup baseline plus the summed per-worker run deltas.
        Idempotent — safe to call after every ``run``.
        """
        if not self._started or self.mode == "inline":
            return
        run_ops: Dict[str, int] = {}
        sim_nodes = session.simulator.nodes
        for handle in self._handles:
            report = handle.collect()
            for key, delta in report["ops"].items():
                run_ops[key] = run_ops.get(key, 0) + delta
            for node_id, state in report["nodes"].items():
                node = sim_nodes.get(node_id)
                if node is not None:
                    _apply_node_state(node, state)
        if self._parent_baseline is not None:
            _apply_ops(session, self._parent_baseline, run_ops)

    def close(self) -> None:
        """Shut the worker pools down; the policy can be rebound/reused.

        ``stats`` and ``mode`` keep their final values for post-run
        inspection (the scaling benchmark reads them after the run).
        """
        if self._handles is not None:
            seen = set()
            for handle in self._handles:
                executor = handle._executor
                if executor is None or id(executor) in seen:
                    continue
                # lint: allow[DET105] in-process dedup of live
                # executor objects during shutdown; never ordered
                seen.add(id(executor))
                executor.shutdown(wait=True)
        self._handles = None
        self._bootstrap = None
        self._parent_baseline = None
        self._started = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelShardedPolicy workers={self.workers} "
            f"backend={self.backend!r} mode={self.mode!r}>"
        )


def make_policy(
    name: str,
    shards: int = 4,
    workers: Optional[int] = None,
    parallel_backend: str = "auto",
) -> ExecutionPolicy:
    """Build a policy from its CLI/scenario name.

    Args:
        name: ``"serial"``, ``"sharded"``, ``"parallel"``,
            ``"population"`` or ``"daemon"``.
        shards: partition count for ``sharded`` (also the ``parallel``
            worker count when ``workers`` is not given).
        workers: worker count for ``parallel``.
        parallel_backend: executor selection for ``parallel`` (see
            :class:`ParallelShardedPolicy`).
    """
    if name == "serial":
        return SerialPolicy()
    if name == "sharded":
        return ShardedPolicy(shards=shards)
    if name == "daemon":
        return DaemonPolicy()
    if name == "parallel":
        return ParallelShardedPolicy(
            workers=workers if workers is not None else shards,
            backend=parallel_backend,
        )
    if name == "population":
        # Lazy: the population tier pulls in numpy-backed modules the
        # serial fast path never needs.
        from repro.sim.population import PopulationPolicy

        return PopulationPolicy()
    raise ValueError(
        f"unknown execution policy {name!r}; expected 'serial', 'sharded', "
        "'parallel', 'population' or 'daemon'"
    )
