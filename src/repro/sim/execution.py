"""Pluggable execution policies for the round-drain loop.

The paper's deployments run nodes on independent machines that interact
only through messages, so *where* a node executes can never change a
byte count or a verdict.  A policy decides that placement and nothing
else; every policy is bit-identical to the serial schedule (the
differential suite holds them to it):

* :class:`SerialPolicy` delivers a drain batch one message at a time in
  FIFO order — the reference schedule.
* :class:`ParallelShardedPolicy` runs one worker process per shard,
  each a receive-execute-reply loop over one duplex pipe.
  Shard ``i`` owns the nodes with ``node_id % workers == i`` and holds a
  *replica* of the whole session, rebuilt deterministically from the
  scenario spec inside the worker.  The engine hands the policy the
  round barriers (``begin_round`` fan-out, every drain batch,
  ``end_round``); each worker executes only the lifecycle calls and
  deliveries of its owned nodes, buffering and metering sends in a
  private capture, and the parent merges every shard's sends in one
  pass ordered by ``(trigger_index, seq)`` — the exact order a serial
  walk would have produced.  Taps, drop rules, the shared meter and the
  pending queue live only in the parent, so traces, drops and byte
  accounting match :class:`SerialPolicy` by construction.  PAG nodes
  interact exclusively through messages (monitors defer their traffic
  to a next-round outbox), which is what makes replica execution
  exact: a node's state is a pure function of its constructor and the
  ordered lifecycle calls it receives, all routed to exactly one
  worker.
  A worker's round, from its ``begin`` barrier through its ``end``
  reply, is one collection epoch (:mod:`repro.sim.collection`): the
  cyclic collector waits for the barrier and runs while the parent
  merges.  An exception a replica raises reaches the parent with its
  type and remote traceback, or, when it does not pickle, as a
  ``RuntimeError`` naming its type.

The third placement, a fleet of ``repro daemon`` processes exchanging
v1 wire frames, is not a policy: it lives in :mod:`repro.net.daemon`.
A message therefore reaches its recipient either as the sender's own
object (serially, or inside one worker's shard) or as a copy that
crossed a real process boundary (a pickled cross-shard payload, a
decoded wire frame).
"""

from __future__ import annotations

import multiprocessing
import pickle
import time
import traceback
from contextlib import suppress
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import ForkingPickler
from operator import attrgetter, itemgetter
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
)

from repro.sim import collection
from repro.sim.network import RemoteSend

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.message import Message
    from repro.sim.network import Network
    from repro.sim.node import SimNode

__all__ = [
    "POLICY_NAMES",
    "ExecutionPolicy",
    "SerialPolicy",
    "ParallelShardedPolicy",
    "ParallelStats",
    "make_policy",
]

#: Every name :func:`make_policy`, ``ScenarioSpec.policy`` and ``repro
#: run --policy`` accept.
POLICY_NAMES = ("serial", "parallel")

#: ``nodes_get(node_id)`` -> the node instance, or None after churn.
NodeLookup = Callable[[int], Optional["SimNode"]]


class ExecutionPolicy:
    """Strategy for delivering one drain batch to its recipients.

    Beyond :meth:`deliver`, the engine offers policies ownership of the
    per-round node lifecycle: :meth:`begin_nodes` / :meth:`end_nodes`
    may execute the round fan-out themselves (returning True), and
    membership changes are announced through :meth:`notify_add` /
    :meth:`notify_remove`.  The defaults decline ownership and ignore
    membership, which keeps :class:`SerialPolicy` on the engine's own
    inline loops.
    """

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
        """Release any execution resources (worker processes); the
        policy may be reused afterwards."""


class SerialPolicy(ExecutionPolicy):
    """One-at-a-time FIFO delivery — the reference schedule.

    Replies sent while the batch is processed go straight onto the
    shared queue, so the delivery order is identical to one-at-a-time
    queue popping (the pre-policy engine behaviour, bit for bit).
    """

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


# ---------------------------------------------------------------------------
# Parallel backend: replicated shard workers
# ---------------------------------------------------------------------------


#: Snapshot key -> where the counter lives under ``session.context``,
#: for every protocol-level operation count a worker reports and
#: :func:`_apply_ops` grafts back.  The hasher's cache buckets travel
#: with its operation count: every hash call lands in exactly one
#: bucket, so grafting ``hashes`` without them would leave the parent's
#: ``cache_stats()`` hit-rate denominator missing the workers' calls.
_OP_COUNTERS = {
    "hashes": "hasher.operations",
    "hash_memo_hits": "hasher.memo_hits",
    "hash_fixed_base_hits": "hasher.fixed_base_hits",
    "hash_cold_powmods": "hasher.cold_powmods",
    "hash_batched_lifts": "hasher.batched_lifts",
    "encryptions": "counters.encryptions",
    "decryptions": "counters.decryptions",
    "prime_generations": "counters.prime_generations",
    "signatures": "signer.counters.signatures",
    "verifications": "signer.counters.verifications",
}


def _ops_snapshot(session) -> Dict[str, int]:
    """Protocol-level operation counters of a session (PAG only; the
    AcTinG baseline keeps no crypto tallies)."""
    context = getattr(session, "context", None)
    if context is None:
        return {}
    return {
        key: attrgetter(path)(context) for key, path in _OP_COUNTERS.items()
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
    for key, path in _OP_COUNTERS.items():
        owner, _, attr = path.rpartition(".")
        total = baseline[key] + run_ops.get(key, 0)
        setattr(attrgetter(owner)(context), attr, total)


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


class _ReplicaWorker:
    """One shard's replica session and its execution loop.

    Lives in a dedicated worker process.  Executes only the lifecycle
    calls and deliveries the parent routes here — the owned nodes — so the
    replica's owned-node state tracks the authoritative schedule exactly
    while non-owned nodes stay frozen at construction and are never
    read.  The replica is ``spec.build()``: a deterministic function of
    the frozen spec (all randomness is seed-derived), so every replica
    starts byte-identical to the parent's session.
    """

    def __init__(self, spec, shard: int, workers: int) -> None:
        self.session = spec.build()
        self.simulator = self.session.simulator
        self.network = self.simulator.network
        self.shard = shard
        self.workers = workers
        self.baseline = _ops_snapshot(self.session)
        #: payloads of intra-shard sends awaiting their delivery
        #: barrier, keyed by ``(barrier_seq, trigger, seq)``; the rest
        #: leave as pre-partitioned blobs.
        self._stash: dict = {}

    def run_phase(
        self,
        phase: str,
        round_no: int,
        items: List[tuple],
        with_payloads: bool,
        blobs: Optional[List[bytes]] = None,
        remote: bool = False,
        barrier_seq: int = 0,
    ):
        """Execute one barrier's work on the owned nodes.

        ``items`` is ``[(global_index, node_id), ...]`` for lifecycle
        phases, ``[(global_index, message), ...]`` for parent-held
        deliveries, and ``[(global_index, key), ...]`` for worker-held
        ones (payloads looked up in the stash and in ``blobs`` shipped
        from other shards).  The global index becomes the capture's
        ``trigger_index`` so the parent reconstructs the serial send
        order.

        Returns ``(sends, meter_rows, outbound_blobs, cpu_s)``,
        the one shape :meth:`Network.merge_remote
        <repro.sim.network.Network.merge_remote>` takes: ``sends`` as
        ``[(key, sender, recipient, size, message), ...]`` with ``key
        = (barrier_seq, trigger, seq)``, ``meter_rows`` as the per-node
        totals of the meter the capture filled.  With
        ``with_payloads`` (the parent has taps or drop rules) each send
        carries its message to the parent; otherwise ``message`` is
        None, the payload stays in the stash under ``key`` or leaves in
        ``outbound_blobs``, pickled ``[(key, message), ...]`` lists by
        destination shard.  The parent's barrier counter scopes the
        keys globally, so sends of different barriers never collide.
        """
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
            elif phase in ("begin", "end"):
                for index, node_id in items:
                    node = nodes_get(node_id)
                    if node is None:
                        continue
                    capture.trigger_index = index
                    if phase == "begin":
                        node.begin_round(round_no)
                    else:
                        node.end_round(round_no)
                if phase == "end":
                    self.session.round_over(round_no)
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown phase {phase!r}")
        finally:
            network.release_capture()
        sends: List[tuple] = []
        outbound: Dict[int, list] = {}
        stash = self._stash
        for trigger, seq, message, size in capture.entries:
            key = (barrier_seq, trigger, seq)
            if with_payloads:
                sends.append(
                    (key, message.sender, message.recipient, size, message)
                )
                continue
            sends.append((key, message.sender, message.recipient, size, None))
            dest = message.recipient % self.workers
            if dest == self.shard:
                stash[key] = message
            else:
                outbound.setdefault(dest, []).append((key, message))
        return (
            sends,
            [
                (n, t.bytes_up, t.messages_up, t.bytes_down, t.messages_down)
                for n, t in capture.meter.totals.items()
            ],
            {
                dest: pickle.dumps(pairs, pickle.HIGHEST_PROTOCOL)
                for dest, pairs in outbound.items()
            },
            time.thread_time() - cpu0,
        )

    def remove(self, node_id: int) -> None:
        """Mirror a parent-side churn removal on the replica."""
        self.session.remove_node(node_id)

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


def _portable(exc: Exception) -> Exception:
    """``exc`` if it survives the pipe's pickling, else a
    ``RuntimeError`` naming its type and message (an ``__init__`` that
    takes other arguments than ``args``, or a lock in its state, would
    otherwise fail in the parent's unpickling or kill the worker in
    ``conn.send``)."""
    try:
        ForkingPickler.loads(ForkingPickler.dumps(exc))
    except Exception:  # noqa: BLE001 - any pickling failure
        return RuntimeError(
            f"{type(exc).__qualname__}: {exc} (raised in the worker; "
            "not picklable, so re-raised as RuntimeError)"
        )
    return exc


def _process_loop(conn: Connection, ours: Connection, *replica_args) -> None:
    """A shard's worker process: build the replica, then answer each
    ``(op, args)`` with ``(True, result, None)`` or ``(False, exception,
    formatted traceback)`` until told ``None`` or the parent is gone.
    ``ours`` is the parent's end of the pipe: a forked child holds a
    copy, and would never read EOF from a dead parent with it open.

    A round, from its ``begin`` barrier through the ``end`` reply, is
    one collection epoch (:mod:`repro.sim.collection`); the deferred
    collection runs after the reply, while the parent merges, and after
    every error reply."""
    ours.close()
    collection.release_inherited()
    replica = _ReplicaWorker(*replica_args)
    paused = False
    try:
        for op, args in iter(conn.recv, None):
            phase = args[0] if op == "run_phase" else None
            if phase == "begin" and not paused:
                paused = collection.pause()
            try:
                reply = (True, getattr(replica, op)(*args), None)
            except Exception as exc:  # noqa: BLE001 - raised in the parent
                reply = (False, _portable(exc), traceback.format_exc())
            conn.send(reply)
            if phase == "end" or not reply[0]:
                collection.resume(paused)
                paused = False
    except (EOFError, OSError):  # parent gone: nobody left to answer
        pass


class _RemoteTraceback(Exception):
    """``__cause__`` of an exception re-raised from a worker; its text
    is the traceback formatted where it was raised."""


class _ShardHandle:
    """Parent-side endpoint of one shard's worker process, behind one
    duplex pipe.  Every parent-to-replica call is a :meth:`submit` and
    a :meth:`result`."""

    def __init__(self, shard: int, process, conn: Connection):
        self.shard = shard
        self.process = process
        self._conn = conn
        #: True while the worker owes a reply.
        self._owed = False

    def submit(self, op: str, *args) -> None:
        """Start ``_ReplicaWorker.<op>(*args)`` on the shard's replica."""
        with suppress(OSError):  # a dead worker: result() names it
            self._conn.send((op, args))
        self._owed = True

    def result(self, doing: str):
        """What the submitted call returned.  What it raised is raised
        again, the worker's traceback as its ``__cause__``; a dead
        worker is a ``RuntimeError`` naming the shard and ``doing``.
        Waits on the process as well as the pipe: an end of the pipe
        that a forked sibling inherited would keep EOF from arriving."""
        self._owed = False
        try:
            if self._conn not in wait([self._conn, self.process.sentinel]):
                raise EOFError
            ok, value, remote = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"parallel worker of shard {self.shard} died during {doing}"
            ) from exc
        if ok:
            return value
        raise value from _RemoteTraceback(remote)

    def call(self, doing: str, op: str, *args):
        self.submit(op, *args)
        return self.result(doing)

    def close(self) -> None:
        """Stop the worker, taking the reply it may still owe first: it
        would block writing a large one into a pipe nobody reads."""
        if self._owed:
            with suppress(Exception):  # dead, or moot by now
                self.result("close")
        with suppress(OSError):  # already dead
            self._conn.send(None)
        self.process.join()
        self._conn.close()


@dataclass
class ParallelStats:
    """Execution accounting of one parallel run.

    ``wall_seconds`` is parent-observed; ``busy``/``critical`` come from
    per-worker clocks inside :meth:`_ReplicaWorker.run_phase`:
    ``busy_cpu_seconds`` sums every worker's thread CPU time, and
    ``critical_cpu_seconds`` sums, per barrier, only the *slowest*
    worker's CPU time — the compute a machine with one core per worker
    could not avoid.  The gap between the two is the parallelisable
    fraction the partition actually exposed.
    """

    barriers: int = 0
    wall_seconds: float = 0.0
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
    """Worker-backed shard execution, bit-identical to ``SerialPolicy``
    (the module docstring says how, and why replica execution is exact).

    Args:
        workers: shard count, one worker process and one pipe each
            (>= 1).

    Each worker rebuilds its replica from the scenario spec bound by
    :meth:`ScenarioSpec.build <repro.scenarios.spec.ScenarioSpec.build>`,
    fixed-base tables and all; a session assembled by hand has nothing
    to rebuild from, and its first round raises a ``RuntimeError``
    saying so.

    After ``session.run(...)`` call :meth:`sync_session` (done
    automatically by ``ScenarioSpec.run``) before reading verdicts,
    playback or crypto counts off the session, then :meth:`close`.
    """

    def __init__(self, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("worker count must be at least 1")
        self.workers = workers
        #: "process" once the workers are running, "unstarted" before.
        self.mode = "unstarted"
        self.stats = ParallelStats()
        self._spec = None
        self._parent_baseline: Optional[Dict[str, int]] = None
        #: one per shard while the workers run, None before and after.
        self._handles: Optional[List[_ShardHandle]] = None
        self._inbound_blobs: Dict[int, List[bytes]] = {}
        self._barrier_seq = 0

    # -- wiring ------------------------------------------------------------

    def bind_scenario(self, spec, session) -> None:
        """Bind the spec the replicas are rebuilt from (called by
        ``ScenarioSpec.build``).

        Must happen before the first round; the parent session's
        operation counters are snapshotted here as the setup baseline
        for :meth:`sync_session`.
        """
        if self._handles is not None:
            raise RuntimeError(
                "cannot rebind a running ParallelShardedPolicy; close() it "
                "first"
            )
        self._spec = spec
        self._parent_baseline = _ops_snapshot(session)

    def _ensure_started(self) -> None:
        """Start the workers on first use."""
        if self._handles is not None:
            return
        if self._spec is None:
            raise RuntimeError(
                "ParallelShardedPolicy has no scenario to rebuild its "
                "worker replicas from: build the session with "
                "ScenarioSpec.build(policy), a hand-assembled session "
                "cannot run on workers"
            )
        try:
            pickle.dumps(self._spec)
        except Exception as exc:  # noqa: BLE001 - any pickling failure
            raise RuntimeError(
                "parallel workers unavailable: scenario spec is not "
                f"picklable: {exc!r}"
            ) from exc
        start_methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in start_methods else start_methods[0]
        )
        self._handles = []
        for shard in range(self.workers):
            # One at a time, the child's end closed before the next
            # fork: no sibling inherits it, so a death reads as EOF.
            ours, theirs = context.Pipe()
            process = context.Process(
                target=_process_loop,
                args=(theirs, ours, self._spec, shard, self.workers),
                daemon=True,
            )
            process.start()
            theirs.close()
            self._handles.append(_ShardHandle(shard, process, ours))
        self.mode = "process"
        self.stats = ParallelStats()
        self._inbound_blobs = {}
        self._barrier_seq = 0

    def worker_pids(self) -> List[int]:
        """Process ids of the running workers, in shard order (empty
        before the first round and after :meth:`close`)."""
        return [h.process.pid for h in self._handles or ()]

    # -- barriers ----------------------------------------------------------

    def _barrier(
        self,
        phase: str,
        round_no: int,
        work: List[List[tuple]],
        network: "Network",
        remote: bool = False,
    ) -> None:
        """Scatter one phase to the shards, gather, merge in serial order.

        Every shard answers with the one :meth:`_ReplicaWorker.run_phase`
        shape; the parent sorts all shards' sends once and hands them
        with the meter rows to one :meth:`Network.merge_remote
        <repro.sim.network.Network.merge_remote>` call.  With no taps
        and no drop rules on the parent network the payloads stay in
        the workers or cross between them as blobs the parent never
        opens; any tap or drop rule makes every send carry its message
        to the parent, which replays it through rules and taps in
        serial order.  Either way the rows of the meters the workers
        filled are added once, so no send is metered twice, and
        accounting and schedules are bit-identical to the serial ones.

        Lifecycle phases go to every shard, delivery skips empty
        buckets.  A dead worker (killed, out of memory, a failed
        replica rebuild) is a ``RuntimeError`` naming shard, phase and
        round; :meth:`close` stays safe afterwards.
        """
        wall0 = time.perf_counter()
        with_payloads = bool(network.taps or network.drop_rules)
        barrier_seq = self._barrier_seq = self._barrier_seq + 1
        sends: List[tuple] = []
        meter_rows: List[tuple] = []
        barrier_cpu = 0.0
        busy = []
        for handle, items in zip(self._handles, work):
            if phase == "deliver" and not items:
                continue
            blobs = (
                self._inbound_blobs.pop(handle.shard, None) if remote else None
            )
            handle.submit(
                "run_phase", phase, round_no, items, with_payloads, blobs,
                remote, barrier_seq,
            )
            busy.append(handle)
        self._inbound_blobs = {}
        for handle in busy:
            shard_sends, shard_rows, blobs_out, cpu = handle.result(
                f"the {phase!r} phase of round {round_no}"
            )
            sends.extend(shard_sends)
            meter_rows.extend(shard_rows)
            for dest, blob in blobs_out.items():
                self._inbound_blobs.setdefault(dest, []).append(blob)
            self.stats.busy_cpu_seconds += cpu
            self.stats.shard_cpu_seconds[handle.shard] = (
                self.stats.shard_cpu_seconds.get(handle.shard, 0.0) + cpu
            )
            barrier_cpu = max(barrier_cpu, cpu)
        self.stats.critical_cpu_seconds += barrier_cpu
        if sends:
            sends.sort(key=itemgetter(0))
            network.merge_remote(sends, meter_rows)
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
        self._ensure_started()
        self._barrier("begin", round_no, self._lifecycle_work(nodes), network)
        return True

    def end_nodes(self, round_no, nodes, network) -> bool:
        self._ensure_started()
        self._barrier("end", round_no, self._lifecycle_work(nodes), network)
        return True

    def deliver(self, batch, nodes_get, network) -> None:
        self._ensure_started()
        remote = bool(batch) and isinstance(batch[0], RemoteSend)
        work: List[List[tuple]] = [[] for _ in range(self.workers)]
        for index, entry in enumerate(batch):
            work[entry.recipient % self.workers].append(
                (index, entry.key if remote else entry)
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
        if self._handles is None:
            return
        self._handles[node.node_id % self.workers].call(
            f"notify_add of node {node.node_id}", "admit", node.node_id
        )
        self.stats.admitted_nodes += 1

    def notify_remove(self, node_id: int) -> None:
        if self._handles is None:
            return
        self._handles[node_id % self.workers].call(
            f"notify_remove of node {node_id}", "remove", node_id
        )
        self.stats.removed_nodes += 1

    # -- reporting sync & shutdown -----------------------------------------

    def sync_session(self, session) -> None:
        """Graft the workers' reporting state back onto ``session``.

        Verdicts, update stores and the source's release log come from
        each node's owning worker; operation counters are the parent's
        setup baseline plus the summed per-worker run deltas.
        Idempotent — safe to call after every ``run``.
        """
        if self._handles is None:
            return
        run_ops: Dict[str, int] = {}
        sim_nodes = session.simulator.nodes
        for handle in self._handles:
            report = handle.call("sync_session", "collect")
            for key, delta in report["ops"].items():
                run_ops[key] = run_ops.get(key, 0) + delta
            for node_id, state in report["nodes"].items():
                node = sim_nodes.get(node_id)
                if node is not None:
                    _apply_node_state(node, state)
        if self._parent_baseline is not None:
            _apply_ops(session, self._parent_baseline, run_ops)

    def close(self) -> None:
        """Stop and reap the workers; the policy can be rebound/reused.

        ``stats`` and ``mode`` keep their final values for post-run
        inspection (the benchmark reads them after the run).
        """
        for handle in self._handles or ():
            handle.close()
        self._handles = None
        self._spec = None
        self._parent_baseline = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ParallelShardedPolicy workers={self.workers} "
            f"mode={self.mode!r}>"
        )


def make_policy(name: str, workers: int = 4) -> ExecutionPolicy:
    """Build a policy from its CLI/scenario name.

    Args:
        name: one of :data:`POLICY_NAMES`.
        workers: process count for ``parallel`` (ignored otherwise).
    """
    if name == "serial":
        return SerialPolicy()
    if name == "parallel":
        return ParallelShardedPolicy(workers=workers)
    raise ValueError(
        f"unknown execution policy {name!r}; expected one of {POLICY_NAMES}"
    )
