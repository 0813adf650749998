"""Unit tests for the worker-backed parallel execution policy.

The differential suite (tests/differential/) proves bit-identity across
the whole registry; these tests pin the policy's mechanics — backend
selection, the named errors (no bootstrap, unpicklable bootstrap, a dead
worker), membership guards, the barrier merge and its guard, reporting sync
idempotence, and the golden numbers under real worker processes.
"""

import contextlib
import gc
import os
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from repro.baselines import ActingSession
from repro.core import PagSession
from repro.scenarios import get_scenario
from repro.scenarios.spec import ChurnEvent, ScenarioSpec
from repro.sim.execution import (
    ParallelShardedPolicy,
    SerialPolicy,
    _RemoteTraceback,
    _ReplicaWorker,
    make_policy,
)
from repro.sim.message import Message
from repro.sim.network import Network, RemoteSend

# Golden numbers measured on the pre-refactor engine (PR 1); the
# parallel backend must land on them exactly (see tests/sim/
# test_execution.py for the serial assertions on the same run).
GOLDEN_20_8 = {"messages_sent": 6103, "hashes": 45710}


def _spec(n=20, rounds=8):
    return ScenarioSpec(
        name="parallel-golden",
        nodes=n,
        rounds=rounds,
        warmup_rounds=2,
        stream_rate_kbps=300.0,
    )


@contextlib.contextmanager
def _synced_run(spec, workers=2, backend="serialized"):
    """``spec`` run to completion on replicas and synced back; yields
    ``(policy, session)`` and closes the policy on exit."""
    policy = ParallelShardedPolicy(workers=workers, backend=backend)
    session = spec.build(policy)
    try:
        session.run(spec.rounds)
        policy.sync_session(session)
        yield policy, session
    finally:
        policy.close()


def _cache_buckets(hasher):
    return (
        hasher.operations,
        hasher.memo_hits,
        hasher.fixed_base_hits,
        hasher.cold_powmods,
        hasher.batched_lifts,
        hasher.shared_ladder_seeds,
    )


@contextlib.contextmanager
def _within(seconds):
    """Fail, instead of hanging the suite, if the body outlasts
    ``seconds``."""

    def expired(signum, frame):
        raise AssertionError(f"still blocked after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_reaped(pids):
    """No worker left behind: every pid is gone from the process table
    (a zombie would still answer signal 0)."""
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@contextlib.contextmanager
def _two_workers(n=10):
    """Two worker processes one round into ``_spec(n, 4)``: yields
    ``(policy, session, pids)``.  Whatever the body did to them, on the
    way out close() returns within ten seconds, is idempotent, leaves
    no worker behind, and the policy runs a spec again."""
    policy = ParallelShardedPolicy(workers=2)
    spec = _spec(n=n, rounds=4)
    session = spec.build(policy)
    try:
        session.run(1)
        pids = policy.worker_pids()
        assert len(pids) == 2
        yield policy, session, pids
    finally:
        with _within(10):
            policy.close()
    _assert_reaped(pids)
    policy.close()
    assert policy.worker_pids() == []
    assert spec.run(policy).messages_sent > 0


@pytest.mark.parametrize("backend", ["serialized", "process"])
def test_parallel_policy_matches_pre_refactor_goldens(backend):
    with _synced_run(_spec(), workers=3, backend=backend) as (
        policy, session
    ):
        assert (
            session.simulator.network.messages_sent
            == GOLDEN_20_8["messages_sent"]
        )
        assert session.context.hasher.operations == GOLDEN_20_8["hashes"]
        assert policy.stats.barriers > 0
        assert policy.stats.busy_cpu_seconds > 0
        assert policy.stats.critical_cpu_seconds <= (
            policy.stats.busy_cpu_seconds + 1e-9
        )


def test_sync_session_is_idempotent():
    with _synced_run(_spec(n=10, rounds=4)) as (policy, session):
        hashes = session.context.hasher.operations
        verdicts = session.all_verdicts()
        policy.sync_session(session)
        assert session.context.hasher.operations == hashes
        assert session.all_verdicts() == verdicts


def test_without_bootstrap_raises_naming_scenario_build():
    """A hand-assembled session has no spec to rebuild replicas from;
    the first round says so instead of quietly running in-process."""
    policy = ParallelShardedPolicy(workers=4)
    session = PagSession.create(12, execution_policy=policy)
    with pytest.raises(RuntimeError, match=r"ScenarioSpec\.build"):
        session.run(1)
    assert policy.mode == "unstarted"
    policy.sync_session(session)  # nothing started: a no-op
    policy.close()


def test_dead_worker_is_a_named_error_not_a_hang():
    """A worker process killed between two rounds: the next barrier
    raises promptly, naming shard, phase and round, and close() still
    works."""
    with _two_workers() as (policy, session, pids):
        os.kill(pids[0], signal.SIGKILL)
        with _within(5), pytest.raises(
            RuntimeError,
            match=r"shard 0 died during the 'begin' phase of round 1",
        ):
            session.run(1)


def test_worker_killed_mid_barrier_is_a_named_error_not_a_hang():
    """Shard 0 dies while the parent is blocked waiting for its reply
    and shard 1, which under ``fork`` holds a copy of the parent's end
    of shard 0's pipe, is alive and has answered: the wait watches the
    process as well as the pipe, so the barrier raises, and close()
    takes shard 1's unread reply before it reaps both."""
    with _two_workers() as (policy, session, pids):
        os.kill(pids[0], signal.SIGSTOP)  # will not answer round 1
        killer = threading.Timer(0.3, os.kill, (pids[0], signal.SIGKILL))
        killer.start()
        started = time.monotonic()
        with _within(5), pytest.raises(
            RuntimeError,
            match=r"shard 0 died during the 'begin' phase of round 1",
        ):
            session.run(1)
        assert time.monotonic() - started >= 0.25  # it was blocked
        killer.join()


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda policy, session: policy.sync_session(session),
         r"shard 1 died during sync_session"),
        (lambda policy, session: session.remove_node(3),
         r"shard 1 died during notify_remove of node 3"),
    ],
    ids=["sync_session", "notify_remove"],
)
def test_every_call_names_a_dead_worker(call, named):
    """Not only the barrier: reporting sync and membership calls turn a
    dead worker into the same ``RuntimeError`` naming the shard and the
    operation, never a bare ``EOFError`` or ``BrokenPipeError``."""
    with _two_workers() as (policy, session, pids):
        os.kill(pids[1], signal.SIGKILL)
        with _within(5), pytest.raises(RuntimeError, match=named):
            call(policy, session)


def test_replica_exception_keeps_its_type_and_remote_traceback():
    """What a replica raises arrives in the parent as the same type,
    the traceback formatted in the worker chained as its cause, and
    the worker lives on."""
    from repro.sim.node import SimNode

    with _two_workers(n=8) as (policy, session, pids):
        with pytest.raises(ValueError, match="cannot admit") as raised:
            session.simulator.add_node(
                SimNode(99, session.simulator.network)
            )
        remote = str(raised.value.__cause__)
        assert "Traceback (most recent call last)" in remote
        assert "admit_node" in remote and "ValueError" in remote
        session.run(1)  # shard 1 still answers
        assert policy.worker_pids() == pids
        # An error reply nobody read must not keep close() (on the way
        # out of the fixture) from reaching the stop request.
        policy._handles[1].submit("admit", 99)


class TwoArgError(Exception):
    """Pickles, but its unpickling calls ``TwoArgError(message)``."""

    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")


class LockedError(Exception):
    """Does not pickle at all: its state holds a lock."""

    def __init__(self):
        super().__init__("holding a lock")
        self.lock = threading.Lock()


@pytest.mark.parametrize(
    "exc, named",
    [
        (TwoArgError(7, "bad shard state"), "TwoArgError: code 7: bad shard"),
        (LockedError(), "LockedError: holding a lock"),
    ],
    ids=["unpickles-wrong", "unpicklable"],
)
def test_replica_exception_that_does_not_pickle_is_named(
    monkeypatch, exc, named
):
    """An exception that would not survive the pipe, raised by shard 0
    mid-round, arrives as a ``RuntimeError`` naming its type and
    message, the worker's traceback still its cause.  The worker lives
    on, and its error reply ended the round's collection pause."""
    run_phase = _ReplicaWorker.run_phase

    def exploding_run_phase(self, phase, round_no, *args):
        if self.shard == 0 and phase == "deliver" and round_no == 1:
            raise exc
        return run_phase(self, phase, round_no, *args)

    def collector_state(self):
        return gc.isenabled()

    monkeypatch.setattr(_ReplicaWorker, "run_phase", exploding_run_phase)
    monkeypatch.setattr(
        _ReplicaWorker, "collector_state", collector_state, raising=False
    )
    with _two_workers(n=8) as (policy, session, pids):
        with pytest.raises(RuntimeError, match=named) as raised:
            session.run(1)
        assert isinstance(raised.value.__cause__, _RemoteTraceback)
        remote = str(raised.value.__cause__)
        assert "Traceback (most recent call last)" in remote
        assert "in exploding_run_phase" in remote
        assert gc.isenabled()
        assert policy._handles[0].call("the probe", "collector_state")
        assert policy.worker_pids() == pids
        monkeypatch.undo()  # the fixture's closing run forks clean workers


def test_adding_adhoc_nodes_after_start_is_rejected():
    """Only spec-declared arrivals can join a running parallel session:
    an arbitrary add fails inside the replica (no pending instance to
    admit) instead of silently diverging."""
    policy = ParallelShardedPolicy(workers=2, backend="serialized")
    spec = _spec(n=8, rounds=4)
    session = spec.build(policy)
    try:
        session.run(1)
        from repro.sim.node import SimNode

        with pytest.raises(ValueError, match="cannot admit"):
            session.simulator.add_node(
                SimNode(99, session.simulator.network)
            )
    finally:
        policy.close()


def test_acting_churn_goes_through_the_session_on_every_replica(
    monkeypatch,
):
    """An AcTinG spec's churn entry leaves through
    ``ActingSession.remove_node`` — on the parent, and under the
    ``serialized`` backend on the replica that owns the node too — and
    both placements meter the same bytes."""
    spec = ScenarioSpec(
        name="acting-churn",
        protocol="acting",
        nodes=16,
        rounds=8,
        warmup_rounds=2,
        churn=(ChurnEvent(after_round=3, node_id=6),),
    )
    removed = []
    remove_node = ActingSession.remove_node

    def spy(session, node_id):
        removed.append(node_id)
        remove_node(session, node_id)

    monkeypatch.setattr(ActingSession, "remove_node", spy)
    serial = spec.run()
    assert removed == [6]
    policy = ParallelShardedPolicy(workers=2, backend="serialized")
    parallel = spec.run(policy)
    assert removed == [6, 6, 6]
    assert policy.stats.removed_nodes == 1
    for result in (serial, parallel):
        assert 6 not in result.session.nodes
        assert 6 not in result.node_kbps
    assert (
        parallel.session.simulator.network.meter.snapshot()
        == serial.session.simulator.network.meter.snapshot()
    )
    assert parallel.node_kbps == serial.node_kbps


@pytest.mark.parametrize("backend", ["serialized", "process"])
def test_spec_declared_arrivals_are_mirrored_onto_replicas(backend):
    """A JoinEvent admits the same node on the parent and its owning
    worker replica; the run stays bit-identical to serial."""
    from repro.scenarios.spec import JoinEvent

    spec = ScenarioSpec(
        name="parallel-join",
        nodes=12,
        rounds=6,
        warmup_rounds=2,
        arrivals=(JoinEvent(after_round=2, node_id=7),),
    )
    reference = spec.run()
    policy = ParallelShardedPolicy(workers=3, backend=backend)
    result = spec.run(policy)
    assert policy.stats.admitted_nodes == 1
    assert result.node_kbps == reference.node_kbps
    assert result.messages_sent == reference.messages_sent
    assert result.total_bytes == reference.total_bytes
    assert result.verdicts == reference.verdicts
    # The arrival is absent before its round and active after it.
    uploads = reference.session.simulator.network.meter.up_series[7]
    assert sum(uploads[:3]) == 0
    assert sum(uploads[3:6]) > 0


def test_policy_is_reusable_after_close():
    policy = ParallelShardedPolicy(workers=2, backend="serialized")
    results = []
    for _ in range(2):
        spec = _spec(n=10, rounds=4)
        results.append(spec.run(policy).messages_sent)
    assert results[0] == results[1]


def test_make_policy_parallel():
    assert make_policy("parallel").workers == 4
    with pytest.raises(ValueError, match="unknown parallel backend"):
        ParallelShardedPolicy(backend="gpu")


def test_explicit_process_backend_with_unpicklable_bootstrap_raises():
    policy = ParallelShardedPolicy(workers=2, backend="process")

    class Unpicklable:
        def __call__(self):  # pragma: no cover - never built
            raise AssertionError

        def __reduce__(self):
            raise TypeError("cannot pickle this bootstrap")

    policy._bootstrap = Unpicklable()
    with pytest.raises(RuntimeError, match="process backend requested"):
        policy._ensure_started()
    policy.close()


def test_merge_remote_refuses_taps_and_drop_rules():
    """A worker-held payload cannot be observed or filtered."""
    held = [((1, 0, 0), 1, 2, 10, None)]
    network = Network()
    network.add_tap(lambda message, size: None)
    with pytest.raises(RuntimeError, match="worker-held send"):
        network.merge_remote(held, [])
    network = Network()
    network.add_drop_rule(lambda message: False)
    with pytest.raises(RuntimeError, match="worker-held send"):
        network.merge_remote(held, [])
    network.merge_remote([], [])  # nothing to observe: a valid merge


def test_merge_remote_meters_and_queues_in_order():
    network = Network()
    network.current_round = 3
    rows = [(1, 100, 1, 50, 1), (2, 50, 1, 100, 1)]
    network.merge_remote(
        [((1, 0, 0), 1, 2, 100, None), ((1, 0, 1), 2, 1, 50, None)], rows
    )
    assert network.messages_sent == 2
    assert network.pending() == 2
    first = network.pop()
    assert isinstance(first, RemoteSend)
    assert first.key == (1, 0, 0)
    assert (first.sender, first.recipient, first.size) == (1, 2, 100)
    assert network.meter.snapshot()["totals"][1] == (100, 50, 1, 1)
    assert network.meter.up_series[1] == [0, 0, 0, 100]
    # Parent-held payloads take the send path: rules, then taps, then
    # the queue, in merged order; the rows meter dropped sends too.
    seen = []
    network = Network()
    network.current_round = 3
    network.add_tap(
        SimpleNamespace(observe=lambda *observed: seen.append(observed))
    )
    network.add_drop_rule(lambda message: message.recipient == 9)
    kept = Message(sender=1, recipient=2, round_no=3)
    dropped = Message(sender=1, recipient=9, round_no=3)
    network.merge_remote(
        [((1, 0, 0), 1, 9, 40, dropped), ((1, 1, 0), 1, 2, 60, kept)],
        [(1, 100, 2, 0, 0), (2, 0, 0, 60, 1), (9, 0, 0, 40, 1)],
    )
    assert (network.messages_sent, network.messages_dropped) == (2, 1)
    assert seen == [(kept, 60)]
    assert network.pop() is kept and network.pending() == 0
    assert network.meter.up_series[1] == [0, 0, 0, 100]


def test_stats_expose_shard_balance():
    policy = ParallelShardedPolicy(workers=2, backend="serialized")
    spec = _spec(n=10, rounds=4)
    spec.run(policy)
    stats = policy.stats
    assert set(stats.shard_cpu_seconds) == {0, 1}
    assert stats.imbalance() >= 1.0
    assert stats.wall_seconds >= stats.critical_cpu_seconds - 1e-9


def test_sync_reconciles_cache_hit_rates():
    """Satellite regression: PR 3's reporting sync grafts summed worker
    crypto-counter deltas onto the parent, so the hasher's cache buckets
    must travel too — otherwise ``cache_stats()`` divides parent-local
    hits by a denominator missing the grafted calls."""
    with _synced_run(_spec()) as (_, session):
        hasher = session.context.hasher
        stats = hasher.cache_stats()
        calls = (
            stats["memo_hits"]
            + stats["fixed_base_hits"]
            + stats["cold_powmods"]
            + stats["batched_lifts"]
        )
        assert calls == hasher.operations  # denominator covers the run
        assert 0.0 <= stats["memo_hit_rate"] <= 1.0
        assert 0.0 <= stats["fixed_base_hit_rate"] <= 1.0
        # The run did real hashing through the workers, so the grafted
        # buckets dominate the parent's setup-time tallies.
        assert calls == GOLDEN_20_8["hashes"]


def test_sync_cache_graft_is_idempotent():
    with _synced_run(_spec()) as (policy, session):
        first = _cache_buckets(session.context.hasher)
        policy.sync_session(session)
        assert _cache_buckets(session.context.hasher) == first


def test_shared_ladder_table_is_adopted_and_matches_serial():
    """The ladder table shipped to the replicas is a pure CPU saving:
    they answer fixed-base misses from it, and bytes, verdicts and
    operation counts stay those of the serial run."""
    spec = _spec()
    serial = spec.build(SerialPolicy())
    serial.run(spec.rounds)
    with _synced_run(spec, workers=3) as (policy, session):
        table = policy._bootstrap.shared_ladders
        assert table is not None and len(table) > 0
        assert (
            session.simulator.network.meter.snapshot()
            == serial.simulator.network.meter.snapshot()
        )
        assert session.all_verdicts() == serial.all_verdicts()
        assert session.crypto_report() == serial.crypto_report()
        assert session.context.hasher.operations == GOLDEN_20_8["hashes"]
        # The grafted seed counter proves the table was consulted.
        assert session.context.hasher.shared_ladder_seeds > 0


@pytest.mark.slow
def test_fig9_at_the_deployment_size_meters_what_serial_meters():
    """The paper's 432 nodes on three worker processes: the parent's
    meter, built from the workers' per-node rows (about forty barriers,
    every node touched in each), is the serial meter cell for cell (so
    digest for digest), with the serial message count."""

    def outcome(**placement):
        spec = get_scenario("fig9", nodes=432, rounds=6, **placement)
        network = spec.run().session.simulator.network
        return network.messages_sent, network.meter.snapshot()

    serial = outcome()
    assert serial[0] == 100980
    assert outcome(policy="parallel", workers=3) == serial
