"""Unit tests for the worker-backed parallel execution policy.

The differential suite (tests/differential/) proves bit-identity across
the whole registry; these tests pin the policy's mechanics — backend
selection, the named errors (no bootstrap, unpicklable bootstrap, a dead
worker), membership guards, the metadata merge guard, reporting sync
idempotence, and the golden numbers under real worker processes.
"""

import contextlib
import os
import signal

import pytest

from repro.core import PagSession
from repro.scenarios.spec import ScenarioSpec
from repro.sim.execution import (
    ParallelShardedPolicy,
    SerialPolicy,
    make_policy,
)
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
    policy = ParallelShardedPolicy(workers=2)
    spec = _spec(n=10, rounds=4)
    session = spec.build(policy)
    try:
        session.run(1)
        (pid,) = policy._handles[0]._executor._processes
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(
            RuntimeError,
            match=r"shard 0 died during the 'begin' phase of round 1",
        ):
            session.run(1)
    finally:
        policy.close()
    policy.close()  # idempotent
    assert spec.run(policy).messages_sent > 0  # and reusable


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
    meter = reference.session.simulator.network.meter
    assert meter.node_bytes(7, 0, 2, direction="up") == 0
    assert meter.node_bytes(7, 3, 5, direction="up") > 0


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
    network = Network()
    network.add_tap(lambda message, size: None)
    with pytest.raises(RuntimeError, match="metadata-only merge"):
        network.merge_remote(
            [RemoteSend((1, 0, 0), sender=1, recipient=2, size=10)]
        )
    network = Network()
    network.add_drop_rule(lambda message: False)
    with pytest.raises(RuntimeError, match="metadata-only merge"):
        network.merge_remote([])


def test_merge_remote_meters_and_queues_in_order():
    network = Network()
    network.current_round = 3
    sends = [
        RemoteSend((1, 0, 0), sender=1, recipient=2, size=100),
        RemoteSend((1, 0, 1), sender=2, recipient=1, size=50),
    ]
    network.merge_remote(sends)
    assert network.messages_sent == 2
    assert network.pending() == 2
    assert network.pop() is sends[0]
    assert network.meter.node_bytes(1) == 150
    assert network.meter.node_series(1, "up") == [0, 0, 0, 100]


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
