"""Unit tests for the worker-backed parallel execution policy.

The differential suite (tests/differential/) proves bit-identity across
the whole registry; these tests pin the policy's mechanics — mode
resolution, the inline fallback, membership guards, the metadata merge
guard, reporting sync idempotence, and the golden numbers under real
worker pools.
"""

import pytest

from repro.core import PagConfig, PagSession
from repro.scenarios.spec import ScenarioSpec
from repro.sim.execution import (
    ParallelShardedPolicy,
    SerialPolicy,
    ShardedPolicy,
    make_policy,
)
from repro.sim.network import Network, RemoteSend

# Golden numbers measured on the pre-refactor engine (PR 1); the
# parallel backend must land on them exactly (see tests/sim/
# test_execution.py for the serial/sharded assertions on the same run).
GOLDEN_20_8 = {"messages_sent": 6103, "hashes": 45710}


def _spec(n=20, rounds=8):
    return ScenarioSpec(
        name="parallel-golden",
        nodes=n,
        rounds=rounds,
        warmup_rounds=2,
        stream_rate_kbps=300.0,
    )


@pytest.mark.parametrize("backend", ["serialized", "thread", "process"])
def test_parallel_policy_matches_pre_refactor_goldens(backend):
    policy = ParallelShardedPolicy(workers=3, backend=backend)
    spec = _spec()
    session = spec.build(policy)
    try:
        session.run(spec.rounds)
        policy.sync_session(session)
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
    finally:
        policy.close()


def test_sync_session_is_idempotent():
    policy = ParallelShardedPolicy(workers=2, backend="serialized")
    spec = _spec(n=10, rounds=4)
    session = spec.build(policy)
    try:
        session.run(spec.rounds)
        policy.sync_session(session)
        hashes = session.context.hasher.operations
        verdicts = session.all_verdicts()
        policy.sync_session(session)
        assert session.context.hasher.operations == hashes
        assert session.all_verdicts() == verdicts
    finally:
        policy.close()


def test_without_bootstrap_degrades_to_inline_sharding():
    """A hand-assembled session has no spec to rebuild replicas from;
    the policy must fall back to the in-process sharded loop and still
    match serial."""
    config = PagConfig.for_system_size(12, stream_rate_kbps=300.0)
    serial = PagSession.create(12, config=config)
    serial.run(5)
    policy = ParallelShardedPolicy(workers=4)
    session = PagSession.create(12, config=config, execution_policy=policy)
    session.run(5)
    assert policy.mode == "inline"
    assert "no scenario bootstrap" in policy.fallback_reason
    assert (
        session.simulator.network.meter.snapshot()
        == serial.simulator.network.meter.snapshot()
    )
    assert (
        session.context.hasher.operations
        == serial.context.hasher.operations
    )
    policy.sync_session(session)  # no-op in inline mode
    policy.close()


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


@pytest.mark.parametrize("backend", ["serialized", "thread", "process"])
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
    policy = make_policy("parallel", workers=6)
    assert isinstance(policy, ParallelShardedPolicy)
    assert policy.workers == 6
    # workers defaults to the shards value when not given.
    assert make_policy("parallel", shards=3).workers == 3
    assert isinstance(make_policy("serial"), SerialPolicy)
    assert isinstance(make_policy("sharded", shards=2), ShardedPolicy)
    with pytest.raises(ValueError, match="unknown execution policy"):
        make_policy("quantum")
    with pytest.raises(ValueError, match="worker count"):
        ParallelShardedPolicy(workers=0)
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


def test_auto_backend_falls_back_to_threads_on_unpicklable_bootstrap():
    policy = ParallelShardedPolicy(workers=2, backend="auto")

    class UnpicklableSpecLike:
        def __call__(self):
            return ScenarioSpec(
                name="fallback", nodes=6, rounds=3, warmup_rounds=1
            ).build()

        def __reduce__(self):
            raise TypeError("cannot pickle this bootstrap")

    policy._bootstrap = UnpicklableSpecLike()
    assert policy._ensure_started()
    assert policy.mode == "thread"
    assert "not picklable" in policy.fallback_reason
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
    spec = _spec()
    policy = ParallelShardedPolicy(workers=2, backend="thread")
    session = spec.build(policy)
    try:
        session.run(spec.rounds)
        policy.sync_session(session)
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
    finally:
        policy.close()


def test_sync_cache_graft_is_idempotent():
    spec = _spec()
    policy = ParallelShardedPolicy(workers=2, backend="thread")
    session = spec.build(policy)
    try:
        session.run(spec.rounds)
        policy.sync_session(session)
        hasher = session.context.hasher
        first = (
            hasher.operations,
            hasher.memo_hits,
            hasher.fixed_base_hits,
            hasher.cold_powmods,
            hasher.batched_lifts,
            hasher.shared_ladder_seeds,
        )
        policy.sync_session(session)
        assert (
            hasher.operations,
            hasher.memo_hits,
            hasher.fixed_base_hits,
            hasher.cold_powmods,
            hasher.batched_lifts,
            hasher.shared_ladder_seeds,
        ) == first
    finally:
        policy.close()


def test_shared_ladder_table_is_adopted_and_matches_serial():
    """The ladder table shipped to the replicas is a pure CPU saving:
    they answer fixed-base misses from it, and bytes, verdicts and
    operation counts stay those of the serial run."""
    spec = _spec()
    serial = spec.build(SerialPolicy())
    serial.run(spec.rounds)
    policy = ParallelShardedPolicy(workers=3, backend="thread")
    session = spec.build(policy)
    try:
        table = policy._bootstrap.shared_ladders
        assert table is not None and len(table) > 0
        session.run(spec.rounds)
        policy.sync_session(session)
        assert (
            session.simulator.network.meter.snapshot()
            == serial.simulator.network.meter.snapshot()
        )
        assert session.all_verdicts() == serial.all_verdicts()
        assert session.crypto_report() == serial.crypto_report()
        assert session.context.hasher.operations == GOLDEN_20_8["hashes"]
        # The grafted seed counter proves the table was consulted.
        assert session.context.hasher.shared_ladder_seeds > 0
    finally:
        policy.close()
