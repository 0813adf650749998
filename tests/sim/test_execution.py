"""Tests for the pluggable execution policies.

The acceptance bar of the policy seam: a SerialPolicy run is
bit-identical to the pre-policy engine (golden numbers recorded from
the seed code on the same fixed-seed scenarios), and the shard
partition/capture/merge contract of ParallelShardedPolicy, on worker
processes, reproduces the same per-node byte totals, message counts,
drop decisions and operation counts at any shard count.
"""

import functools

import pytest

from repro.core import PagSession
from repro.scenarios.spec import ScenarioSpec
from repro.sim.engine import Simulator
from repro.sim.execution import (
    ParallelShardedPolicy,
    SerialPolicy,
    make_policy,
)
from repro.sim.faults import LossFault
from repro.sim.network import Network
from repro.sim.rng import SeedSequence
from repro.sim.trace import TraceRecorder

# Golden numbers measured on the pre-refactor engine (PR 1) for the
# fixed-seed fig7-style scenario: PagConfig.for_system_size(n, 300 Kbps),
# n nodes, r rounds.  The engine is a deterministic function of the
# seed, so these are exact integers, not tolerances.
GOLDEN = {
    (20, 8): {
        "messages_sent": 6103,
        "hashes": 45710,
        "total_bytes": 22239598,
        "node_bytes": {0: 1066593, 1: 1033468, 19: 1051146},
    },
    (30, 10): {
        "messages_sent": 11514,
        "hashes": 104836,
        "total_bytes": 61530104,
        "node_bytes": {0: 1356657, 1: 2578421, 29: 2390562},
    },
}


def _run(
    n, rounds, policy=None, drop_rule=None, tap=None, hook=None, rate=300.0
):
    """A fig7-style session built from a spec (worker replicas rebuild
    from it), run to completion and synced."""
    spec = ScenarioSpec(
        name="execution",
        nodes=n,
        rounds=rounds,
        warmup_rounds=1,
        stream_rate_kbps=rate,
    )
    session = spec.build(policy)
    network = session.simulator.network
    if drop_rule is not None:
        network.add_drop_rule(drop_rule)
    if tap is not None:
        network.add_tap(tap)
    if hook is not None:
        session.simulator.add_round_hook(lambda r: hook(session, r))
    try:
        session.run(rounds)
        if policy is not None:
            policy.sync_session(session)
    finally:
        if policy is not None:
            policy.close()
    totals = network.meter.snapshot()["totals"]
    per_node = {
        nid: totals[nid][0] + totals[nid][1]
        for nid in [0] + sorted(session.nodes)
    }
    return session, per_node


@pytest.mark.parametrize("n,rounds", sorted(GOLDEN))
def test_serial_policy_matches_pre_refactor_goldens(n, rounds):
    session, per_node = _run(n, rounds, SerialPolicy())
    golden = GOLDEN[(n, rounds)]
    assert session.simulator.network.messages_sent == golden["messages_sent"]
    assert session.context.hasher.operations == golden["hashes"]
    assert sum(per_node.values()) == golden["total_bytes"]
    for node, expected in golden["node_bytes"].items():
        assert per_node[node] == expected


@functools.lru_cache(maxsize=None)
def _serial_bytes_20_8():
    return _run(20, 8, SerialPolicy())[1]


@pytest.mark.parametrize("shards", [1, 3, 4, 7])
def test_sharded_policy_matches_serial_bytes(shards):
    session, sharded = _run(20, 8, ParallelShardedPolicy(workers=shards))
    assert sharded == _serial_bytes_20_8()
    golden = GOLDEN[(20, 8)]
    assert session.simulator.network.messages_sent == golden["messages_sent"]
    assert session.context.hasher.operations == golden["hashes"]


def test_sharded_policy_with_stateful_drop_rule_matches_serial():
    """Drop rules consume their RNG once per send in send order; the
    shard merge must replay that exact order."""

    def loss():
        return LossFault(probability=0.15, kinds=("ack", "serve")).build(
            SeedSequence(11).stream("loss"), Network()
        )

    serial_rule = loss()
    _, serial = _run(20, 8, SerialPolicy(), drop_rule=serial_rule)
    sharded_rule = loss()
    session, sharded = _run(
        20, 8, ParallelShardedPolicy(workers=4), drop_rule=sharded_rule
    )
    assert serial_rule.hits > 0
    assert sharded_rule.hits == serial_rule.hits
    assert sharded == serial
    assert session.all_verdicts() == []


def test_sharded_policy_taps_see_all_traffic_in_order():
    serial, sharded = TraceRecorder(), TraceRecorder()
    _run(16, 6, SerialPolicy(), tap=serial)
    _run(16, 6, ParallelShardedPolicy(workers=3), tap=sharded)
    assert len(serial) == len(sharded)
    assert serial.kinds() == sharded.kinds()
    assert serial.total_bytes() == sharded.total_bytes()


def test_churn_mid_round_with_inflight_traffic_under_sharding():
    """A node removed by a round hook leaves in-flight traffic behind;
    the next rounds' sharded drains must drop deliveries to it silently
    while drop rules keep firing for everyone else."""

    def run(policy):
        rule = LossFault(probability=0.1, kinds=("ack",)).build(
            SeedSequence(23).stream("loss"), Network()
        )

        def churn_hook(session, round_no):
            if round_no == 4:
                session.remove_node(7)

        session, _ = _run(
            16, 10, policy, drop_rule=rule, hook=churn_hook, rate=150.0
        )
        return session, rule

    serial_session, serial_rule = run(SerialPolicy())
    sharded_session, sharded_rule = run(ParallelShardedPolicy(workers=5))
    assert 7 not in sharded_session.nodes
    assert serial_rule.hits > 0
    assert sharded_rule.hits == serial_rule.hits
    # The departed node is convicted as unresponsive, nobody else is.
    for session in (serial_session, sharded_session):
        convicted = session.convicted_nodes()
        assert convicted <= {7}
    assert (
        sharded_session.simulator.network.messages_sent
        == serial_session.simulator.network.messages_sent
    )


def test_remove_node_unknown_id_raises_value_error():
    sim = Simulator(network=Network())
    with pytest.raises(ValueError, match="unknown node id 42"):
        sim.remove_node(42)


def test_session_remove_node_unknown_id_raises_value_error():
    session = PagSession.create(8)
    with pytest.raises(ValueError, match="unknown node id 99"):
        session.remove_node(99)


def test_make_policy():
    assert isinstance(make_policy("serial"), SerialPolicy)
    parallel = make_policy("parallel", workers=6)
    assert isinstance(parallel, ParallelShardedPolicy)
    assert (parallel.workers, parallel.mode) == (6, "unstarted")
    with pytest.raises(ValueError, match="unknown execution policy"):
        make_policy("quantum")
    with pytest.raises(ValueError, match="worker count"):
        ParallelShardedPolicy(workers=0)


def test_capture_guards():
    network = Network()
    network.begin_capture()
    with pytest.raises(RuntimeError, match="already active"):
        network.begin_capture()
    with pytest.raises(RuntimeError, match="while a capture is active"):
        network.merge_remote([], [])
    network.release_capture()
    with pytest.raises(RuntimeError, match="no send capture"):
        network.release_capture()
    network.merge_remote([], [])  # an empty barrier merges cleanly
    assert network.pending() == 0
