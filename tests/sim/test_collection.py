"""A round is one collection epoch (``repro.sim.collection``).

The engine, a parallel replica and a daemon hold automatic cyclic
collection off for one round and let the interpreter run the deferred
collection at the round's barrier.  Two things make that safe, and both
are checked here rather than assumed: a round leaves no cyclic garbage
that a mid-round collection could have freed early (the audit), and
every placement restores the collector's state on every way out (the
discipline tests; the fleet's are in ``tests/net/test_daemon.py``).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.scenarios import get_scenario, scenario_names
from repro.sim import collection
from repro.sim.engine import Simulator
from repro.sim.execution import ParallelShardedPolicy, _ReplicaWorker
from repro.sim.network import Network
from repro.sim.node import SimNode

from tests.sim.test_engine import Ping, PingNode


@pytest.fixture(autouse=True)
def collector_on():
    """Automatic collection on for each test, as it was before after it
    (whatever the test left it as, or failed with)."""
    was = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was else gc.disable)()


# ---------------------------------------------------------------------------
# The audit: what does a round leave to the cyclic collector?
# ---------------------------------------------------------------------------


def _audit_spec(name):
    """The registry scenario at a reduced size: at most 24 nodes and 8
    rounds (more where a departure or a rate step needs them),
    population 2,000."""
    spec = get_scenario(name)
    rounds = max(
        [min(spec.rounds, 8)]
        + [event.after_round + 2 for event in spec.churn]
        + [step.from_round + 1 for step in spec.rate_schedule]
    )
    overrides = dict(
        nodes=min(spec.nodes, 24),
        rounds=rounds,
        warmup_rounds=min(spec.warmup_rounds, rounds - 1),
    )
    if spec.population:
        overrides["population"] = 2_000
    return get_scenario(name, **overrides)


@pytest.mark.parametrize("name", scenario_names())
def test_a_round_leaves_cyclic_garbage_only_when_a_node_departs(name):
    """Automatic collection off, one explicit collection after every
    round: it finds nothing, except the round a node departs, where it
    finds that node.

    A departed PAG node is a reference cycle by construction:
    ``PagNode._handlers`` holds the node's bound methods, and its
    ``MonitorEngine`` holds ``node.send``.  The cycle is left as it is
    (``adversary/active.py`` overrides ``send``, so the engine must
    reach it through the node), and it is the only garbage that has to
    wait for a barrier: everything else a round allocates is freed by
    reference counting the moment it is dead.
    """
    spec = _audit_spec(name)
    departures = {}
    for event in spec.churn:
        departures.setdefault(event.after_round, []).append(event.node_id)
    policy = spec.make_policy()
    gc.disable()
    session = None
    try:
        session = spec.build(policy)
        simulator = session.simulator
        gc.collect()  # what building left is not a round's
        departing = {
            node_id: weakref.ref(simulator.nodes[node_id])
            for ids in departures.values()
            for node_id in ids
        }
        for round_no in range(spec.rounds):
            simulator.run_round()
            gone = departures.get(round_no, [])
            for node_id in gone:
                assert departing[node_id]() is not None
            found = gc.collect()
            if gone:
                assert found > 0
                for node_id in gone:
                    assert departing[node_id]() is None, (
                        f"{name}: departed node {node_id} outlived the "
                        f"collection after round {round_no}"
                    )
            else:
                assert found == 0, (
                    f"{name}: {found} objects of cyclic garbage after "
                    f"round {round_no}, which no node left"
                )
        assert gc.garbage == []
    finally:
        if policy is not None:
            policy.close()
        for plane in getattr(session and session.simulator, "planes", ()):
            plane.close()


# ---------------------------------------------------------------------------
# The helper's rules
# ---------------------------------------------------------------------------


def test_interleaved_pauses_restore_only_what_each_changed():
    for first_out in (True, False):
        a = collection.pause()
        b = collection.pause()
        assert (a, b) == (True, False)
        assert not gc.isenabled()
        for paused in ((a, b) if first_out else (b, a)):
            collection.resume(paused)
        assert gc.isenabled()


def test_a_caller_that_disabled_collection_keeps_it_disabled():
    gc.disable()
    with collection.round_epoch():
        assert not gc.isenabled()
    assert not gc.isenabled()
    collection.release_inherited()  # no pause of ours holds it
    assert not gc.isenabled()


def test_the_deferred_collection_runs_at_the_barrier():
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    try:
        with collection.round_epoch():
            kept = [[index] for index in range(20_000)]
            assert starts == []  # 20,000 tracked allocations, no pass
        assert starts  # the interpreter ran it on the way out
    finally:
        gc.callbacks.remove(count)
    assert len(kept) == 20_000


# ---------------------------------------------------------------------------
# Engine: Simulator.run_round
# ---------------------------------------------------------------------------


class _ProbeNode(PingNode):
    """A ping node that notes the collector's state at every delivery."""

    def __init__(self, node_id, network, peer, seen):
        super().__init__(node_id, network, peer)
        self.seen = seen

    def on_message(self, message):
        self.seen.append(gc.isenabled())
        super().on_message(message)


def _probe_sim(seen):
    network = Network()
    sim = Simulator(network=network)
    sim.add_node(_ProbeNode(0, network, 1, seen))
    sim.add_node(_ProbeNode(1, network, 0, seen))
    return sim


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_engine_round_pauses_and_restores_the_collector(enabled):
    (gc.enable if enabled else gc.disable)()
    seen = []
    _probe_sim(seen).run(2)
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


def test_engine_restores_the_collector_when_a_round_raises():
    class LoopNode(SimNode):
        def begin_round(self, round_no):
            if self.node_id == 0:
                self.send(Ping(0, 1, round_no, hops_left=1))

        def on_message(self, message):
            assert not gc.isenabled()
            self.send(Ping(self.node_id, message.sender, message.round_no, 1))

    network = Network()
    sim = Simulator(network=network)
    sim.add_node(LoopNode(0, network))
    sim.add_node(LoopNode(1, network))
    with pytest.raises(RuntimeError, match="budget"):
        sim.run_round()
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# Parallel: a forked replica, from its begin barrier through its end reply
# ---------------------------------------------------------------------------


def _spy_on_replicas(monkeypatch):
    """Patch the replica class before the workers fork: each run_phase
    notes the collector's state, and collect reports the notes plus the
    state between rounds."""
    run_phase = _ReplicaWorker.run_phase
    collect = _ReplicaWorker.collect

    def spying_run_phase(self, phase, *args, **kwargs):
        self.__dict__.setdefault("gc_seen", []).append(
            (phase, gc.isenabled())
        )
        return run_phase(self, phase, *args, **kwargs)

    def spying_collect(self):
        report = collect(self)
        report["gc_seen"] = self.__dict__.get("gc_seen", [])
        report["gc_enabled"] = gc.isenabled()
        return report

    monkeypatch.setattr(_ReplicaWorker, "run_phase", spying_run_phase)
    monkeypatch.setattr(_ReplicaWorker, "collect", spying_collect)


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_forked_replica_pauses_from_begin_through_end(monkeypatch, enabled):
    _spy_on_replicas(monkeypatch)
    spec = get_scenario("fig9", nodes=10, rounds=2, warmup_rounds=1)
    policy = ParallelShardedPolicy(workers=2)
    (gc.enable if enabled else gc.disable)()
    try:
        session = spec.build(policy)
        session.run(spec.rounds)
        reports = [
            handle.call("the probe", "collect") for handle in policy._handles
        ]
    finally:
        policy.close()
    assert gc.isenabled() is enabled
    for report in reports:
        phases = [phase for phase, _ in report["gc_seen"]]
        assert phases.count("begin") == 2 and "deliver" in phases
        assert not any(on for _, on in report["gc_seen"])
        assert report["gc_enabled"] is enabled
