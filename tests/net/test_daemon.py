"""Daemon runtime: coordinated multi-shard sessions vs the simulator.

The tentpole acceptance check in miniature: a fleet of in-process
daemons over the loopback transport must reach exactly the verdicts of
a serial simulator run of the same spec, with fm>1 attestation pairs
travelling as signed ``AttestationRelayBatch`` frames.  Plus the spec
hand-off plumbing: canonical JSON round-trip, digesting, shard
ownership arithmetic, and the unsupported-feature rejections.
"""

import asyncio
import gc
import json

import pytest

from repro.net import wire
from repro.net.daemon import (
    DaemonError,
    NodeDaemon,
    SessionCoordinator,
    owned_node_ids,
    recv_message,
    run_coordinated_session,
    send_message,
    spec_digest,
    validate_daemon_spec,
)
from repro.net.transport import connect, listen, reset_memory_transport
from repro.scenarios import get_scenario
from repro.scenarios.spec import ScenarioSpec

from tests.differential.harness import record_scenario, small_spec


def _serial_verdicts(spec):
    """(node, reason, exchange_round) triples — the verdict identity.

    ``detected_by`` is excluded: when several monitors of a node all
    convict it, the session-level dedup keeps one representative, and
    *which* monitor that is depends on merge order (shard layout), not
    on what was detected.
    """
    record = record_scenario(spec, None, trace=False)
    return sorted({v[:3] for v in record.verdicts})


def _daemon_verdicts(result):
    return sorted({tuple(v[:3]) for v in result["verdicts"]})


# ---------------------------------------------------------------------------
# Spec hand-off
# ---------------------------------------------------------------------------


def _handshake_bytes(spec):
    """The coordinator's canonical spec bytes."""
    return json.dumps(spec.to_json(), sort_keys=True).encode()


def test_spec_json_round_trip_is_exact():
    spec = small_spec("selfish")
    data = _handshake_bytes(spec)
    rebuilt = ScenarioSpec.from_json(json.loads(data))
    assert rebuilt == spec
    assert _handshake_bytes(rebuilt) == data


def test_spec_digest_is_stable_and_content_sensitive():
    spec = small_spec("selfish")
    data = _handshake_bytes(spec)
    assert spec_digest(data) == spec_digest(data)
    assert len(spec_digest(data)) == 16
    other = _handshake_bytes(small_spec("selfish", seed=99))
    assert spec_digest(other) != spec_digest(data)


async def _join_with(spec_json):
    """Send one ``JoinRequest`` carrying ``spec_json`` to a real daemon;
    its answer."""
    daemon = NodeDaemon("mem://join-probe")
    endpoint = await daemon.start()
    serving = asyncio.ensure_future(daemon.serve_forever())
    conn = await connect(endpoint)
    await send_message(conn, wire.JoinRequest(
        shard=0,
        shards=1,
        spec_json=spec_json,
        peers=(endpoint,),
    ))
    reply = await recv_message(conn)
    await conn.close()
    await asyncio.wait_for(serving, 5)
    return reply


@pytest.mark.parametrize(
    "payload, named",
    [
        (b"{not json", "invalid scenario spec"),
        (b'{"name": "x", "nodes": "ten"}', "spec.nodes"),
        (b'{"name": "x", "turbo": true}', "unknown fields ['turbo']"),
        (
            b'{"name": "x", "fault_schedule": [{"kind": "telegram"}]}',
            "unknown fault kind 'telegram'",
        ),
        (
            b'{"name": "x", "churn": [[3, 4]]}',
            "spec.churn[0]: expected an object",
        ),
    ],
    ids=["undecodable", "wrong-type", "unknown-field", "unknown-fault",
         "churn-pair"],
)
def test_malformed_spec_on_the_handshake_ends_in_join_reject(payload, named):
    reset_memory_transport()
    try:
        reply = asyncio.run(_join_with(payload))
    finally:
        reset_memory_transport()
    assert isinstance(reply, wire.JoinReject)
    assert named in reply.reason


def test_handshake_carries_simulator_tier_features_to_the_rejection():
    """Churn, arrivals and faults travel in the handshake now; the
    daemon decodes them and rejects the scenario by name."""
    reset_memory_transport()
    try:
        reply = asyncio.run(
            _join_with(_handshake_bytes(get_scenario("fault-fuzz")))
        )
    finally:
        reset_memory_transport()
    assert isinstance(reply, wire.JoinReject)
    assert "uses fault_schedule" in reply.reason


@pytest.mark.parametrize(
    "name, feature",
    [
        ("churn", "churn"),
        ("fig7-acting", "protocol"),
        ("fault-fuzz", "fault_schedule"),
        ("fig9-1m", "population"),
    ],
)
def test_unsupported_scenarios_are_rejected(name, feature):
    spec = get_scenario(name)
    with pytest.raises(DaemonError):
        validate_daemon_spec(spec)


def test_owned_node_ids_partition_the_membership():
    ids = list(range(100, 117))
    shards = 3
    owned = [owned_node_ids(ids, shard, shards) for shard in range(shards)]
    assert sorted(sum(owned, [])) == sorted(ids)
    assert all(
        not set(a) & set(b)
        for i, a in enumerate(owned)
        for b in owned[i + 1:]
    )


# ---------------------------------------------------------------------------
# Coordinated sessions over loopback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded_session_matches_serial_verdicts(shards):
    spec = small_spec("selfish")
    serial = _serial_verdicts(spec)
    assert serial, "the selfish spec must convict its free-rider"
    result = asyncio.run(
        run_coordinated_session(spec, shards=shards, scheme="mem")
    )
    assert _daemon_verdicts(result) == serial
    assert result["shards"] == shards
    assert result["frames_sent"] > 0
    assert result["bytes_on_wire"] > 0
    # fm>1 pairs travelled as signed batches and folded at the monitors.
    assert result["relay_batches"] > 0
    assert result["relays_batched"] >= 2 * result["relay_batches"]


def test_clean_run_convicts_nobody():
    spec = small_spec("fig7")
    result = asyncio.run(
        run_coordinated_session(spec, shards=2, scheme="mem")
    )
    assert result["verdicts"] == []
    assert _serial_verdicts(spec) == []


def test_unix_socket_session_matches_serial_verdicts():
    """One non-loopback scheme end to end (TCP is covered by the CI
    smoke script with real separate processes)."""
    spec = small_spec("selfish")
    result = asyncio.run(
        run_coordinated_session(spec, shards=2, scheme="unix")
    )
    assert _daemon_verdicts(result) == _serial_verdicts(spec)


# ---------------------------------------------------------------------------
# A peer that dies mid-round: a named error, not a hang
# ---------------------------------------------------------------------------


async def _session_with_a_failing_peer(misbehave):
    """Shard 0 is a real daemon, shard 1 a fake that joins honestly and
    then, on the first ``RoundStart``, runs ``misbehave(peer_link)``
    and goes quiet with its control link open.

    Returns the coordinator's and the real daemon's exceptions.
    """
    spec = small_spec("fig7")
    daemon = NodeDaemon("mem://real-0")
    real = await daemon.start()
    quiet = asyncio.Event()

    async def fake_daemon(control):
        join = await recv_message(control)
        peer = await connect(join.peers[0])
        await send_message(peer, wire.PeerHello(shard=join.shard))
        await send_message(control, wire.JoinAccept(
            shard=join.shard,
            nodes_owned=0,
            spec_digest=spec_digest(join.spec_json),
        ))
        assert isinstance(await recv_message(control), wire.RoundStart)
        await misbehave(peer)
        await quiet.wait()

    fake = await listen("mem://fake-1", fake_daemon)
    serving = asyncio.ensure_future(daemon.serve_forever())
    try:
        coordinator = SessionCoordinator(spec, [real, fake.endpoint])
        outcomes = await asyncio.wait_for(
            asyncio.gather(coordinator.run(), serving, return_exceptions=True),
            5,
        )
    finally:
        quiet.set()
        await fake.close()
    return outcomes


async def _hang_up(peer):
    await peer.close()


async def _send_garbage(peer):
    await peer.send(b"\x01\x03 not a serve body")


@pytest.mark.parametrize(
    "misbehave, cause",
    [(_hang_up, "end of stream"), (_send_garbage, "Wire")],
    ids=["hangs-up", "malformed-frame"],
)
def test_dead_peer_link_is_a_named_error_not_a_hang(misbehave, cause):
    reset_memory_transport()
    try:
        coordinator_error, daemon_error = asyncio.run(
            _session_with_a_failing_peer(misbehave)
        )
    finally:
        reset_memory_transport()
    assert isinstance(daemon_error, DaemonError)
    assert "peer shard 1 closed its link in round 0 step 0" in str(
        daemon_error
    )
    assert cause in str(daemon_error)
    assert isinstance(coordinator_error, DaemonError)
    assert "hung up mid-session" in str(coordinator_error)


# ---------------------------------------------------------------------------
# A daemon's round is one collection epoch
# ---------------------------------------------------------------------------


def _note_collector_state(monkeypatch):
    """Patch every daemon to note the collector's state as each of its
    rounds starts; returns the notes."""
    seen = []
    run_round = NodeDaemon._run_round

    async def noting_run_round(self, round_no):
        seen.append(gc.isenabled())
        await run_round(self, round_no)

    monkeypatch.setattr(NodeDaemon, "_run_round", noting_run_round)
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_fleet_rounds_pause_and_restore_the_collector(monkeypatch, enabled):
    """Two daemons in one event loop interleave their pauses: whichever
    turned collection off turns it back on, and a caller's own disable
    outlives the session."""
    seen = _note_collector_state(monkeypatch)
    spec = small_spec("fig7")
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        asyncio.run(run_coordinated_session(spec, shards=2, scheme="mem"))
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert len(seen) == 2 * spec.rounds and not any(seen)
    assert after is enabled


def test_a_peer_dying_mid_round_restores_the_collector(monkeypatch):
    seen = _note_collector_state(monkeypatch)
    reset_memory_transport()
    try:
        _, daemon_error = asyncio.run(_session_with_a_failing_peer(_hang_up))
    finally:
        reset_memory_transport()
    assert isinstance(daemon_error, DaemonError)
    assert seen == [False]
    assert gc.isenabled()
