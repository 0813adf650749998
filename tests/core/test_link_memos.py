"""What one end of a link computed or checked, every other reader in the
process looks up — and nothing else changes.

Every node of a simulated session that one process runs shares its
hasher and its signer, so a value computed at one end of a link is
looked up at the other:

* what B hashed under the link prime is what A hashes again, and the
  ``(entries, products)`` A served is what B would recompute for its
  check of the attestation (``HomomorphicHasher._link``, consumed on
  read, cleared as each node ends the round);
* the KeyResponse B signed is recorded as ``(B, fields, signature)``
  and A accepts exactly that record (``Signer.records``, consumed on
  read);
* every ``SignedAck`` and ``SignedAttestation`` signed or found valid
  is held under its claimed signer (``Signer.exhibits``), so the other
  end and the monitors on both sides look it up instead of hashing it
  again.

The signer's two sets are emptied once every node of the process has
ended the round.  A memo answers only with what the plain computation
returns, so these tests pin what could go wrong: a tampered message
answered from an untampered entry, a different outcome from a signer or
a hasher that remembers nothing, and entries outliving their round.
"""

import asyncio
import dataclasses
import hashlib
import json
from typing import Any, Callable, Dict, List, Tuple

import pytest
from test_message_stream_golden import GOLDEN, RUNS, _canonical

from repro.core import node as node_module
from repro.core.messages import (
    Ack,
    AckCopy,
    Attestation,
    KeyResponse,
    Serve,
    SignedAck,
    ack_payload,
)
from repro.core.node import PagNode
from repro.core.signing import TokenSigner
from repro.crypto import homomorphic
from repro.net.daemon import NodeDaemon, run_coordinated_session
from repro.scenarios import get_scenario
from repro.sim.execution import ParallelShardedPolicy, _ReplicaWorker


class _ReferenceHasher:
    """``pow`` and a call count: no table, no memo, no batch kernel."""

    def __init__(self, modulus: int) -> None:
        self.modulus = modulus
        self.operations = 0

    def hash(self, update: int, exponent: int) -> int:
        self.operations += 1
        return pow(update, exponent, self.modulus)

    def hash_many(self, updates: List[int], exponent: int) -> List[int]:
        return [self.hash(update, exponent) for update in updates]


class _ForgetfulSigner(TokenSigner):
    """Remembers nothing: every check and every KeyResponse verifies."""

    def remember(self, signer_id: int, exhibit: Any) -> None:
        pass

    def take(self, record: tuple) -> bool:
        return False


def _build(label: str, forgetful: bool = False):
    name, overrides = RUNS[label]
    spec = get_scenario(name, **overrides)
    session = spec.build(None)
    if forgetful:
        session.context.signer = _ForgetfulSigner()
    return spec, session


def _tap_sends(network, observe: Callable[[Any], None]) -> List[Any]:
    """Wrap ``network.send`` the way the stream golden does: ``observe``
    sees every message first.  Returns ``[count, sha256]``, both live."""
    seen = [0, hashlib.sha256()]
    inner = network.send

    def send(message: Any) -> None:
        seen[0] += 1
        seen[1].update(_canonical(message).encode())
        observe(message)
        inner(message)

    network.send = send
    return seen


def _outcome(session, seen: List[Any]) -> Dict[str, Any]:
    """What a run sent, convicted and counted."""
    counters = session.context.signer.counters
    return {
        "messages": seen[0],
        "stream_sha256": seen[1].hexdigest(),
        "verdicts": sorted(
            (v.node, v.reason.value, v.exchange_round, v.detected_by)
            for node in session.nodes.values()
            for v in node.verdicts()
        ),
        "accusations": session.accusation_report(),
        "operations": session.context.hasher.operations,
        "signatures": counters.signatures,
        "verifications": counters.verifications,
    }


@pytest.mark.parametrize("label", ["fig9", "coalition-mixed"])
def test_a_memo_less_hasher_replays_a_live_run(label):
    """Every ``hash`` / ``hash_many`` call of a live run, in order, into
    a hasher that remembers nothing: same values, same ``operations``."""
    spec, session = _build(label)
    hasher = session.context.hasher
    calls: List[Tuple[str, Any, int, Any]] = []
    depth = 0

    def recorded(method: str):
        inner = getattr(hasher, method)

        def call(subject, exponent):
            nonlocal depth
            if method == "hash_many":
                subject = list(subject)
            depth += 1
            try:
                result = inner(subject, exponent)
            finally:
                depth -= 1
            if not depth:  # hash_many may call hash: one level recorded
                calls.append((method, subject, exponent, result))
            return result

        return call

    hasher.hash = recorded("hash")
    hasher.hash_many = recorded("hash_many")
    session.run(spec.rounds)
    assert {method for method, *_ in calls} == {"hash", "hash_many"}
    assert hasher.memo_hits > GOLDEN[label]["messages"] // 2  # links hit
    reference = _ReferenceHasher(hasher.modulus)
    for method, subject, exponent, result in calls:
        assert getattr(reference, method)(subject, exponent) == result
    assert reference.operations + hasher.batched_lifts == hasher.operations
    assert hasher.operations == GOLDEN[label]["operations"]


@pytest.mark.parametrize("label", ["fig9", "coalition-mixed"])
def test_a_memo_less_signer_replays_a_live_run(label):
    """Same stream, verdicts and signer counters from a signer that
    remembers nothing; the remembering one computed far fewer tokens."""
    outcomes = []
    for forgetful in (False, True):
        spec, session = _build(label, forgetful)
        signer = session.context.signer
        tokens = [0]
        verify = signer.verify

        def counted(*args, verify=verify, tokens=tokens):
            tokens[0] += 1
            return verify(*args)

        signer.verify = counted
        seen = _tap_sends(session.simulator.network, lambda message: None)
        session.run(spec.rounds)
        outcomes.append((_outcome(session, seen), tokens[0]))
    (remembering, tokens), (forgetting, all_tokens) = outcomes
    assert remembering == forgetting
    assert remembering["stream_sha256"] == GOLDEN[label]["stream_sha256"]
    assert remembering["verifications"] == GOLDEN[label]["verifications"]
    assert all_tokens == remembering["verifications"]
    assert tokens < all_tokens // 2


def _signed_ack(signer: TokenSigner, receiver: int = 5) -> SignedAck:
    exhibit = (3, receiver, 2, 0x1234567, 4)
    return SignedAck(*exhibit, signer.sign(receiver, ack_payload(*exhibit)))


def test_an_exhibit_is_held_under_its_claimed_signer_and_whole_value():
    """The same exhibit claimed by another signer, or any field of it
    rewritten, is not answered from the held pair."""
    results = []
    for signer in (TokenSigner(), _ForgetfulSigner()):
        ack = _signed_ack(signer)
        signer.remember(5, ack)
        results.append(
            [
                signer.check(5, ack),
                signer.check(6, ack),  # valid for 5, claimed by 6
                signer.check(5, dataclasses.replace(ack, hash_total=1)),
                signer.check(5, dataclasses.replace(ack, server=7)),
                signer.check(5, dataclasses.replace(ack, signature=1)),
                signer.check(6, _signed_ack(signer, receiver=6)),
                signer.counters.verifications,
            ]
        )
    expected = [True, False, False, False, False, True, 6]
    assert results[0] == results[1] == expected


def test_a_key_response_record_is_read_once_and_by_value():
    signer = TokenSigner()
    fields = (5, 2, 3, 0xFFFFFFFB, frozenset({7, 9}))
    signer.records.add((5, fields, 11))
    assert not signer.take((6, fields, 11))
    assert not signer.take((5, fields, 12))
    assert not signer.take((5, fields[:4] + (frozenset({7}),), 11))
    assert signer.take((5, fields, 11))
    assert not signer.take((5, fields, 11))
    assert signer.counters.verifications == 1


def _rewrite_once(rewrite: str) -> Callable[[Any], bool]:
    """A drop rule that rewrites the first matching round-3 message in
    place and delivers it, like a ``CorruptionFault``."""
    done: List[Any] = []
    firsts: Dict[int, Any] = {}

    def rule(message: Any) -> bool:
        kind = type(message)
        if message.round_no != 3 or done:
            return False
        if rewrite == "serve-entries" and kind is Serve:
            if len(message.entries) < 2:
                return False
            message.entries = message.entries[1:]
        elif rewrite == "ack-copy-hash" and kind is AckCopy:
            ack = message.ack
            message.ack = dataclasses.replace(
                ack, hash_total=ack.hash_total ^ 1
            )
        elif rewrite == "ack-signature" and kind is Ack:
            ack = message.ack
            message.ack = dataclasses.replace(ack, signature=ack.signature ^ 1)
        elif rewrite == "attestation-signature" and kind is Attestation:
            att = message.attestation
            message.attestation = dataclasses.replace(
                att, signature=att.signature ^ 1
            )
        elif rewrite == "claimed-signer" and kind is Attestation:
            # The recipient's first attestation of the round, valid as
            # signed by its server, presented by the next server.
            first = firsts.setdefault(message.recipient, message.attestation)
            if first is message.attestation:
                return False
            message.attestation = first
        else:
            return False
        done.append(message)
        return False

    return rule


def _rewritten_run(rewrite: str, forgetful: bool = False) -> Dict[str, Any]:
    spec, session = _build("fig9", forgetful)
    network = session.simulator.network
    network.add_drop_rule(_rewrite_once(rewrite))
    seen = _tap_sends(network, lambda message: None)
    session.run(spec.rounds)
    return _outcome(session, seen)


@pytest.mark.parametrize(
    "rewrite",
    [
        "ack-copy-hash",
        "ack-signature",
        "attestation-signature",
        "claimed-signer",
    ],
)
def test_a_rewritten_exhibit_is_rejected_as_a_memo_less_signer_does(rewrite):
    outcome = _rewritten_run(rewrite)
    assert outcome == _rewritten_run(rewrite, forgetful=True)
    assert outcome["stream_sha256"] != GOLDEN["fig9"]["stream_sha256"]


#: fig9 16x5 with the first round-3 Serve of two entries or more
#: delivered without its first entry, observed on the commit before the
#: products memo existed: B's check of the attestation fails, it sends
#: no Ack, and the server's accusation ends in probes answered.
REWRITTEN_SERVE = {
    "messages": 3049,
    "stream_sha256": (
        "e57ac21b020824e12f2579ed28d47f28394395f2139803f6c2baf4037fe81278"
    ),
    "operations": 13031,
    "signatures": 2810,
    "verifications": 2758,
    "probes": 3,
}


def test_a_rewritten_serve_is_recomputed_with_the_parents_outcome(
    monkeypatch,
):
    calls = []
    split_products = node_module.split_products

    def counted(hasher, entries):
        calls.append(len(entries))
        return split_products(hasher, entries)

    monkeypatch.setattr(node_module, "split_products", counted)
    plain = _rewritten_run("none")
    plain_calls = len(calls)
    outcome = _rewritten_run("serve-entries")
    assert len(calls) == 2 * plain_calls + 1 + REWRITTEN_SERVE["probes"]
    assert outcome["verdicts"] == plain["verdicts"] == []
    assert outcome["accusations"]["probes_sent"] == REWRITTEN_SERVE["probes"]
    for key, value in REWRITTEN_SERVE.items():
        if key != "probes":
            assert outcome[key] == value, key


#: fig9 16x5 with the first non-empty round-3 KeyResponse tampered in
#: flight, observed on the commit before the memos existed: A rejects
#: the signature and serves nothing on that link (the stream digest is
#: taken at ``Network.send``, before the rule, so it is one value for
#: both mutations).
TAMPERED = {
    "link": (0, 4),
    "messages": 3047,
    "stream_sha256": (
        "97cd65d7ba4250c5da4c255804388e903b93b5935742059cedbe70b5a213fe49"
    ),
    "operations": 12989,
    "verifications": 2757,
}


@pytest.mark.parametrize("field", ["prime", "buffermap"])
def test_tampered_key_response_misses_the_memo_and_is_rejected(field):
    spec, session = _build("fig9")
    network = session.simulator.network
    signer = session.context.signer
    tampered: List[KeyResponse] = []

    def tamper(message: Any) -> bool:
        """Mutates in place and delivers, like a ``CorruptionFault``
        (which knows no KeyResponse mutation)."""
        if (
            type(message) is KeyResponse
            and message.round_no == 3
            and message.buffermap
            and not tampered
        ):
            tampered.append(message)
            if field == "prime":
                message.prime ^= 2
            else:
                victim = min(message.buffermap)
                message.buffermap = message.buffermap - {victim} | {
                    victim ^ 1
                }
        return False

    network.add_drop_rule(tamper)
    served = []
    unread = {}

    def observe(message: Any) -> None:
        if type(message) is Serve and message.round_no == 3:
            served.append((message.sender, message.recipient))
        if type(message) is Ack:
            # The round's first Ack: every delivered KeyResponse of the
            # step before has been through A's check by now.
            unread.setdefault(message.round_no, set(signer.records))

    seen = _tap_sends(network, observe)
    session.run(spec.rounds)
    (message,) = tampered
    link = (message.recipient, message.sender)
    assert link == TAMPERED["link"] and link not in served
    assert len(served) == len(set(served)) > 30
    assert seen[0] == TAMPERED["messages"]
    assert seen[1].hexdigest() == TAMPERED["stream_sha256"]
    assert session.context.hasher.operations == TAMPERED["operations"]
    assert signer.counters.verifications == TAMPERED["verifications"]
    # One record goes unread, in round 3: the one B signed.  A found no
    # record of what it received, verified its bytes and failed.
    assert [len(unread[r]) for r in range(spec.rounds)] == [0, 0, 0, 1, 0]
    ((signed_by, fields, signature),) = unread[3]
    received = (
        message.sender,
        message.recipient,
        message.round_no,
        message.prime,
        message.buffermap,
    )
    assert signed_by == message.sender and signature == message.signature
    assert fields != received and not signer.records
    desc = PagNode._key_response_desc
    assert signer.verify(signed_by, desc(fields), signature)
    assert not signer.verify(signed_by, desc(received), signature)
    if field == "prime":
        assert fields[3] == message.prime ^ 2
    else:
        assert fields[4] != message.buffermap


def test_unread_entries_stay_under_the_leak_cap_on_a_faulty_run(monkeypatch):
    """``fault-fuzz``: 5% loss, delays, corruptions, an outage and a
    free-rider, so KeyResponses, serves and attestations go unread every
    round.  With the hasher's cap far below what is in flight the memo
    thrashes and the run is still the pinned one: the cap guards memory,
    no value depends on it."""
    cap = 16
    monkeypatch.setattr(homomorphic, "_LINK_MAX", cap)
    spec, session = _build("fault-fuzz")
    hasher = session.context.hasher
    signer = session.context.signer
    unread = []

    def observe(message: Any) -> None:
        assert len(hasher._link) <= cap
        if type(message) is Ack:
            unread.append(len(signer.records))

    seen = _tap_sends(session.simulator.network, observe)
    left_at_round_end = []
    session.simulator.add_round_hook(
        lambda round_no: left_at_round_end.append(
            (len(signer.exhibits), len(signer.records), len(hasher._link))
        )
    )
    session.run(spec.rounds)
    assert seen[1].hexdigest() == GOLDEN["fault-fuzz"]["stream_sha256"]
    assert hasher.operations == GOLDEN["fault-fuzz"]["operations"]
    assert 0 < hasher.memo_hits < GOLDEN["fault-fuzz"]["memo_hits"]
    # KeyResponses were lost, so records went unread, never more than a
    # round's links; and no entry of any memo outlives the round it was
    # left in.
    assert 0 < max(unread) <= spec.nodes * session.context.config.fanout
    assert left_at_round_end == [(0, 0, 0)] * spec.rounds


def test_no_memo_holds_an_entry_of_a_finished_round():
    """Serially each memo fills during a round and is empty once every
    node has ended it."""
    spec, session = _build("coalition-mixed")
    hasher = session.context.hasher
    signer = session.context.signer
    held: List[Tuple[int, int]] = []
    forget_round = signer.forget_round

    def forget() -> None:
        held.append((len(signer.exhibits), len(signer.records)))
        forget_round()

    signer.forget_round = forget
    left = []
    session.simulator.add_round_hook(
        lambda round_no: left.append(
            (len(signer.exhibits), len(signer.records), len(hasher._link))
        )
    )
    session.run(spec.rounds)
    assert len(held) == spec.rounds and min(held)[0] > 0
    assert left == [(0, 0, 0)] * spec.rounds


def _spy_on_replica_memos(monkeypatch) -> None:
    """Patch the replica class before the workers fork: collect also
    reports what the replica's memos hold after the run."""
    collect = _ReplicaWorker.collect

    def spying_collect(self):
        report = collect(self)
        context = self.session.context
        report["memos"] = (
            len(context.signer.exhibits),
            len(context.signer.records),
            len(context.hasher._link),
        )
        report["verifications"] = context.signer.counters.verifications
        return report

    monkeypatch.setattr(_ReplicaWorker, "collect", spying_collect)


def test_a_worker_replica_empties_its_memos_every_round(monkeypatch):
    _spy_on_replica_memos(monkeypatch)
    spec = get_scenario("fig9", nodes=10, rounds=3, warmup_rounds=1)
    policy = ParallelShardedPolicy(workers=2)
    try:
        session = spec.build(policy)
        session.run(spec.rounds)
        reports = [
            handle.call("the probe", "collect") for handle in policy._handles
        ]
    finally:
        policy.close()
    for report in reports:
        assert report["memos"] == (0, 0, 0)
        assert report["verifications"] > 0


def test_a_fleet_daemon_empties_its_memos_every_round(monkeypatch):
    """A daemon ends its owned nodes' rounds itself, with no round
    hook, and empties its signer's sets there."""
    held: List[Tuple[int, ...]] = []
    run_round = NodeDaemon._run_round

    async def noting_run_round(self, round_no):
        await run_round(self, round_no)
        context = self._session.context
        held.append(
            (
                len(context.signer.exhibits),
                len(context.signer.records),
                len(context.hasher._link),
            )
        )

    monkeypatch.setattr(NodeDaemon, "_run_round", noting_run_round)
    spec = get_scenario("fig9", nodes=10, rounds=3, warmup_rounds=1)
    result = asyncio.run(run_coordinated_session(spec, shards=2))
    assert result["shards"] == 2
    assert held == [(0, 0, 0)] * 2 * spec.rounds


@pytest.mark.slow
def test_fig9_at_600_nodes_meters_what_the_parent_metered():
    """Past the registry sizes, where a step has 1,800 links in flight
    and ``successors`` draws from 598 candidates: the meter digest, the
    message and the hash count of the commit before this one."""
    spec = get_scenario("fig9", nodes=600, rounds=4, warmup_rounds=3)
    session = spec.build(None)
    session.run(spec.rounds)
    network = session.simulator.network
    assert network.messages_sent == 93535
    assert session.context.hasher.operations == 15419
    assert hashlib.sha256(
        json.dumps(network.meter.snapshot(), sort_keys=True).encode()
    ).hexdigest() == (
        "fa008e38dc3e2d09bd142e0f130530f31ae3dc6b8981f9e3770e5abd4e4f3c38"
    )
