"""What one end of a link computed, the other end looks up — and nothing
else changes.

Both ends of a simulated link share one process: the description B
signs is the one A verifies (``core.node._pending_descs``), and what B
hashed under the link prime is what A hashes again
(``HomomorphicHasher._link``).  Both memos are keyed by value and
consumed on read, so these tests pin the three things that could go
wrong: a value that differs from the plain computation, a tampered
message answered from the untampered entry, and entries nobody reads
piling up.
"""

import hashlib
import json
from typing import Any, Callable, List, Tuple

import pytest
from test_message_stream_golden import GOLDEN, RUNS, _canonical

from repro.core import node as node_module
from repro.core.node import PagNode
from repro.core.messages import Ack, KeyResponse, Serve
from repro.crypto import homomorphic
from repro.scenarios import get_scenario


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


def _build(label: str):
    name, overrides = RUNS[label]
    spec = get_scenario(name, **overrides)
    node_module._pending_descs.clear()  # an earlier test's last round
    return spec, spec.build(None)


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
            # step before has been through A's verify by now.
            unread.setdefault(
                message.round_no, dict(node_module._pending_descs)
            )

    seen = _tap_sends(network, observe)
    session.run(spec.rounds)
    (message,) = tampered
    link = (message.recipient, message.sender)
    assert link == TAMPERED["link"] and link not in served
    assert len(served) == len(set(served)) > 30
    assert seen[0] == TAMPERED["messages"]
    assert seen[1].hexdigest() == TAMPERED["stream_sha256"]
    assert session.context.hasher.operations == TAMPERED["operations"]
    assert (
        session.context.signer.counters.verifications
        == TAMPERED["verifications"]
    )
    # One description goes unread, in round 3: the one B signed.  A built
    # the bytes of what it received, and left nothing.
    assert [len(unread[r]) for r in range(spec.rounds)] == [0, 0, 0, 1, 0]
    ((key, pieces),) = unread[3].items()
    signed = b"".join(pieces)
    received = PagNode._key_response_desc(message)
    assert signed != received and not node_module._pending_descs
    if field == "prime":
        assert key[1] == message.prime ^ 2
        assert f"|{message.prime ^ 2}|".encode() in signed
        assert f"|{message.prime}|".encode() in received
    else:
        assert key[2] != message.buffermap
        assert str(sorted(message.buffermap)).encode() in received


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
    unread = []

    def observe(message: Any) -> None:
        assert len(hasher._link) <= cap
        if type(message) is Ack:
            unread.append(len(node_module._pending_descs))

    seen = _tap_sends(session.simulator.network, observe)
    left_at_round_end = []
    session.simulator.add_round_hook(
        lambda round_no: left_at_round_end.append(
            (len(node_module._pending_descs), len(hasher._link))
        )
    )
    session.run(spec.rounds)
    assert seen[1].hexdigest() == GOLDEN["fault-fuzz"]["stream_sha256"]
    assert hasher.operations == GOLDEN["fault-fuzz"]["operations"]
    assert 0 < hasher.memo_hits < GOLDEN["fault-fuzz"]["memo_hits"]
    # KeyResponses were lost, so descriptions went unread, never more
    # than a round's links; and no entry of either memo outlives the
    # round it was left in.
    assert 0 < max(unread) <= spec.nodes * session.context.config.fanout
    assert left_at_round_end == [(0, 0)] * spec.rounds


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
