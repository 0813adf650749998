"""The per-round serve plan: one classify-and-product pass per successor.

A server derives what its serves of a round share once (the plan kept on
the :class:`~repro.core.state.ForwardSet`) and turns it into one
successor's entries and ``(forward, ack_only)`` products in a single
loop.  These tests hold that loop to the two-pass shape it replaced, on
every key response of two real runs, and pin the corners around it: the
adversary hook, a reception that lands between two serves of a round,
entries shared between serves, and a buffermap hashed under another
link's prime.
"""

import dataclasses
import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import pytest

from repro.core.messages import (
    Attestation,
    KeyResponse,
    Serve,
    ServeEntry,
)
from repro.core.verification import ack_hash, serve_hashes, split_products
from repro.scenarios import get_scenario
from repro.sim.faults import CorruptionFault
from repro.sim.network import Network
from repro.sim.rng import SeedSequence
from tests.net.live_traffic import SCENARIOS


def _two_pass_entries(node, round_no, buffermap, prime):
    """The classification the fused pass replaced, nothing shared."""
    modulus = node.context.hasher.modulus
    entries = []
    for update, count in node._forward_set(round_no).items():
        owned = pow(update.content, prime, modulus) in buffermap
        expiring = update.expires_next_round(round_no)
        entries.append(
            ServeEntry(
                update=update,
                count=count,
                has_payload=not owned,
                ack_only=expiring or owned,
            )
        )
    return tuple(entries)


@dataclass
class _Observed:
    #: (server, round, entries, products, two-pass entries) per key response.
    classified: List[Tuple[int, int, tuple, tuple, tuple]] = field(
        default_factory=list
    )
    messages: List[Any] = field(default_factory=list)
    session: Any = None

    def observe(self, message, size):
        self.messages.append(message)


@functools.lru_cache(maxsize=None)
def observed(label: str) -> _Observed:
    name, overrides = SCENARIOS[label]
    spec = get_scenario(name, **overrides)
    session = spec.build(None)
    seen = _Observed(session=session)
    session.simulator.network.add_tap(seen)
    for node in session.nodes.values():
        inner = node._classify_entries

        def checked(round_no, buffermap, prime, node=node, inner=inner):
            reference = _two_pass_entries(node, round_no, buffermap, prime)
            entries, products = inner(round_no, buffermap, prime)
            seen.classified.append(
                (node.node_id, round_no, entries, products, reference)
            )
            return entries, products

        node._classify_entries = checked
    session.run(spec.rounds)
    return seen


#: serve shapes each run must contain (five rounds of ``fig9`` end
#: before anything expires).
SHAPES = {
    "fig9": {"empty", "all-owned", "count>1"},
    "coalition-mixed": {"empty", "all-owned", "all-expiring", "count>1"},
}


@pytest.mark.parametrize("label", sorted(SCENARIOS))
def test_fused_pass_equals_the_two_pass_shape(label):
    seen = observed(label)
    hasher = seen.session.context.hasher
    shapes = set()
    assert seen.classified
    for _server, _round, entries, products, reference in seen.classified:
        assert entries == reference
        assert products == split_products(hasher, entries)
        if not entries:
            shapes.add("empty")
            continue
        if not any(e.has_payload for e in entries):
            shapes.add("all-owned")
        if all(e.has_payload and e.ack_only for e in entries):
            shapes.add("all-expiring")
        if any(e.count > 1 for e in entries):
            shapes.add("count>1")
    assert shapes == SHAPES[label]


def _exchanges_of(seen: _Observed, server: int):
    """(prime, serve, attestation) of every exchange ``server`` served."""
    primes = {
        (m.round_no, m.sender): m.prime
        for m in seen.messages
        if type(m) is KeyResponse and m.recipient == server
    }
    serves = {
        (m.round_no, m.recipient): m
        for m in seen.messages
        if type(m) is Serve and m.sender == server
    }
    for m in seen.messages:
        if type(m) is Attestation and m.sender == server:
            key = (m.round_no, m.recipient)
            yield primes[key], serves[key], m.attestation


def test_filtered_serves_attest_what_was_kept():
    """Partial-forwarder 8 and free-rider 3 of ``coalition-mixed`` hand
    back a different tuple: the attestation and the expected ack are
    over the kept entries, not over the classified ones."""
    seen = observed("coalition-mixed")
    hasher = seen.session.context.hasher
    # One forward set per (server, round): every successor's
    # classification has its length.
    classified = {
        (server, rnd): entries
        for server, rnd, entries, _products, _ref in seen.classified
    }
    for deviant in (8, 3):
        node = seen.session.nodes[deviant]
        dropped = 0
        for prime, serve, attestation in _exchanges_of(seen, deviant):
            kept = serve.entries
            dropped += len(classified[(deviant, serve.round_no)]) - len(kept)
            products = split_products(hasher, kept)
            assert (
                attestation.hash_forward, attestation.hash_ack_only
            ) == serve_hashes(hasher, products, prime)
            exchange = node.state.outgoing.get(
                (serve.round_no, serve.recipient)
            )
            if exchange is not None:  # not pruned yet
                assert exchange.entries is kept
                assert exchange.expected_ack_hash == ack_hash(
                    hasher, products, serve.key_prev
                )
        assert dropped > 0


def test_wrong_prime_hides_membership():
    """A buffermap hashed under another link's prime marks no entry as
    owned: the hashes a node advertises on one link are unlinkable to
    those of the next (section V-D)."""
    session = get_scenario("fig9", nodes=16, rounds=6).build(None)
    session.run(4)
    round_no = 3  # its forward set (round 2) is still kept
    hasher = session.context.hasher
    node = next(
        node
        for node in session.nodes.values()
        if node.node_id != 0 and node._serve_plan(round_no).contents
    )
    contents = node._serve_plan(round_no).contents
    prime, other = node._prime_pool.take(), node._prime_pool.take()
    buffermap = frozenset(hasher.hash_many(contents, prime))

    entries, _ = node._classify_entries(round_no, buffermap, other)
    assert len(entries) == len(contents)
    assert all(entry.has_payload for entry in entries)
    entries, _ = node._classify_entries(round_no, buffermap, prime)
    assert not any(entry.has_payload for entry in entries)


# -- a reception between two serves of one round ------------------------


class _HoldOnePair:
    """Withholds the first round-``round_no`` Serve that carries a
    forwarding obligation, and the Attestation that follows it."""

    def __init__(self, round_no: int) -> None:
        self.round_no = round_no
        self.serve = None
        self.attestation = None

    def __call__(self, message) -> bool:
        if message.round_no != self.round_no:
            return False
        if self.serve is None:
            if type(message) is Serve and any(
                not e.ack_only for e in message.entries
            ):
                self.serve = message
                return True
            return False
        if (
            self.attestation is None
            and type(message) is Attestation
            and message.sender == self.serve.sender
            and message.recipient == self.serve.recipient
        ):
            self.attestation = message
            return True
        return False


#: SHA-256 over repr() of the late receiver's round-4 Serves and
#: Attestations, recorded on the commit before the serve plan existed.
LATE_PAIR_DIGEST = (
    "671b9156efe5d8d828605942279248554ee8c473fc30e70171d1385d229a045d"
)


def test_late_pair_between_two_serves_is_in_the_second():
    """A round R-1 Serve+Attestation that reaches A after its first
    serve of round R (a delayed pair) is ingested, so A's later serves
    of the round carry it — the plan is dropped by ``ForwardSet.add``."""
    late_round = 3
    spec = get_scenario("fig9", nodes=16, rounds=late_round + 2)
    session = spec.build(None)
    simulator = session.simulator
    network = simulator.network
    hold = _HoldOnePair(late_round)
    network.add_drop_rule(hold)
    session.run(late_round + 1)
    assert hold.serve is not None and hold.attestation is not None
    receiver = session.nodes[hold.serve.recipient]

    round_no = simulator.current_round
    assert round_no == late_round + 1
    network.begin_round(round_no)
    for node in simulator._ordered_nodes():
        node.begin_round(round_no)
    sent: List[Any] = []

    class Tap:
        def observe(self, message, size):
            if message.sender != receiver.node_id:
                return
            if type(message) is Serve or type(message) is Attestation:
                sent.append(message)

    network.add_tap(Tap())
    injected_after = None
    while True:
        batch = network.take_pending()
        if not batch:
            break
        for message in batch:
            simulator.nodes[message.recipient].on_message(message)
            if (
                injected_after is None
                and message.recipient == receiver.node_id
                and type(message) is KeyResponse
            ):
                injected_after = len(sent)
                receiver.on_message(hold.serve)
                receiver.on_message(hold.attestation)

    serves = [m for m in sent if type(m) is Serve]
    assert injected_after == 2 and len(serves) >= 2
    forwarded = [e for e in hold.serve.entries if not e.ack_only]
    late = {e.update.uid: e.count for e in forwarded}
    first = {e.update.uid: e.count for e in serves[0].entries}
    assert any(first.get(uid, 0) != c for uid, c in late.items())
    for serve in serves[1:]:
        after = {e.update.uid: e.count for e in serve.entries}
        for uid, count in late.items():
            assert after[uid] == first.get(uid, 0) + count
    stream = "".join(repr(m) for m in sent)
    assert hashlib.sha256(stream.encode()).hexdigest() == LATE_PAIR_DIGEST


# -- entries shared between the serves of a round ------------------------


def test_shared_entries_survive_a_corruption_of_one_serve():
    seen = observed("fig9")
    by_server_round: Dict[Tuple[int, int], List[Serve]] = {}
    for m in seen.messages:
        if type(m) is Serve and m.entries:
            by_server_round.setdefault((m.sender, m.round_no), []).append(m)
    first, second = next(
        (a, b)
        for serves in by_server_round.values()
        for a in serves
        for b in serves
        if a is not b
        and a.entries[0].update.uid == b.entries[0].update.uid
        and a.entries[0].has_payload == b.entries[0].has_payload
    )
    shared = first.entries[0]
    assert second.entries[0] is shared
    before = repr(second)
    tampered = dataclasses.replace(first)  # the fixture is cached
    corruption = CorruptionFault(kinds=("serve",)).build(
        SeedSequence(0).stream("corruption"), Network()
    )
    assert corruption(tampered) is False
    assert tampered.entries[0] != shared
    assert first.entries[0] is shared and second.entries[0] is shared
    assert repr(second) == before
