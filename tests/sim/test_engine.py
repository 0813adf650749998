"""Tests for the round-synchronous engine and network."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.sim.engine import SimSession, Simulator
from repro.sim.message import Message, WireSizes
from repro.sim.network import Network
from repro.sim.node import SimNode
from repro.sim.trace import TraceRecorder


@dataclass
class Ping(Message):
    hops_left: int = 0
    kind: ClassVar[str] = "ping"

    def size_bytes(self, sizes: WireSizes) -> int:
        return sizes.header + 4


class PingNode(SimNode):
    """Replies to pings until hops run out; counts receptions."""

    def __init__(self, node_id, network, peer):
        super().__init__(node_id, network)
        self.peer = peer
        self.received = 0
        self.rounds_begun = []
        self.rounds_ended = []

    def begin_round(self, round_no):
        self.rounds_begun.append(round_no)
        if self.node_id == 0:
            self.send(
                Ping(
                    sender=self.node_id,
                    recipient=self.peer,
                    round_no=round_no,
                    hops_left=3,
                )
            )

    def on_message(self, message):
        self.received += 1
        if message.hops_left > 0:
            self.send(
                Ping(
                    sender=self.node_id,
                    recipient=message.sender,
                    round_no=message.round_no,
                    hops_left=message.hops_left - 1,
                )
            )

    def end_round(self, round_no):
        self.rounds_ended.append(round_no)


def make_sim():
    network = Network()
    sim = Simulator(network=network)
    a = PingNode(0, network, peer=1)
    b = PingNode(1, network, peer=0)
    sim.add_node(a)
    sim.add_node(b)
    return sim, a, b


def test_intra_round_message_chains_drain_to_quiescence():
    sim, a, b = make_sim()
    sim.run_round()
    # 0 sends ping(3), 1 replies ping(2), 0 replies ping(1), 1 ping(0).
    assert b.received == 2
    assert a.received == 2
    assert sim.network.pending() == 0


def test_round_lifecycle_order():
    sim, a, b = make_sim()
    sim.run(3)
    assert a.rounds_begun == [0, 1, 2]
    assert a.rounds_ended == [0, 1, 2]
    assert sim.current_round == 3


def test_duplicate_node_id_rejected():
    sim, a, b = make_sim()
    with pytest.raises(ValueError):
        sim.add_node(PingNode(0, sim.network, peer=1))


def test_self_send_rejected():
    network = Network()
    with pytest.raises(ValueError):
        network.send(Ping(sender=1, recipient=1, round_no=0, hops_left=0))


def test_bandwidth_is_metered():
    sim, a, b = make_sim()
    sim.run_round()
    # 4 messages of (24 + 4) bytes each, two each way.
    totals = sim.network.meter.totals
    for node in (0, 1):
        assert (totals[node].bytes_up, totals[node].bytes_down) == (56, 56)


def test_message_to_departed_node_is_dropped_silently():
    network = Network()
    sim = Simulator(network=network)
    a = PingNode(0, network, peer=99)  # 99 never joins
    sim.add_node(a)
    sim.run_round()  # must not raise
    assert a.received == 0


def test_drop_rule_suppresses_delivery_but_still_meters():
    sim, a, b = make_sim()
    sim.network.add_drop_rule(lambda m: m.recipient == 1)
    sim.run_round()
    assert b.received == 0
    assert a.received == 0
    assert sim.network.meter.totals[0].bytes_up > 0
    assert sim.network.messages_dropped == 1


def test_trace_recorder_sees_all_traffic():
    sim, a, b = make_sim()
    tap = TraceRecorder()
    sim.network.add_tap(tap)
    sim.run_round()
    assert len(tap) == 4
    assert tap.kinds() == {"ping": 4}
    assert tap.total_bytes() == 4 * 28
    assert (0, 1) in tap.link_set()
    assert len(tap.between(0, 1)) == 2
    assert len(tap.in_round(0)) == 4


def test_runaway_message_loop_detected():
    class LoopNode(SimNode):
        def begin_round(self, round_no):
            if self.node_id == 0:
                self.send(Ping(0, 1, round_no, hops_left=1))

        def on_message(self, message):
            # Always bounce back: infinite ping-pong.
            self.send(
                Ping(
                    sender=self.node_id,
                    recipient=message.sender,
                    round_no=message.round_no,
                    hops_left=1,
                )
            )

    network = Network()
    sim = Simulator(network=network)
    sim.add_node(LoopNode(0, network))
    sim.add_node(LoopNode(1, network))
    with pytest.raises(RuntimeError, match="budget"):
        sim.run_round()


def test_bandwidth_kbps_reporting():
    """The session reader covers the consumers, in the simulator's
    round length, after the warmup, per direction; the mean follows
    membership down to an empty one."""
    sim, a, b = make_sim()
    sim.round_seconds = 0.5
    session = SimSession(simulator=sim, source=a, nodes={1: b})
    session.run(2)
    # Node 1 sends and receives 2 x 28 bytes a round: 448 bits each way
    # per half-second round.
    assert session.bandwidth_kbps() == pytest.approx({1: 1.792})
    assert session.bandwidth_kbps(1, "down") == pytest.approx({1: 0.896})
    assert session.mean_bandwidth_kbps(direction="up") == pytest.approx(0.896)
    with pytest.raises(ValueError, match="source"):
        session.remove_node(0)
    with pytest.raises(ValueError, match="unknown node id 7"):
        session.remove_node(7)
    session.remove_node(1)
    assert sorted(sim.nodes) == [0]
    assert session.bandwidth_kbps() == {}
    assert session.mean_bandwidth_kbps() == 0.0


# ---------------------------------------------------------------------------
# Hot-loop overhaul: cached node ordering and batched drain.
# ---------------------------------------------------------------------------


def _node_ids(sim):
    return [node.node_id for node in sim._ordered_nodes()]


def test_node_ids_cached_and_invalidated_by_membership_changes():
    sim, a, b = make_sim()
    assert _node_ids(sim) == [0, 1]
    assert sim._ordered_nodes() is sim._ordered_nodes()
    c = PingNode(5, sim.network, peer=0)
    sim.add_node(c)
    assert _node_ids(sim) == [0, 1, 5]
    sim.remove_node(1)
    assert _node_ids(sim) == [0, 5]


def test_rounds_run_correctly_after_remove_node():
    sim, a, b = make_sim()
    sim.run(1)
    assert a.received > 0
    sim.remove_node(1)
    # Node 0 still pings the departed node 1; delivery is dropped.
    sim.run(2)
    assert a.rounds_begun == [0, 1, 2]
    assert b.rounds_begun == [0]


def test_nodes_added_out_of_order_begin_rounds_in_id_order():
    network = Network()
    sim = Simulator(network=network)
    order = []

    class Recorder(SimNode):
        def begin_round(self, round_no):
            order.append(self.node_id)

    for node_id in (7, 2, 9, 4):
        sim.add_node(Recorder(node_id, network))
    sim.run(1)
    assert order == [2, 4, 7, 9]


def test_batched_drain_preserves_fifo_reply_order():
    """take_pending + batch delivery must equal one-at-a-time popping:
    replies queued during a batch are delivered after that batch."""
    network = Network()
    sim = Simulator(network=network)
    log = []

    class Echo(SimNode):
        def begin_round(self, round_no):
            if self.node_id == 0:
                for recipient in (1, 2):
                    self.send(
                        Ping(
                            sender=0,
                            recipient=recipient,
                            round_no=round_no,
                            hops_left=1,
                        )
                    )

        def on_message(self, message):
            log.append((self.node_id, message.sender, message.hops_left))
            if message.hops_left > 0:
                self.send(
                    Ping(
                        sender=self.node_id,
                        recipient=0,
                        round_no=message.round_no,
                        hops_left=0,
                    )
                )

    for node_id in (0, 1, 2):
        sim.add_node(Echo(node_id, network))
    sim.run(1)
    # Both first-wave pings deliver before either reply.
    assert log == [(1, 0, 1), (2, 0, 1), (0, 1, 0), (0, 2, 0)]


def test_take_pending_hands_over_everything_once():
    network = Network()
    network.send(Ping(sender=0, recipient=1, round_no=0, hops_left=0))
    network.send(Ping(sender=1, recipient=0, round_no=0, hops_left=0))
    batch = network.take_pending()
    assert len(batch) == 2
    assert network.pending() == 0
    assert not network.take_pending()
