"""Simulated network: delivery, bandwidth metering, and observation.

Rounds in PAG last one second (section VII-A) while the exchange of
Fig. 5 is a few small messages, so intra-round latency is negligible
relative to the round length.  The network therefore delivers messages
*within* the current round, in FIFO order, and the engine drains the
queue to quiescence before closing the round.  This matches the paper's
round-synchronous system model ("nodes are roughly synchronized, which
allows them to check each others' periodical exchanges").

A :class:`TrafficTap` receives a copy of every message — this is how the
*global passive opponent* of section III observes all network links, and
how tests assert on protocol traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Iterable, List, Optional, Protocol

from repro.sim.message import Message, WireSizes
from repro.sim.metrics import BandwidthMeter

__all__ = ["Network", "RemoteSend", "SendCapture", "TrafficTap", "DropRule"]


class TrafficTap(Protocol):
    """Observer of all traffic (the global opponent, or a test probe)."""

    def observe(self, message: Message, size: int) -> None:
        """Called once per message actually delivered."""


#: A predicate deciding whether a message is silently dropped.
#: Used to inject omission faults and network-level adversaries.
DropRule = Callable[[Message], bool]


@dataclass
class SendCapture:
    """Buffered sends of one execution shard.

    Deliveries of one shard meter into a private
    :class:`~repro.sim.metrics.BandwidthMeter` and buffer their sends
    as ``(trigger_index, seq, message, size)`` entries, where
    ``trigger_index`` is the batch position of the delivery that caused
    the send (set by the policy before each delivery) and ``seq``
    orders sends within one delivery.  Sorting the entries of all
    shards by that pair reconstructs exactly the send order a serial
    batch walk would produce, so a sharded drain merges back into the
    bit-identical schedule.  Drop rules and taps are *not* consulted at
    capture time — they may be stateful, so the network evaluates them
    at merge time, in the reconstructed order.
    """

    meter: BandwidthMeter = field(default_factory=BandwidthMeter)
    entries: List[tuple] = field(default_factory=list)
    trigger_index: int = 0
    _seq: int = 0

    def record(self, message: Message, size: int, round_no: int) -> None:
        self.meter.record(message.sender, message.recipient, size, round_no)
        self.entries.append((self.trigger_index, self._seq, message, size))
        self._seq += 1


class RemoteSend:
    """Queue entry standing in for a message whose payload lives in an
    execution worker.

    The parallel policy's metadata fast path (no taps, no drop rules —
    see :meth:`Network.merge_remote`) orders sends from worker-reported
    metadata alone; the payload either stays in the worker that
    produced it or crosses as part of an opaque pre-partitioned blob
    the parent never unpickles.  ``key`` is the ``(barrier_seq,
    trigger_index, seq)`` identity the owning worker uses to look the
    payload back up at delivery time.
    """

    __slots__ = ("key", "sender", "recipient", "size")

    def __init__(
        self, key: tuple, sender: int, recipient: int, size: int
    ) -> None:
        self.key = key
        self.sender = sender
        self.recipient = recipient
        self.size = size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RemoteSend {self.sender}->{self.recipient} "
            f"size={self.size} key={self.key}>"
        )


@dataclass
class Network:
    """Message transport with byte accounting.

    Attributes:
        sizes: wire-size constants used to price each message.
        meter: bandwidth accounting (per node, per round).
        taps: passive observers receiving a copy of all messages.
        drop_rules: fault-injection predicates; any True drops the message.
    """

    sizes: WireSizes = field(default_factory=WireSizes)
    meter: BandwidthMeter = field(default_factory=BandwidthMeter)
    taps: List[TrafficTap] = field(default_factory=list)
    drop_rules: List[DropRule] = field(default_factory=list)
    _queue: Deque[Message] = field(default_factory=deque)
    current_round: int = 0
    messages_sent: int = 0
    messages_dropped: int = 0
    #: messages withheld by a delaying rule (released later; counted
    #: once at withhold time, never re-counted as sent).
    messages_delayed: int = 0
    #: when set, sends are diverted into this capture instead of the
    #: shared meter/queue/taps (see :class:`SendCapture`).
    _capture: Optional["SendCapture"] = field(default=None, repr=False)

    def send(self, message: Message) -> None:
        """Queue a message for delivery within the current round.

        The sender pays upload and the recipient pays download for the
        full wire size whether or not a drop rule later discards it
        (bytes leave the NIC before the fault happens); dropped messages
        simply never reach ``on_message``.
        """
        if message.sender == message.recipient:
            raise ValueError(
                f"node {message.sender} attempted to send {message.kind} "
                "to itself"
            )
        size = message.size_bytes(self.sizes)
        capture = self._capture
        if capture is not None:
            capture.record(message, size, self.current_round)
            return
        self.meter.record(
            message.sender, message.recipient, size, self.current_round
        )
        self.messages_sent += 1
        rules = self.drop_rules
        if not (rules and self._apply_rules(message)):
            for tap in self.taps:
                tap.observe(message, size)
            self._queue.append(message)
        if rules:
            self._release_delayed()

    def _apply_rules(self, message: Message) -> bool:
        """Run drop rules; True when the message was withheld.

        A rule marked ``withholds_for_delay`` absorbs the message for
        later release instead of dropping it; the counters distinguish
        the two fates.
        """
        for rule in self.drop_rules:
            if rule(message):
                if getattr(rule, "withholds_for_delay", False):
                    self.messages_delayed += 1
                else:
                    self.messages_dropped += 1
                return True
        return False

    def _release_delayed(self) -> None:
        """Re-enqueue messages whose delay elapsed.

        Called after every rule evaluation (and at round boundaries via
        :meth:`begin_round`), so release points are a deterministic
        function of the global send order.  Released messages were
        already metered and counted at original send time; they re-enter
        the queue tap-observed but bypass the drop rules — one fault per
        message keeps schedules replayable.
        """
        rule: Any
        for rule in self.drop_rules:
            if getattr(rule, "withholds_for_delay", False):
                for message in rule.take_released():
                    self._enqueue_released(message)

    def _enqueue_released(self, message: Message) -> None:
        size = message.size_bytes(self.sizes)
        for tap in self.taps:
            tap.observe(message, size)
        self._queue.append(message)

    # -- shard capture -----------------------------------------------------

    def begin_capture(self) -> "SendCapture":
        """Divert subsequent sends into an isolated :class:`SendCapture`.

        Used by sharded execution: while one shard's messages are being
        delivered, any replies its nodes send are buffered (with their
        own meter and tap log) instead of touching the shared state.
        Nest-free: captures must be released before starting another.
        """
        if self._capture is not None:
            raise RuntimeError("a send capture is already active")
        self._capture = SendCapture()
        return self._capture

    def release_capture(self) -> "SendCapture":
        """Stop capturing and return the buffer (without merging it)."""
        capture = self._capture
        if capture is None:
            raise RuntimeError("no send capture is active")
        self._capture = None
        return capture

    def merge_captures(self, captures: List["SendCapture"]) -> None:
        """Fold released shard captures back into the shared state.

        Meters merge in shard-index order (addition, exact); the
        buffered sends of all shards are interleaved by
        ``(trigger_index, seq)`` — the order a serial walk of the batch
        would have produced them in — and only then run through the
        drop rules and taps, so stateful fault injectors and observers
        see the same message sequence under either policy.
        """
        if self._capture is not None:
            raise RuntimeError("cannot merge while a capture is active")
        entries: List[tuple] = []
        for capture in captures:
            self.meter.merge_from(capture.meter)
            entries.extend(capture.entries)
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        for _, _, message, size in entries:
            self.messages_sent += 1
            if not self._apply_rules(message):
                for tap in self.taps:
                    tap.observe(message, size)
                self._queue.append(message)
            self._release_delayed()

    def merge_remote(
        self, sends: List[RemoteSend], meter_rows: Iterable[tuple]
    ) -> None:
        """Fast-path merge of worker-held sends, from metadata alone.

        The caller passes :class:`RemoteSend` entries already in the
        reconstructed serial order, queued exactly as
        :meth:`merge_captures` would have queued the full messages, and
        the per-node rows of the shards' capture meters, which already
        metered every one of those sends: the rows are added to the
        shared meter for the current round (see
        :meth:`BandwidthMeter.add_round_rows`; integer addition, so the
        shard order does not matter).
        Only valid while no taps or drop rules are installed — those
        must observe real messages, so the parallel policy falls back to
        full captures whenever either is present.
        """
        if self.taps or self.drop_rules:
            raise RuntimeError(
                "metadata-only merge is invalid while taps or drop rules "
                "are installed"
            )
        self.meter.add_round_rows(meter_rows, self.current_round)
        self.messages_sent += len(sends)
        self._queue.extend(sends)

    def pending(self) -> int:
        return len(self._queue)

    def pop(self) -> Optional[Message]:
        """Next message to deliver, or None when the round is quiescent."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def take_pending(self) -> Deque[Message]:
        """Hand over the whole pending queue and start a fresh one.

        Replies sent while the caller processes the batch land in the
        new queue, so alternating ``take_pending`` with batch delivery
        yields exactly the order one-at-a-time :meth:`pop` would.
        """
        batch = self._queue
        self._queue = deque()
        return batch

    def begin_round(self, round_no: int) -> None:
        if self._queue:
            raise RuntimeError(
                f"round {round_no} started with {len(self._queue)} "
                "undelivered messages"
            )
        self.current_round = round_no
        self._flush_delayed()

    def _flush_delayed(self) -> None:
        """Round boundary: release everything delaying rules still hold.

        Caps any delay at one round boundary, which keeps delayed acks
        and declarations inside the protocol's recovery window (the
        accusation path and monitor rotation absorb a one-round skew;
        longer withholding would be indistinguishable from loss anyway).
        Flushed messages are delivered first in the new round, before
        any node's fan-out — the same position under every policy.
        """
        rule: Any
        for rule in self.drop_rules:
            if getattr(rule, "withholds_for_delay", False):
                for message in rule.flush_delayed():
                    self._enqueue_released(message)

    def fault_report(self) -> dict:
        """Per-injector fault counters (see ``sim/faults.fault_report``)."""
        from repro.sim.faults import fault_report

        return fault_report(self.drop_rules)

    def add_tap(self, tap: TrafficTap) -> None:
        self.taps.append(tap)

    def add_drop_rule(self, rule: DropRule) -> None:
        self.drop_rules.append(rule)
