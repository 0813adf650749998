"""Differential execution-policy harness.

Runs one scenario under an execution policy and captures *everything
observable*: the full meter snapshot (per-node totals and per-round
series), the ordered message trace, verdict outcomes, playback
continuity, and the crypto operation counters.  Two records being equal
is the definition of "bit-identical" used by the policy-equivalence
suite: if any byte of accounting, any message's order, or any verdict
differed, the records would differ.

The harness instruments the parent network with a
:class:`~repro.sim.trace.TraceRecorder` tap when asked — which also
makes every worker send carry its payload back to the parent, so both
kinds of send the parallel merge takes (parent-held payloads, replayed
through taps and rules, and worker-held ones, queued from metadata) get
differential coverage.  Parallel runs use real worker processes, so a
cross-shard payload reaches its recipient as a pickled copy.

The traced serial reference of each scenario also carries a
:class:`CodecTap`, which puts every send through the daemon wire codec
and back: daemons exchange v1 frames, and the tap covers the scenarios
the fleet rejects (churn, arrivals, rate ramps, faults).
"""

from __future__ import annotations

import dataclasses
import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net import wire
from repro.scenarios.spec import ScenarioResult, ScenarioSpec
from repro.sim.execution import ExecutionPolicy
from repro.sim.trace import TraceRecorder

__all__ = [
    "CodecTap",
    "RunRecord",
    "record_scenario",
    "serial_reference",
    "workers_under_test",
    "small_spec",
    "SMALL",
    "FIXED_SCALE",
]

#: Smoke scale for the registry sweep; big memberships shrink to this.
SMALL = dict(nodes=14, rounds=6, warmup_rounds=2)

#: Scenarios whose declared membership/churn/arrival/ramp schedule must
#: not be shrunk (they name concrete node ids or concrete rounds).
FIXED_SCALE = {
    "churn",
    "coalition-third",
    "join-churn",
    "coalition-mixed",
    "rate-ramp",
}


def workers_under_test(default: int = 2) -> int:
    """Worker count under test; the CI parallel-policy job sweeps it."""
    return int(os.environ.get("REPRO_TEST_WORKERS", default))


def small_spec(name: str, **extra) -> ScenarioSpec:
    """A registry spec at differential-suite scale.

    The spec's own ``policy`` knob is stripped so the harness's policy
    argument is the only execution variable.
    """
    from repro.scenarios import get_scenario

    spec = get_scenario(name)
    overrides = dict(extra)
    if name not in FIXED_SCALE:
        overrides.update(SMALL)
        if spec.population:
            # Population specs shrink their plane too (a million-node
            # plane has no place in a smoke sweep); the plane attaches
            # to the engine regardless of policy, so the cohort's
            # cross-policy bit-identity checks run unchanged.
            overrides.setdefault("population", 56)
    spec = spec.with_overrides(**overrides)
    return dataclasses.replace(spec, policy=None)


def printed_fields(message) -> List[str]:
    """The ``repr`` of each field of ``message``, a frozenset's members
    sorted: a frozenset prints in its hash table's order, which depends
    on how it was built, so a decoded buffermap equals the sent one but
    may print differently.  A field whose value changes type (``1`` for
    ``True``, ``1.0`` for ``1``) still shows."""
    printed = []
    for f in dataclasses.fields(message):
        value = getattr(message, f.name)
        if isinstance(value, frozenset):
            printed.append(f"frozenset({sorted(value)!r})")
        else:
            printed.append(repr(value))
    return printed


class CodecTap:
    """A network tap putting every send through the daemon wire path.

    Each encodable message is encoded, framed, reassembled by a
    ``FrameAssembler`` and decoded; the decoded message must match the
    original in type, ``==`` and :func:`printed_fields`, and re-encode
    to the same bytes.  Messages without a wire schema (the AcTinG
    baseline's) are counted in ``unencodable``.
    """

    def __init__(self) -> None:
        self.assembler = wire.FrameAssembler()
        self.encoded = 0
        self.unencodable = 0

    def observe(self, message, size: int) -> None:
        if not wire.encodable(message):
            self.unencodable += 1
            return
        payload = wire.encode_message(message)
        (received,) = self.assembler.feed(wire.frame(payload))
        decoded = wire.decode_message(received)
        kind = type(message).__name__
        assert type(decoded) is type(message), f"{kind} decodes retyped"
        assert decoded == message, f"{kind} decodes unequal: {message!r}"
        assert printed_fields(decoded) == printed_fields(message), (
            f"{kind} prints differently after decoding"
        )
        assert wire.encode_message(decoded) == payload, (
            f"{kind} re-encodes to other bytes"
        )
        self.encoded += 1


@dataclass
class RunRecord:
    """Everything observable about one scenario run (``codec`` is the
    serial reference's :class:`CodecTap`, outside the comparison)."""

    meter: Dict[str, object]
    trace: Optional[List[tuple]]
    verdicts: List[Tuple[int, str, int, int]]
    messages_sent: int
    messages_dropped: int
    node_kbps: Dict[int, float]
    continuity: Optional[float]
    ops: Dict[str, int]
    codec: Optional[CodecTap] = field(default=None, compare=False)

    def diff(self, other: "RunRecord") -> List[str]:
        """Names of the fields that differ (for readable assertions)."""
        return [
            f.name
            for f in dataclasses.fields(self)
            if f.compare and getattr(self, f.name) != getattr(other, f.name)
        ]


def _ops_of(session) -> Dict[str, int]:
    context = getattr(session, "context", None)
    if context is None:
        return {}
    return {
        "hashes": context.hasher.operations,
        "encryptions": context.counters.encryptions,
        "decryptions": context.counters.decryptions,
        "prime_generations": context.counters.prime_generations,
        "signatures": context.signer.counters.signatures,
        "verifications": context.signer.counters.verifications,
    }


def record_scenario(
    spec: ScenarioSpec,
    policy: Optional[ExecutionPolicy],
    trace: bool = True,
    drop_rule=None,
    prepare: Optional[Callable] = None,
) -> RunRecord:
    """Run ``spec`` under ``policy`` and capture a full :class:`RunRecord`.

    Args:
        trace: install a :class:`TraceRecorder` tap (replica sends
            carry their payloads to the parent).  Without it the
            payloads stay in the workers and the record carries
            ``trace=None``.
        drop_rule: optional fault-injection predicate added to the
            parent network before the run (also brings the payloads to
            the parent).
        prepare: called with the built session before the first round
            (parent side only: replica workers rebuild from the bare
            spec and never see it).
    """
    session = spec.build(policy)
    if prepare is not None:
        prepare(session)
    tap = None
    if trace:
        tap = TraceRecorder()
        session.simulator.network.add_tap(tap)
    if drop_rule is not None:
        session.simulator.network.add_drop_rule(drop_rule)
    try:
        session.run(spec.rounds)
        if policy is not None:
            policy.sync_session(session)
        result = ScenarioResult.collect(spec, session)
        network = session.simulator.network
        return RunRecord(
            meter=network.meter.snapshot(),
            trace=(
                [
                    (r.round_no, r.sender, r.recipient, r.kind, r.size)
                    for r in tap
                ]
                if tap is not None
                else None
            ),
            verdicts=sorted(
                (v.node, v.reason.value, v.exchange_round, v.detected_by)
                for v in session.all_verdicts()
            ),
            messages_sent=network.messages_sent,
            messages_dropped=network.messages_dropped,
            node_kbps=result.node_kbps,
            continuity=result.continuity,
            ops=_ops_of(session),
        )
    finally:
        if policy is not None:
            policy.close()
        # Population planes own spill temp dirs; RunRecords never read
        # them, so close here rather than leak on every recorded run.
        for plane in getattr(session.simulator, "planes", ()):
            plane.close()


@functools.lru_cache(maxsize=None)
def serial_reference(name: str, trace: bool = True, **extra) -> RunRecord:
    """The serial record of ``small_spec(name, **extra)``, run once per
    session.

    Every policy is compared against this same deterministic run (that
    it *is* deterministic is ``test_determinism``'s job), so the suite
    pays for it once instead of once per policy under test.  The run is
    traced and also carries a :class:`CodecTap`, kept as the record's
    ``codec``; taps only observe, so the untraced reference is the
    same record without its trace.
    """
    if not trace:
        return dataclasses.replace(serial_reference(name, **extra), trace=None)
    codec = CodecTap()
    record = record_scenario(
        small_spec(name, **extra),
        None,
        prepare=lambda session: session.simulator.network.add_tap(codec),
    )
    record.codec = codec
    return record
