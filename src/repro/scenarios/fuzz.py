"""Fault & adversary fuzzing harness.

Draws random :class:`~repro.scenarios.spec.ScenarioSpec` instances —
fault schedules x adversary mixes x churn — runs each under every
execution policy, and checks three invariants on every draw:

1. **No false convictions**: every convicted node is a seeded deviant,
   a churned node (leaving is indistinguishable from refusing), or an
   outaged node (a crash is indistinguishable from a refusal, section
   VI-B).  Verdicts *detected by* an outaged monitor are discounted —
   its case files are built on traffic it never saw.
2. **No missed deviants**: every seeded deviant is eventually convicted
   by a non-outaged detector, even when faults disturb the evidence
   chain (the accusation path must route around them).
3. **Bit-identity across execution policies**: serial and parallel
   (worker-process) runs of the same spec produce identical traffic
   counts, crypto-operation counts, verdicts, per-injector fault
   tallies and accusation counters.

The generator confines faults to the *invariant-safe envelope* (see
:mod:`repro.sim.faults`): the accountability plane is never faulted,
losses stay on the five exchange kinds whose recovery runs through the
accusation path, delays touch at most one stage of the
exchange-to-declaration chain (two consecutive boundary crossings would
outrun the one-round redeclaration budget), and corruption of the
declaration seam is budgeted to one hit so a retry always lands in
time.  Everything in the envelope must survive; a violation is a bug.

Failures shrink greedily to a minimal still-failing spec and serialise
to the spec's one JSON form (``ScenarioSpec.to_json`` /
``ScenarioSpec.from_json``, every field kept), so a nightly CI failure
replays locally with ``repro fuzz --replay report.json``.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.scenarios.spec import ChurnEvent, ScenarioSpec
from repro.sim.execution import POLICY_NAMES
from repro.sim.faults import (
    BudgetFault,
    CorruptionFault,
    DelayFault,
    FaultSpec,
    LinkCutFault,
    LossFault,
    OutageFault,
    PartitionFault,
)

__all__ = [
    "EXCHANGE_KINDS",
    "FUZZ_STRATEGIES",
    "FuzzConfig",
    "draw_spec",
    "run_fingerprint",
    "evaluate_invariants",
    "run_iteration",
    "shrink_spec",
    "run_fuzz",
]

#: The five kinds of the Fig. 5 exchange.  Loss here is always
#: recoverable: a missing serve/ack turns into an accusation, the probe
#: re-delivers the entries, and the ProbeAck/Nack settles the case —
#: no retry of the lost message itself is ever needed.
EXCHANGE_KINDS = (
    "key_request",
    "key_response",
    "serve",
    "attestation",
    "ack",
)

#: Delay kind-sets that cross at most one stage of the
#: exchange -> declaration chain.  A delayed message is released at the
#: next round boundary and bypasses further rules, so a single stage
#: shifts the chain by one round — which the redeclaration budget and
#: the end-of-round obligation checks absorb.  Two *sequential* stages
#: delayed (say key_response, then the serve built from it) would shift
#: by two rounds and falsely convict the receiver.
DELAY_KIND_CHOICES = (
    ("key_request",),
    ("key_response",),
    ("serve", "attestation"),
    ("ack",),
    ("ack_copy", "attestation_relay"),
    ("declaration_ack",),
    ("serve", "attestation", "ack", "declaration_ack"),
)

#: A corrupted exchange-plane message is re-served by the probe, so any
#: number of hits recovers; the declaration seam only tolerates one hit
#: per declaration (the redeclaration retry must land untouched).
CORRUPT_EXCHANGE_KINDS = ("serve", "attestation", "ack")
CORRUPT_DECLARATION_KINDS = ("ack_copy", "attestation_relay")

#: Strategies whose conviction is prompt enough for short fuzz runs
#: (8-10 rounds); see tests/core/test_detection.py for the full set.
FUZZ_STRATEGIES = (
    "free-rider",
    "partial-forwarder",
    "silent-receiver",
    "declaration-skipper",
)


@dataclass(frozen=True)
class FuzzConfig:
    """Bounds for one fuzzing campaign."""

    iterations: int = 50
    seed: int = 20160627
    policies: Tuple[str, ...] = ("serial", "parallel")
    workers: int = 2
    min_nodes: int = 10
    max_nodes: int = 16
    min_rounds: int = 8
    max_rounds: int = 10
    max_faults: int = 4
    max_violations: int = 3
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not self.policies:
            raise ValueError("at least one execution policy is required")
        for policy in self.policies:
            if policy not in POLICY_NAMES:
                raise ValueError(
                    f"unknown execution policy {policy!r}; expected one "
                    f"of {POLICY_NAMES}"
                )
        if not 3 <= self.min_nodes <= self.max_nodes:
            raise ValueError("node bounds must satisfy 3 <= min <= max")
        if not 6 <= self.min_rounds <= self.max_rounds:
            raise ValueError("round bounds must satisfy 6 <= min <= max")


# ----------------------------------------------------------------------
# Spec generation
# ----------------------------------------------------------------------


def _sample_kinds(
    rng: random.Random, pool: Sequence[str]
) -> Tuple[str, ...]:
    count = rng.randint(1, len(pool))
    return tuple(sorted(rng.sample(list(pool), count)))


def _draw_fault(
    rng: random.Random,
    nodes: int,
    rounds: int,
    pool: List[int],
    allow: Dict[str, bool],
) -> Optional[FaultSpec]:
    """One random fault inside the invariant-safe envelope.

    ``pool`` holds honest, non-churned consumer ids — targeted faults
    (outage, link cut, budget, partition) never select deviants, so a
    fault can not accidentally mask the behaviour invariant 2 must
    convict.  ``allow`` gates the one-per-spec fault families.
    """
    choices = ["loss", "corruption"]
    if allow.get("delay", True):
        choices.append("delay")
    if len(pool) >= 1 and allow.get("outage", True):
        choices.append("outage")
    if len(pool) >= 2:
        choices.extend(["link-cut", "budget"])
    if len(pool) >= 3 and rounds >= 6 and allow.get("partition", True):
        choices.append("partition")
    kind = rng.choice(choices)
    if kind == "loss":
        return LossFault(
            probability=rng.uniform(0.02, 0.12),
            kinds=_sample_kinds(rng, EXCHANGE_KINDS),
        )
    if kind == "delay":
        allow["delay"] = False
        return DelayFault(
            probability=rng.uniform(0.02, 0.10),
            triggers=rng.randint(1, 30),
            kinds=rng.choice(DELAY_KIND_CHOICES),
        )
    if kind == "corruption":
        if rng.random() < 0.7:
            return CorruptionFault(
                probability=rng.uniform(0.3, 1.0),
                max_corruptions=rng.randint(1, 3),
                kinds=_sample_kinds(rng, CORRUPT_EXCHANGE_KINDS),
            )
        return CorruptionFault(
            probability=rng.uniform(0.3, 1.0),
            max_corruptions=1,
            kinds=_sample_kinds(rng, CORRUPT_DECLARATION_KINDS),
        )
    if kind == "outage":
        allow["outage"] = False
        node = rng.choice(pool)
        first = rng.randint(1, max(1, rounds - 3))
        return OutageFault(
            node_id=node,
            first_round=first,
            last_round=min(first + rng.randint(0, 1), rounds - 2),
        )
    if kind == "link-cut":
        a, b = rng.sample(pool, 2)
        return LinkCutFault(
            links=((a, b), (b, a)),
            kinds=_sample_kinds(rng, EXCHANGE_KINDS),
        )
    if kind == "budget":
        count = min(len(pool), rng.randint(1, 2))
        return BudgetFault(
            node_kbps=tuple(
                (node, round(rng.uniform(180.0, 400.0), 1))
                for node in sorted(rng.sample(pool, count))
            )
        )
    allow["partition"] = False
    group = tuple(sorted(rng.sample(pool, rng.randint(2, 3))))
    first = rng.randint(1, rounds - 4)
    return PartitionFault(
        group=group,
        first_round=first,
        last_round=min(first + rng.randint(0, 1), rounds - 3),
        kinds=_sample_kinds(rng, EXCHANGE_KINDS),
    )


def draw_spec(
    rng: random.Random, index: int, config: FuzzConfig
) -> ScenarioSpec:
    """One random scenario: deviants x churn x fault schedule."""
    nodes = rng.randint(config.min_nodes, config.max_nodes)
    rounds = rng.randint(config.min_rounds, config.max_rounds)
    consumers = list(range(1, nodes))
    n_deviants = rng.randint(0, min(3, max(1, (nodes - 1) // 4)))
    deviants = sorted(rng.sample(consumers, n_deviants))
    strategies = tuple(
        (node, rng.choice(FUZZ_STRATEGIES)) for node in deviants
    )
    honest = [c for c in consumers if c not in set(deviants)]
    churn: List[ChurnEvent] = []
    roll = rng.random()
    if deviants and roll < 0.35:
        # The ISSUE's nastiest case: a deviant leaves just before (or
        # around) its conviction; the accusation path must still settle
        # it — a leaver is indistinguishable from a refuser.
        churn.append(
            ChurnEvent(
                after_round=rng.randint(2, max(2, rounds - 4)),
                node_id=rng.choice(deviants),
            )
        )
    elif roll < 0.55 and honest:
        churn.append(
            ChurnEvent(
                after_round=rng.randint(1, rounds - 2),
                node_id=rng.choice(honest),
            )
        )
    churned = {event.node_id for event in churn}
    pool = [node for node in honest if node not in churned]
    allow: Dict[str, bool] = {}
    faults: List[FaultSpec] = []
    for _ in range(rng.randint(1, config.max_faults)):
        fault = _draw_fault(rng, nodes, rounds, pool, allow)
        if fault is not None:
            faults.append(fault)
    return ScenarioSpec(
        name=f"fuzz-{index}",
        description="randomly drawn fault/adversary scenario",
        nodes=nodes,
        rounds=rounds,
        warmup_rounds=2,
        node_strategies=strategies,
        churn=tuple(churn),
        fault_schedule=tuple(faults),
        seed=rng.randrange(1, 2**31),
    )


# ----------------------------------------------------------------------
# Running and invariants
# ----------------------------------------------------------------------


def run_fingerprint(
    spec: ScenarioSpec, policy: str, workers: int
) -> Dict[str, object]:
    """Run ``spec`` under one policy; a comparable run record.

    Every field is either an exact integer tally or derived from one,
    so equality across policies is the bit-identity invariant — any
    scheduling divergence shows up in the hash-operation count or the
    verdict set long before it would show in aggregate bandwidth.
    The oracle reads ``trusted_convicts``: discounted detectors' verdicts
    go *before* deduplicating, so other monitors' copies still convict.
    """
    result = spec.with_overrides(policy=policy, workers=workers).run()
    verdicts = tuple(
        sorted(
            (v.node, v.reason.name, v.exchange_round, v.detected_by)
            for v in result.session.all_verdicts()
        )
    )
    discounted = _excused_nodes(spec)[1]
    return {
        "messages_sent": result.messages_sent,
        "messages_dropped": result.messages_dropped,
        "messages_delayed": result.messages_delayed,
        "total_bytes": result.total_bytes,
        "crypto_hashes": result.crypto_hashes,
        "verdicts": verdicts,
        "trusted_convicts": sorted(result.session.convicted_nodes(discounted)),
        "fault_stats": result.fault_stats,
        "accusations": result.accusations,
        "continuity": result.continuity,
    }


def _excused_nodes(spec: ScenarioSpec) -> Tuple[set, set]:
    """(excused convicts, discounted detectors) for a spec.

    Deviants are convicted by design; churned and outaged nodes are
    legitimately convicted because leaving/crashing is observationally
    identical to refusing (section VI-B).  An outaged node's own
    verdicts are discounted: it judged rounds it never witnessed.
    """
    deviants = set(spec.deviant_nodes())
    churned = {event.node_id for event in spec.churn}
    outaged = {
        fault.node_id
        for fault in spec.fault_schedule
        if isinstance(fault, OutageFault)
    }
    return deviants | churned | outaged, outaged


def evaluate_invariants(
    spec: ScenarioSpec, fingerprint: Dict[str, object]
) -> List[str]:
    """Invariant 1 and 2 violations for one run record."""
    excused = _excused_nodes(spec)[0]
    deviants = set(spec.deviant_nodes())
    convicted = set(fingerprint["trusted_convicts"])
    violations = []
    false_positives = sorted(convicted - excused)
    if false_positives:
        violations.append(
            f"invariant 1: honest nodes convicted: {false_positives}"
        )
    missed = sorted(deviants - convicted)
    if missed:
        violations.append(
            f"invariant 2: seeded deviants never convicted: {missed}"
        )
    return violations


def run_iteration(
    spec: ScenarioSpec, config: FuzzConfig
) -> Tuple[List[str], Dict[str, object]]:
    """All three invariants for one spec; (violations, base record)."""
    records = {
        policy: run_fingerprint(spec, policy, config.workers)
        for policy in config.policies
    }
    base_policy = config.policies[0]
    base = records[base_policy]
    violations = []
    for policy in config.policies[1:]:
        if records[policy] != base:
            diverging = sorted(
                key for key in base if records[policy][key] != base[key]
            )
            violations.append(
                f"invariant 3: {policy} diverges from {base_policy} "
                f"on {diverging}"
            )
    violations.extend(evaluate_invariants(spec, base))
    return violations, base


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------


def _shrink_candidates(spec: ScenarioSpec) -> List[ScenarioSpec]:
    """Structurally smaller variants, most aggressive first."""
    candidates = []
    for index in range(len(spec.fault_schedule)):
        schedule = (
            spec.fault_schedule[:index] + spec.fault_schedule[index + 1:]
        )
        candidates.append(
            dataclasses.replace(spec, fault_schedule=schedule)
        )
    for index in range(len(spec.churn)):
        churn = spec.churn[:index] + spec.churn[index + 1:]
        candidates.append(dataclasses.replace(spec, churn=churn))
    for index in range(len(spec.node_strategies)):
        strategies = (
            spec.node_strategies[:index]
            + spec.node_strategies[index + 1:]
        )
        candidates.append(
            dataclasses.replace(spec, node_strategies=strategies)
        )
    return candidates


def shrink_spec(
    spec: ScenarioSpec,
    config: FuzzConfig,
    max_runs: int = 30,
) -> ScenarioSpec:
    """Greedily remove faults/churn/deviants while the spec still fails.

    Each probe is a full multi-policy run, so the budget is capped; the
    result is a locally minimal spec — removing any single remaining
    ingredient makes the violation disappear.
    """
    current = spec
    runs = 0
    progress = True
    while progress and runs < max_runs:
        progress = False
        for candidate in _shrink_candidates(current):
            if runs >= max_runs:
                break
            runs += 1
            try:
                violations, _ = run_iteration(candidate, config)
            except Exception:
                continue  # an invalid reduction is not a reduction
            if violations:
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------


def run_fuzz(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
    replay_spec: Optional[ScenarioSpec] = None,
) -> Dict[str, object]:
    """Run a fuzzing campaign; a JSON-ready report.

    ``replay_spec`` short-circuits generation: the single given spec is
    checked once (the ``repro fuzz --replay`` path).  Violating specs
    are shrunk (when configured) and embedded in the report for replay.
    """
    rng = random.Random(config.seed)
    report: Dict[str, object] = {
        "config": dataclasses.asdict(config),
        "iterations": 0,
        "violations": [],
        "totals": {
            "deviants": 0,
            "faults": 0,
            "convictions": 0,
            "messages_dropped": 0,
            "messages_delayed": 0,
        },
    }
    totals = report["totals"]
    iterations = 1 if replay_spec is not None else config.iterations
    for index in range(iterations):
        if replay_spec is not None:
            spec = replay_spec
        else:
            spec = draw_spec(rng, index, config)
        violations, record = run_iteration(spec, config)
        report["iterations"] += 1
        totals["deviants"] += len(spec.deviant_nodes())
        totals["faults"] += len(spec.fault_schedule)
        totals["convictions"] += len(
            {v[0] for v in record["verdicts"]}
        )
        totals["messages_dropped"] += record["messages_dropped"]
        totals["messages_delayed"] += record["messages_delayed"]
        if violations:
            shrunk = spec
            if config.shrink and replay_spec is None:
                if progress is not None:
                    progress(
                        f"iteration {index}: VIOLATION — shrinking..."
                    )
                shrunk = shrink_spec(spec, config)
            report["violations"].append(
                {
                    "iteration": index,
                    "violations": violations,
                    "spec": shrunk.to_json(),
                    "original_spec": spec.to_json(),
                }
            )
            if progress is not None:
                for line in violations:
                    progress(f"iteration {index}: {line}")
            if len(report["violations"]) >= config.max_violations:
                break
        elif progress is not None and (index + 1) % 10 == 0:
            progress(f"{index + 1}/{iterations} iterations clean")
    report["ok"] = not report["violations"]
    return report
