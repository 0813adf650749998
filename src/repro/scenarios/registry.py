"""Registry of the paper's named scenarios.

Every reproduction entry point — ``repro run --scenario NAME``, the
``bench/`` workloads, and the integration tests — resolves its
workload here, so the paper's evaluation matrix is declared exactly
once.  Registering a new scenario
(``register_scenario(ScenarioSpec(name="my-workload", ...))``)
immediately makes it runnable from the CLI.

Specs carry an execution ``policy`` knob (serial / parallel, which are
bit-identical; see :mod:`repro.sim.execution`), so a scenario can
declare that it defaults to worker processes; ``repro run --policy``
and an explicit policy passed to :meth:`ScenarioSpec.run` both
override it.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.scenarios.spec import (
    AdversaryGroup,
    ChurnEvent,
    JoinEvent,
    RateStep,
    ScenarioSpec,
)
from repro.sim.faults import (
    CorruptionFault,
    DelayFault,
    LossFault,
    OutageFault,
)

__all__ = [
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(
    spec: ScenarioSpec, replace: bool = False
) -> ScenarioSpec:
    """Add a spec under its name; refuses silent redefinition."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str, **overrides: Any) -> ScenarioSpec:
    """Look up a named spec, optionally overriding fields.

    ``None`` overrides are ignored (CLI flags pass through untouched).
    """
    try:
        spec = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None
    return spec.with_overrides(**overrides)


def scenario_names() -> List[str]:
    return sorted(_REGISTRY)


def all_scenarios() -> List[ScenarioSpec]:
    return [_REGISTRY[name] for name in scenario_names()]


# ---------------------------------------------------------------------------
# The paper's evaluation matrix (section VII).  Membership defaults are
# simulator-friendly; the paper-scale values are one override away
# (``repro run --scenario fig7 --nodes 432``).
# ---------------------------------------------------------------------------

register_scenario(ScenarioSpec(
    name="fig7",
    description="bandwidth CDF of a full PAG session (vs fig7-acting)",
    paper_reference=(
        "Fig. 7: 432 nodes, 300 Kbps, 3 monitors — PAG ~1050 Kbps mean, "
        "AcTinG ~460"
    ),
    nodes=60,
    rounds=12,
    warmup_rounds=4,
))

register_scenario(ScenarioSpec(
    name="fig7-acting",
    description="the AcTinG comparator run of Fig. 7",
    paper_reference="Fig. 7: AcTinG nodes consume ~460 Kbps on average",
    protocol="acting",
    nodes=60,
    rounds=12,
    warmup_rounds=4,
    seed=2014,  # the AcTinG baseline's historical seed
))

register_scenario(ScenarioSpec(
    name="fig8",
    description="packet-level anchor for the update-size sweep",
    paper_reference=(
        "Fig. 8: 1000 nodes, 300 Kbps — ~1900 Kbps at 1 kb updates "
        "falling below ~400 at 100 kb (sweep itself is closed-form)"
    ),
    nodes=40,
    rounds=12,
    warmup_rounds=4,
))

register_scenario(ScenarioSpec(
    name="fig9",
    description="scalability anchor: the simulator run validating the model",
    paper_reference=(
        "Fig. 9: PAG ~1 Mbps at 10^3 nodes to 2.5 Mbps at 10^6 "
        "(large N from the validated closed form)"
    ),
    nodes=120,
    rounds=15,
    warmup_rounds=4,
))

register_scenario(ScenarioSpec(
    name="fig9-parallel",
    description="fig9 on two worker processes (policy=parallel)",
    paper_reference=(
        "Fig. 9 anchor run; execution-policy equivalence means the "
        "numbers match fig9 bit for bit (tests/differential)"
    ),
    nodes=120,
    rounds=15,
    warmup_rounds=4,
    policy="parallel",
    workers=2,
))

register_scenario(ScenarioSpec(
    name="fig9-1m",
    description=(
        "fig9 at deployment scale: a million-node population tier over "
        "a 120-node full-fidelity cohort"
    ),
    paper_reference=(
        "Fig. 9: PAG ~2.5 Mbps per node at 10^6 nodes; the vectorised "
        "honest plane is calibrated against the sampled cohort "
        "(see PERFORMANCE.md for the validation methodology)"
    ),
    nodes=120,
    rounds=60,
    warmup_rounds=4,
    population=1_000_000,
))

register_scenario(ScenarioSpec(
    name="fig10",
    description="coalition privacy topology (Monte-Carlo + closed form)",
    paper_reference=(
        "Fig. 10: interactions discovered vs attacker fraction; PAG "
        "tracks the theoretical minimum"
    ),
    nodes=300,
    rounds=3,
    warmup_rounds=1,
    monitors_per_node=3,
    fanout=3,
))

register_scenario(ScenarioSpec(
    name="table1",
    description="crypto-operation counting run (signatures, hashes)",
    paper_reference=(
        "Table I: 33 RSA signatures/s/node at f = fm = 3; hashes linear "
        "in the chunk rate"
    ),
    nodes=40,
    rounds=12,
    warmup_rounds=4,
    fanout=3,
    monitors_per_node=3,
))

register_scenario(ScenarioSpec(
    name="table2",
    description="sustainable-quality anchor (quality matrix is closed-form)",
    paper_reference=(
        "Table II: PAG 144p on 1.5 Mbps links up to 1080p from 100 Mbps"
    ),
    nodes=40,
    rounds=12,
    warmup_rounds=4,
))

register_scenario(ScenarioSpec(
    name="selfish",
    description="one free-rider among correct nodes (detection demo)",
    paper_reference=(
        "Section VI: a free-riding node is convicted by its monitors"
    ),
    nodes=20,
    rounds=12,
    warmup_rounds=2,
    adversaries=(AdversaryGroup(strategy="free-rider", count=1),),
))

register_scenario(ScenarioSpec(
    name="detect",
    description="one mid-ring deviant node (the CLI detection demo)",
    paper_reference=(
        "Section VI: a deviant consumer is convicted by its monitors; "
        "the strategy is swappable (repro run --scenario detect "
        "--strategy silent-receiver)"
    ),
    nodes=20,
    rounds=12,
    warmup_rounds=2,
    node_strategies=((10, "free-rider"),),
))

register_scenario(ScenarioSpec(
    name="coalition-third",
    description="a third of the consumers free-ride in concert",
    paper_reference=(
        "Section VII-B: collective deviations are detected node by node"
    ),
    nodes=24,
    rounds=16,
    warmup_rounds=4,
    adversaries=(AdversaryGroup(strategy="free-rider", fraction=0.34),),
))

register_scenario(ScenarioSpec(
    name="churn",
    description="two nodes crash mid-stream with traffic in flight",
    paper_reference=(
        "Section IV-A: omission handling; a crashed node is convicted "
        "as unresponsive, the stream keeps playing"
    ),
    nodes=24,
    rounds=16,
    warmup_rounds=4,
    churn=(ChurnEvent(after_round=6, node_id=5),
           ChurnEvent(after_round=9, node_id=11)),
))

register_scenario(ScenarioSpec(
    name="join-churn",
    description="nodes join mid-session; monitor duties are reassigned",
    paper_reference=(
        "Section II-A/VII: dynamic memberships — arrivals are announced "
        "ahead (stable monitor sets, section V-C), excluded from "
        "successor draws until present, and enter the declaration "
        "rotation the round they arrive; one original node also crashes"
    ),
    nodes=20,
    rounds=14,
    warmup_rounds=4,
    arrivals=(JoinEvent(after_round=2, node_id=7),
              JoinEvent(after_round=5, node_id=13)),
    churn=(ChurnEvent(after_round=8, node_id=4),),
))

register_scenario(ScenarioSpec(
    name="coalition-mixed",
    description="a coalition mixing per-node selfish strategies",
    paper_reference=(
        "Section VI-B: every deviation maps to one behaviour hook; a "
        "coalition whose members cheat differently is still convicted "
        "node by node"
    ),
    nodes=21,
    rounds=14,
    warmup_rounds=4,
    node_strategies=(
        (3, "free-rider"),
        (8, "partial-forwarder"),
        (15, "declaration-skipper"),
    ),
    adversaries=(AdversaryGroup(strategy="silent-receiver", count=2),),
))

register_scenario(ScenarioSpec(
    name="rate-ramp",
    description="the source ramps its send rate mid-stream (150->300->600)",
    paper_reference=(
        "Table I quality ladder: adaptive sources switch rates; "
        "bandwidth and crypto load must track the ramp, detection "
        "stays quiet"
    ),
    nodes=20,
    rounds=12,
    warmup_rounds=4,
    stream_rate_kbps=150.0,
    rate_schedule=(RateStep(from_round=4, rate_kbps=300.0),
                   RateStep(from_round=8, rate_kbps=600.0)),
))

register_scenario(ScenarioSpec(
    name="fault-fuzz",
    description="mixed fault schedule (loss, delay, corruption, outage)",
    paper_reference=(
        "Section VI-B robustness: lossy links, one-round message "
        "delays, in-flight corruption and a crashed node leave every "
        "correct node unconvicted, while the seeded free-rider is "
        "still caught through the accusation path"
    ),
    nodes=18,
    rounds=10,
    warmup_rounds=3,
    node_strategies=((5, "free-rider"),),
    fault_schedule=(
        LossFault(
            probability=0.05,
            kinds=("key_request", "key_response", "serve",
                   "attestation", "ack"),
        ),
        DelayFault(
            probability=0.05, triggers=6,
            kinds=("serve", "attestation", "ack", "declaration_ack"),
        ),
        CorruptionFault(
            probability=1.0, max_corruptions=2,
            kinds=("serve", "ack"),
        ),
        OutageFault(node_id=11, first_round=2, last_round=3),
    ),
))
