"""The six benchmark workloads, as data.

Each workload names a registry scenario, the overrides that size it,
where it is placed (one process, two worker processes, two daemons)
and what a correct run of it looks like.  ``why`` is the sentence
``BENCHMARK.json`` and the README carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "DEFAULT_SEED",
    "FINGERPRINT_FIELDS",
    "WORKLOADS",
    "Workload",
    "get_workload",
]

#: The registry's own seed; fingerprints at this seed are committed in
#: ``bench/expected.json``.
DEFAULT_SEED = 20160627

#: What two placements of one simulated run must agree on.
FINGERPRINT_FIELDS: Tuple[str, ...] = (
    "messages",
    "total_bytes",
    "hashes",
    "mean_kbps",
    "meter_sha256",
    "verdicts",
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark input.

    Attributes:
        scenario: registry name the spec is resolved from.
        overrides: ``ScenarioSpec`` fields replaced at full size.
        quick: fields replaced on top for the ``--quick`` self-test.
        config: ``PagConfig`` overrides handed to ``build_pag_with``.
        placement: ``"inline"`` (the spec's own policy, one session in
            the workload process) or ``"fleet"`` (two ``repro daemon``
            processes under a coordinator in the workload process).
        reference: workload whose same-seed fingerprint this one must
            reproduce, on ``FINGERPRINT_FIELDS``.
        deviants_convicted: a correct run convicts exactly the spec's
            deviant nodes; otherwise it reaches no verdict at all.
        replay_signatures: the traced pass replays recorded signing
            payloads through real RSA-2048 (Table I's anchor); the
            answer does not depend on the workload, so one asks.
        probe: the machine-speed probe (``bench.probe``) the passes
            sample while they run and whose mean scales their times:
            the one that feels the machine's contention as the
            workload's own code does.
        seed_per_pass: pass ``k`` of a run resolves the spec at
            ``--seed + k`` instead of ``--seed``.  For a workload whose
            cost is a lottery on the seed, so that a run averages
            several draws instead of repeating one.
    """

    name: str
    why: str
    scenario: str
    overrides: Dict[str, Any] = field(default_factory=dict)
    quick: Dict[str, Any] = field(default_factory=dict)
    config: Dict[str, Any] = field(default_factory=dict)
    placement: str = "inline"
    reference: Optional[str] = None
    deviants_convicted: bool = False
    replay_signatures: bool = False
    probe: str = "interpreter"
    seed_per_pass: bool = False

    def sizes(self, quick: bool) -> Dict[str, Any]:
        """The spec overrides of a full-size or a quick run."""
        return {**self.overrides, **(self.quick if quick else {})}


#: Registry fig9 is 120 nodes x 15 rounds; 10 rounds keep a pass near
#: three seconds so that three passes fit one timed run.
_FIG9 = {"rounds": 10}
_QUICK_FIG9 = {"nodes": 16, "rounds": 5, "warmup_rounds": 2}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="fig9_serial",
        why=(
            "registry fig9 at rounds=10 (120 nodes, honest, serial): the "
            "ROADMAP headline row; hashing ~45%, node/monitor/engine "
            "logic the rest; wire, IPC and plane idle"
        ),
        scenario="fig9",
        overrides=_FIG9,
        quick=_QUICK_FIG9,
        replay_signatures=True,
    ),
    Workload(
        name="fig9_parallel_2",
        why=(
            "the fig9_serial spec under policy=parallel, workers=2: same "
            "simulated run, other placement; pickle/IPC, replica "
            "rebuild and barrier wait are the only added work"
        ),
        scenario="fig9",
        overrides={**_FIG9, "policy": "parallel", "workers": 2},
        quick=_QUICK_FIG9,
        reference="fig9_serial",
    ),
    Workload(
        name="fleet_unix_2",
        why=(
            "the fig9_serial spec across two repro daemon processes on "
            "unix sockets: the deployment path; wire codec, transport, "
            "BSP barrier are pure overhead here, zero in fig9_serial"
        ),
        scenario="fig9",
        overrides=_FIG9,
        quick=_QUICK_FIG9,
        # The serial verdict set the fleet must match is empty (the
        # spec is honest, and fig9_serial checks it at the same seed),
        # so the no-verdict check is that match and costs no serial
        # reference pass.
        placement="fleet",
    ),
    Workload(
        name="table1_paper",
        why=(
            "registry table1 at nodes=6, rounds=2, warmup_rounds=1 "
            "with 512-bit sim modulus and primes: Table I at paper "
            "sizes; hashing + prime generation >95% of the run"
        ),
        scenario="table1",
        overrides={"nodes": 6, "rounds": 2, "warmup_rounds": 1},
        quick={"nodes": 4, "rounds": 1, "warmup_rounds": 0},
        config={"sim_modulus_bits": 512, "sim_prime_bits": 512},
        # 36 primes a pass at ~25 sieve windows: the count of windows
        # the search needs moves run_s by 7% from one seed to the next.
        probe="bigint",
        seed_per_pass=True,
    ),
    Workload(
        name="pop_500k",
        why=(
            "registry fig9-1m at population=500000, nodes=30, "
            "rounds=8: the population tier; numpy plane and columnar "
            "spill do the work, memory is a first-class result"
        ),
        scenario="fig9-1m",
        overrides={"population": 500_000, "nodes": 30, "rounds": 8},
        quick={
            "population": 20_000,
            "nodes": 12,
            "rounds": 4,
            "warmup_rounds": 1,
        },
    ),
    Workload(
        name="accuse_mixed",
        why=(
            "registry coalition-mixed at nodes=60, rounds=14: five "
            "deviants, 200+ accusations, probes, nacks and deadline "
            "convictions; the slow path of core.node/core.monitor"
        ),
        scenario="coalition-mixed",
        overrides={"nodes": 60, "rounds": 14},
        quick={"nodes": 21, "rounds": 6, "warmup_rounds": 2},
        deviants_convicted=True,
    ),
)


def get_workload(name: str) -> Workload:
    for workload in WORKLOADS:
        if workload.name == name:
            return workload
    raise KeyError(
        f"unknown workload {name!r}; known: "
        f"{', '.join(w.name for w in WORKLOADS)}"
    )
