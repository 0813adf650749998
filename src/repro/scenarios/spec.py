"""Declarative simulation scenarios.

The paper's evaluation is a matrix of named workloads — membership
sizes, monitor counts, adversary mixes, churn, stream rates (Figs.
7-10, Tables I-II).  A :class:`ScenarioSpec` captures one cell of that
matrix as data: what to build, how long to run it, and which window to
measure.  Everything that used to be hand-wired per call site (CLI
subcommands, ``bench/`` workloads, integration tests) builds from a
spec instead, so a new workload is one declaration, not another
copy of the session plumbing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Tuple,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.sim.execution import POLICY_NAMES, ExecutionPolicy, make_policy
from repro.sim.faults import FAULT_SPEC_TYPES, FaultSpec
from repro.sim.metrics import cdf_points

if TYPE_CHECKING:
    from repro.core import PagSession
    from repro.core.config import PagConfig

__all__ = [
    "AdversaryGroup",
    "ChurnEvent",
    "JoinEvent",
    "RateStep",
    "RESULT_SCHEMA_VERSION",
    "ScenarioSpec",
    "ScenarioResult",
    "SELFISH_STRATEGIES",
]

#: Version stamp of the :meth:`ScenarioResult.summary` payload (the
#: ``repro run --json`` output).  Consumers branch on this, so it is
#: golden-locked (``tests/scenarios/test_result_schema.py``): bump it
#: whenever a key is added, removed or changes meaning, and document
#: the change in ``docs/RESULTS.md``.
RESULT_SCHEMA_VERSION = 1

#: CLI-friendly name -> class name in :mod:`repro.adversary.selfish`.
SELFISH_STRATEGIES = {
    "free-rider": "FreeRider",
    "partial-forwarder": "PartialForwarder",
    "silent-receiver": "SilentReceiver",
    "declaration-skipper": "DeclarationSkipper",
    "contact-avoider": "ContactAvoider",
    "lying-monitor": "LyingMonitor",
    "stealthy-free-rider": "StealthyFreeRider",
}


@dataclass(frozen=True)
class AdversaryGroup:
    """A block of deviant nodes sharing one strategy.

    Args:
        strategy: key of :data:`SELFISH_STRATEGIES`.
        count: absolute number of deviants; used when non-zero.
        fraction: deviant share of the consumer population (rounded
            down), used when ``count`` is zero.
    """

    strategy: str
    count: int = 0
    fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.strategy not in SELFISH_STRATEGIES:
            raise ValueError(
                f"unknown adversary strategy {self.strategy!r}; expected "
                f"one of {sorted(SELFISH_STRATEGIES)}"
            )
        if self.count < 0 or not (0.0 <= self.fraction <= 1.0):
            raise ValueError("adversary count/fraction out of range")

    def size(self, n_consumers: int) -> int:
        if self.count:
            return min(self.count, n_consumers)
        return int(n_consumers * self.fraction)


@dataclass(frozen=True)
class ChurnEvent:
    """One node leaving the system after a given round completes."""

    after_round: int
    node_id: int

    def __post_init__(self) -> None:
        if self.after_round < 0:
            raise ValueError("churn round must be non-negative")


@dataclass(frozen=True)
class JoinEvent:
    """One node arriving after a given round completes.

    The node is announced in the directory from session start (so its
    stable monitor set exists immediately) but excluded from successor
    draws and absent from the engine until round ``after_round``
    finishes; it first participates in round ``after_round + 1``.
    """

    after_round: int
    node_id: int

    def __post_init__(self) -> None:
        if self.after_round < 0:
            raise ValueError("join round must be non-negative")


@dataclass(frozen=True)
class RateStep:
    """One step of a per-round send-rate schedule: from ``from_round``
    on, the source streams at ``rate_kbps``."""

    from_round: int
    rate_kbps: float

    def __post_init__(self) -> None:
        if self.from_round < 0:
            raise ValueError("rate step round must be non-negative")
        if self.rate_kbps <= 0:
            raise ValueError("rate step must set a positive rate")


@dataclass(frozen=True)
class ScenarioSpec:
    """One named cell of the paper's evaluation matrix, as data.

    Attributes:
        name: registry key (``fig7``, ``table2``, ...).
        description: one line for ``repro scenarios`` listings.
        paper_reference: the figure/table and reported values reproduced.
        protocol: ``"pag"`` or ``"acting"`` (the baseline comparator).
        nodes: membership size including the source.
        rounds: rounds to simulate.
        warmup_rounds: rounds excluded from steady-state measurements.
        stream_rate_kbps / update_bytes: the source workload.
        fanout: successors per node; None picks the paper's
            size-dependent default (~log10 N).
        monitors_per_node: monitor-set size; None mirrors the fanout.
        adversaries: deviant node blocks, placed deterministically
            (evenly spaced over the consumer ids).
        node_strategies: explicit per-node strategy map, as
            ``(node_id, strategy)`` pairs — mixed coalitions pin each
            member's deviation exactly (the ``coalition-mixed``
            scenario).  Map entries claim their ids first; adversary
            *groups* then fill the remaining consumers.
        churn: nodes leaving after given rounds.
        arrivals: nodes joining after given rounds (PAG protocol only);
            see :class:`JoinEvent` for the membership semantics.
        rate_schedule: per-round send-rate ramp for the source, as
            :class:`RateStep` entries with strictly increasing rounds
            (PAG protocol only); ``stream_rate_kbps`` applies before
            the first step.
        fault_schedule: declarative fault injectors
            (:class:`~repro.sim.faults.FaultSpec` entries: ``LossFault``,
            ``DelayFault``, ``PartitionFault``, ``OutageFault``,
            ``LinkCutFault``, ``CorruptionFault``, ``BudgetFault``),
            built at session construction with rng streams derived from
            ``seed`` and installed on the parent network only — replica
            workers run in capture mode, so every execution policy sees
            the identical fault schedule (PAG protocol only).
        detection_enabled: run the monitoring state machine.
        seed: root seed for all session randomness.
        policy: default execution policy name (``"serial"`` or
            ``"parallel"``, one worker process per shard); None lets the
            engine default (serial) apply.  An explicit policy passed
            to :meth:`run` always wins.  All policies are bit-identical
            — this knob selects where nodes execute, never a different
            schedule.
        population: total system size of the population tier; 0 (the
            default) disables it.  When set, ``nodes`` becomes the
            full-fidelity cohort (the sampled honest nodes plus every
            deviant) and ids ``nodes..population-1`` run as the
            vectorised honest plane (see :mod:`repro.sim.population`).
            The plane attaches to the engine, not the policy, so a
            population spec runs under every execution policy.
        population_spill_dir: directory for the plane's columnar
            per-round spill files; None uses an owned temporary
            directory (removed at collection).
        workers: worker-process count of the parallel policy (ignored
            by the others).
    """

    name: str
    description: str = ""
    paper_reference: str = ""
    protocol: str = "pag"
    nodes: int = 30
    rounds: int = 15
    warmup_rounds: int = 4
    stream_rate_kbps: float = 300.0
    update_bytes: int = 938
    fanout: Optional[int] = None
    monitors_per_node: Optional[int] = None
    adversaries: Tuple[AdversaryGroup, ...] = ()
    node_strategies: Tuple[Tuple[int, str], ...] = ()
    churn: Tuple[ChurnEvent, ...] = ()
    arrivals: Tuple[JoinEvent, ...] = ()
    rate_schedule: Tuple[RateStep, ...] = ()
    fault_schedule: Tuple[FaultSpec, ...] = ()
    detection_enabled: bool = True
    seed: int = 20160627
    policy: Optional[str] = None
    workers: int = 4
    population: int = 0
    population_spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.policy is not None and self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown execution policy {self.policy!r}; expected "
                f"one of {POLICY_NAMES}"
            )
        self._validate_population()
        if self.workers < 1:
            raise ValueError("worker count must be at least 1")
        if self.protocol not in ("pag", "acting"):
            raise ValueError(
                f"unknown protocol {self.protocol!r}; "
                "expected 'pag' or 'acting'"
            )
        if self.nodes < 2:
            raise ValueError("a scenario needs a source and a consumer")
        fanout, monitors = self._resolved_fanout()
        for name, size in (("fanout", fanout), ("monitor set size", monitors)):
            if not 1 <= size < self.nodes:
                raise ValueError(
                    f"{name} {size} invalid for {self.nodes} nodes"
                )
        if self.rounds < 1:
            raise ValueError("a scenario must run at least one round")
        if self.stream_rate_kbps <= 0:
            raise ValueError(
                f"stream rate must be positive, got {self.stream_rate_kbps}"
            )
        if not 0 <= self.warmup_rounds < self.rounds:
            raise ValueError(
                f"warmup ({self.warmup_rounds}) must leave measurable "
                f"rounds (have {self.rounds})"
            )
        for event in self.churn:
            if event.node_id <= 0 or event.node_id >= self.nodes:
                raise ValueError(
                    f"churn names node {event.node_id}, outside the "
                    f"consumer ids 1..{self.nodes - 1}"
                )
            if event.after_round >= self.rounds - 1:
                raise ValueError(
                    f"churn after round {event.after_round} never takes "
                    f"effect in a {self.rounds}-round scenario"
                )
        if self.arrivals and self.protocol != "pag":
            raise ValueError(
                "join churn (arrivals) is modelled for the PAG protocol "
                "only"
            )
        if self.rate_schedule and self.protocol != "pag":
            raise ValueError(
                "rate schedules are modelled for the PAG protocol only"
            )
        joins: Dict[int, int] = {}
        for event in self.arrivals:
            if event.node_id <= 0 or event.node_id >= self.nodes:
                raise ValueError(
                    f"arrival names node {event.node_id}, outside the "
                    f"consumer ids 1..{self.nodes - 1}"
                )
            if event.node_id in joins:
                raise ValueError(
                    f"node {event.node_id} has two arrival events"
                )
            if event.after_round >= self.rounds - 1:
                raise ValueError(
                    f"arrival after round {event.after_round} never takes "
                    f"effect in a {self.rounds}-round scenario"
                )
            joins[event.node_id] = event.after_round
        for event in self.churn:
            joined = joins.get(event.node_id)
            if joined is not None and event.after_round <= joined:
                raise ValueError(
                    f"node {event.node_id} leaves after round "
                    f"{event.after_round} but only joins after round "
                    f"{joined}"
                )
        if self.rate_schedule:
            from repro.gossip.source import validate_rate_steps

            validate_rate_steps(
                (step.from_round, step.rate_kbps)
                for step in self.rate_schedule
            )
            for step in self.rate_schedule:
                if step.from_round >= self.rounds:
                    raise ValueError(
                        f"rate step at round {step.from_round} never takes "
                        f"effect in a {self.rounds}-round scenario"
                    )
        if self.fault_schedule:
            if self.protocol != "pag":
                raise ValueError(
                    "fault schedules are modelled for the PAG protocol "
                    "only"
                )
            from repro.core.messages import wire_kinds

            known_kinds = wire_kinds()
            for index, fault in enumerate(self.fault_schedule):
                if not isinstance(fault, FaultSpec):
                    raise ValueError(
                        f"fault_schedule[{index}] must be a FaultSpec "
                        f"declaration, got {fault!r}"
                    )
                fault.validate_for(self.nodes, self.rounds)
                unknown = set(getattr(fault, "kinds", ())) - known_kinds
                if unknown:
                    raise ValueError(
                        f"fault_schedule[{index}] names unknown message "
                        f"kinds {sorted(unknown)}"
                    )
        n_consumers = self.nodes - 1
        mapped: Dict[int, str] = {}
        for node_id, strategy in self.node_strategies:
            if strategy not in SELFISH_STRATEGIES:
                raise ValueError(
                    f"unknown strategy {strategy!r} for node {node_id}; "
                    f"expected one of {sorted(SELFISH_STRATEGIES)}"
                )
            if node_id <= 0 or node_id >= self.nodes:
                raise ValueError(
                    f"strategy map names node {node_id}, outside the "
                    f"consumer ids 1..{self.nodes - 1}"
                )
            if node_id in mapped:
                raise ValueError(
                    f"node {node_id} appears twice in the strategy map"
                )
            mapped[node_id] = strategy
        total_deviants = len(mapped) + sum(
            group.size(n_consumers) for group in self.adversaries
        )
        if total_deviants > n_consumers:
            raise ValueError(
                f"adversary groups and the strategy map claim "
                f"{total_deviants} nodes but the scenario has only "
                f"{n_consumers} consumers"
            )

    def _validate_population(self) -> None:
        """Population-tier knob validation (clear errors, fail early)."""
        if self.population_spill_dir is not None and self.population <= 0:
            raise ValueError(
                "population_spill_dir is a population-tier knob; set "
                "population first"
            )
        if self.population <= 0:
            return
        if self.protocol != "pag":
            raise ValueError(
                "the population tier is modelled for the PAG protocol "
                "only"
            )
        if self.population <= self.nodes:
            raise ValueError(
                f"population ({self.population}) must exceed the "
                f"full-fidelity cohort sample ({self.nodes} nodes); "
                "the sample size must be smaller than the population"
            )
        if self.fault_schedule:
            raise ValueError(
                "fault schedules are not modelled in the population "
                "tier (the calibrated plane assumes an unfaulted "
                "honest majority)"
            )
        if self.population_spill_dir is not None:
            import os

            spill = self.population_spill_dir
            if not os.path.isdir(spill):
                raise ValueError(
                    f"population_spill_dir {spill!r} is not an "
                    "existing directory"
                )
            if not os.access(spill, os.W_OK):
                raise ValueError(
                    f"population_spill_dir {spill!r} is not writable"
                )
        # Deviants must live inside the full-fidelity cohort: the plane
        # is honest by construction.  Group *sizes* are checked against
        # the cohort consumers in __post_init__; explicit id maps
        # (node_strategies, churn, arrivals) are range-checked there
        # too, so anything naming an id >= nodes already failed.

    # -- derived construction ----------------------------------------------

    def with_overrides(self, **overrides: Any) -> "ScenarioSpec":
        """A copy with fields replaced (``nodes=240``, ``rounds=60``...).

        ``None`` values are ignored so CLI flags can be passed through
        unconditionally.
        """
        cleaned = {k: v for k, v in overrides.items() if v is not None}
        return dataclasses.replace(self, **cleaned) if cleaned else self

    # -- the one serialised form ---------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        """Every field as JSON-ready data; :meth:`from_json` inverts it.

        The replay format of ``repro fuzz`` and the payload of the daemon
        join handshake.  Nested declarations become objects of their
        fields, a fault entry carries its ``kind`` tag, and tuples become
        lists.
        """
        return _encode(self)

    @classmethod
    def from_json(cls, data: Any) -> "ScenarioSpec":
        """The spec :meth:`to_json` wrote, rebuilt exactly.

        Driven by the field annotations: nested tuples and declarations
        are restored by type.  An unknown field or fault kind, a missing
        field or a value of the wrong shape raises a ``ValueError``
        naming the field.
        """
        return _decode_fields(cls, data, "spec")

    def build_config(self, **config_overrides: Any) -> "PagConfig":
        """The :class:`~repro.core.config.PagConfig` this spec implies."""
        from repro.core.config import PagConfig

        overrides = dict(
            stream_rate_kbps=self.stream_rate_kbps,
            update_bytes=self.update_bytes,
            detection_enabled=self.detection_enabled,
            seed=self.seed,
        )
        if self.rate_schedule:
            overrides["rate_schedule"] = tuple(
                (step.from_round, step.rate_kbps)
                for step in self.rate_schedule
            )
        overrides["fanout"] = self._resolved_fanout()[0]
        if self.monitors_per_node is not None:
            overrides["monitors_per_node"] = self.monitors_per_node
        overrides.update(config_overrides)
        return PagConfig.for_system_size(self.nodes, **overrides)

    def _resolved_fanout(self) -> Tuple[int, int]:
        """``(fanout, monitor-set size)``: unset, the size-dependent default
        of the population sampled, else of the cohort; monitors mirror it."""
        from repro.membership.views import default_fanout

        fanout = self.fanout
        if fanout is None:
            fanout = default_fanout(self.population or self.nodes)
        monitors = self.monitors_per_node
        return fanout, fanout if monitors is None else monitors

    def deviant_nodes(self) -> Dict[int, str]:
        """Node id -> strategy name, placed evenly over the consumers.

        Placement is deterministic (a function of the spec alone): the
        explicit ``node_strategies`` map claims its ids first, then
        each group's deviants are spread across the consumer id range
        so coalitions do not cluster around the source, skipping ids
        already claimed by the map or earlier groups.
        """
        n_consumers = self.nodes - 1
        taken: Dict[int, str] = dict(self.node_strategies)
        for group in self.adversaries:
            size = group.size(n_consumers)
            if size == 0:
                continue
            stride = max(1, n_consumers // size)
            placed = 0
            candidate = 1 + stride // 2
            while placed < size:
                node_id = (candidate - 1) % n_consumers + 1
                if node_id not in taken:
                    taken[node_id] = group.strategy
                    placed += 1
                    candidate += stride
                else:
                    candidate += 1
        return taken

    def build(
        self, execution_policy: Optional[ExecutionPolicy] = None
    ) -> Any:
        """Instantiate the session (PAG or AcTinG) this spec describes.

        Churn events are wired as round hooks on the simulator, so
        ``session.run(spec.rounds)`` replays the whole schedule.
        """
        if self.protocol == "acting":
            return self._build_acting(execution_policy)
        return self._build_pag(execution_policy)

    def build_pag_with(
        self,
        execution_policy: Optional[ExecutionPolicy] = None,
        **config_overrides: Any,
    ) -> "PagSession":
        """PAG session with extra :class:`PagConfig` overrides.

        For ablation sweeps over knobs the spec does not model
        (``buffermap_depth=2``, ``monitor_cross_checks=True``, ...).
        """
        return self._build_pag(execution_policy, **config_overrides)

    def _build_pag(
        self,
        execution_policy: Optional[ExecutionPolicy],
        **config_overrides: Any,
    ) -> "PagSession":
        import repro.adversary.selfish as selfish
        from repro.core import PagSession

        behaviors = {
            node_id: getattr(selfish, SELFISH_STRATEGIES[strategy])()
            for node_id, strategy in self.deviant_nodes().items()
        }
        arrivals = {
            event.node_id: event.after_round + 1 for event in self.arrivals
        }
        session = PagSession.create(
            self.nodes,
            config=self.build_config(**config_overrides),
            behaviors=behaviors or None,
            execution_policy=execution_policy,
            arrivals=arrivals or None,
        )
        self._wire_membership(session.simulator, session)
        self._wire_faults(session)
        self._bind_policy(execution_policy, session)
        if self.population > 0:
            from repro.sim.population import wire_population

            wire_population(self, session)
        return session

    def _build_acting(
        self, execution_policy: Optional[ExecutionPolicy]
    ) -> Any:
        from repro.baselines.acting import ActingConfig, ActingSession

        fanout, monitors = self._resolved_fanout()
        config = ActingConfig(
            fanout=fanout,
            monitors_per_node=monitors,
            stream_rate_kbps=self.stream_rate_kbps,
            update_bytes=self.update_bytes,
            seed=self.seed,
        )
        selfish_ids = set(self.deviant_nodes())
        session = ActingSession.create(
            self.nodes, config=config, selfish_nodes=selfish_ids or None
        )
        if execution_policy is not None:
            session.simulator.policy = execution_policy
        self._wire_membership(session.simulator, session)
        self._bind_policy(execution_policy, session)
        return session

    def cohort_equivalent(self) -> "ScenarioSpec":
        """The cohort-sized full-fidelity spec this population spec samples.

        Strips the population knobs while pinning the population's
        derived fanout (and through it the mirrored monitor count), so
        the resulting spec builds the *same cohort* — the bit-identity
        oracle the differential suite checks, and the spec replica
        workers rebuild from.  For non-population specs this is just
        the spec with the policy knob stripped.
        """
        if self.population <= 0:
            return dataclasses.replace(self, policy=None)
        return dataclasses.replace(
            self,
            policy=None,
            population=0,
            population_spill_dir=None,
            fanout=self._resolved_fanout()[0],
        )

    def _bind_policy(
        self,
        execution_policy: Optional[ExecutionPolicy],
        session: Any,
    ) -> None:
        """Hand a replica-capable policy the spec its workers rebuild.

        Worker-backed policies rebuild the session inside each worker
        from this spec (stripped of its own policy field and population
        knobs — replicas run the plain serial engine path over the
        cohort; the plane lives on the parent engine only).
        """
        binder = getattr(execution_policy, "bind_scenario", None)
        if binder is not None:
            binder(self.cohort_equivalent(), session)

    def _wire_faults(self, session: Any) -> None:
        """Build the fault schedule onto the session's network.

        Each declaration gets its own rng stream, derived from the spec
        seed and the entry's position — the same spec always produces
        the same fault schedule.  Rules are installed on the parent
        network; replica workers rebuilt from this spec install their
        own copies but never evaluate them (captures bypass drop rules),
        so the parent's merge-time evaluation is the single authority
        under every execution policy.
        """
        if not self.fault_schedule:
            return
        from repro.sim.rng import SeedSequence

        simulator = session.simulator
        network = simulator.network
        streams = SeedSequence(self.seed)
        for index, fault in enumerate(self.fault_schedule):
            rule = fault.build(
                rng=streams.stream("fault", index, fault.kind),
                network=network,
                round_seconds=simulator.round_seconds,
                label=f"{fault.kind}[{index}]",
            )
            network.add_drop_rule(rule)

    def _wire_membership(self, simulator: Any, session: Any) -> None:
        """Round hooks replaying the spec's join/leave schedule.

        Admissions run before removals within one hook, in sorted id
        order — the same order the execution policy mirrors them onto
        worker replicas, so membership stays deterministic everywhere.
        """
        if not self.churn and not self.arrivals:
            return
        leaves_by_round: Dict[int, List[int]] = {}
        for event in self.churn:
            leaves_by_round.setdefault(
                event.after_round, []
            ).append(event.node_id)
        joins_by_round: Dict[int, List[int]] = {}
        for event in self.arrivals:
            joins_by_round.setdefault(
                event.after_round, []
            ).append(event.node_id)

        def on_round(round_no: int) -> None:
            for node_id in sorted(joins_by_round.get(round_no, ())):
                session.admit_node(node_id)
            for node_id in sorted(leaves_by_round.get(round_no, ())):
                session.remove_node(node_id)

        # Tagged so the service supervisor's manual-membership mode can
        # strip this hook and replay the same schedule through operator
        # control ops (the differential oracle for `repro ctl`).
        setattr(on_round, "membership_hook", True)
        simulator.add_round_hook(on_round)

    def make_policy(self) -> Optional[ExecutionPolicy]:
        """The execution policy this spec's ``policy`` knob names."""
        if self.policy is None:
            return None
        return make_policy(self.policy, workers=self.workers)

    def run(
        self, execution_policy: Optional[ExecutionPolicy] = None
    ) -> "ScenarioResult":
        """Build, run the full schedule, and collect the measurements.

        An explicit ``execution_policy`` wins over the spec's own
        ``policy`` knob.  Worker-backed policies are synced (reporting
        state pulled from the workers) before collection and closed
        afterwards, so callers never see half-run sessions or leaked
        worker processes.
        """
        policy = execution_policy
        if policy is None:
            policy = self.make_policy()
        session = None
        collected = False
        try:
            session = self.build(policy)
            session.run(self.rounds)
            if policy is not None:
                policy.sync_session(session)
            result = ScenarioResult.collect(self, session)
            if getattr(session.simulator, "planes", None):
                from repro.sim.population import (
                    build_population_result,
                )

                result = build_population_result(self, session, result)
            collected = True
            return result
        finally:
            if policy is not None:
                policy.close()
            # A run that died mid-flight still owns its population
            # planes (and their spill directories); collection closes
            # them on the success path, so only the failure path cleans
            # up here.
            if not collected and session is not None:
                for plane in getattr(session.simulator, "planes", ()):
                    try:
                        plane.close()
                    except Exception:
                        pass


def _encode(value: Any) -> Any:
    """JSON-ready form of a spec value (see :meth:`ScenarioSpec.to_json`)."""
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        data = {
            f.name: _encode(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        if isinstance(value, FaultSpec):
            data["kind"] = value.kind
        return data
    return value


def _decode(hint: Any, value: Any, where: str) -> Any:
    """``value`` read back as type ``hint``; ``where`` names the field."""
    origin = get_origin(hint)
    if origin is Union:
        if value is None and type(None) in get_args(hint):
            return None
        (inner,) = [a for a in get_args(hint) if a is not type(None)]
        return _decode(inner, value, where)
    if origin is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ValueError(
                f"{where}: expected {len(args)} items, got {value!r}"
            )
        return tuple(
            _decode(arg, item, f"{where}[{index}]")
            for index, (arg, item) in enumerate(zip(args, value))
        )
    if hint is FaultSpec and isinstance(value, dict):
        kind = value.get("kind")
        hint = FAULT_SPEC_TYPES.get(kind) if isinstance(kind, str) else None
        if hint is None:
            raise ValueError(
                f"{where}: unknown fault kind {kind!r}; expected one of "
                f"{sorted(FAULT_SPEC_TYPES)}"
            )
        value = {k: v for k, v in value.items() if k != "kind"}
    if dataclasses.is_dataclass(hint):
        return _decode_fields(hint, value, where)
    if hint is float and type(value) is int:
        return value
    if type(value) is not hint:
        raise ValueError(f"{where}: expected {hint.__name__}, got {value!r}")
    return value


def _decode_fields(cls: Any, data: Any, where: str) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected an object, got {data!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ValueError(f"{where}: unknown fields {unknown}")
    missing = [
        name
        for name, f in fields.items()
        if name not in data
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"{where}: missing fields {missing}")
    hints = get_type_hints(cls)
    return cls(
        **{
            name: _decode(hints[name], value, f"{where}.{name}")
            for name, value in data.items()
        }
    )


@dataclass
class ScenarioResult:
    """Measurements of one scenario run, in the paper's units."""

    spec: ScenarioSpec
    session: object = field(repr=False)
    #: per-node steady-state download Kbps (the Fig. 7-9 unit).
    node_kbps: Dict[int, float] = field(default_factory=dict)
    mean_kbps: float = 0.0
    messages_sent: int = 0
    total_bytes: int = 0
    verdicts: int = 0
    convicted: Tuple[int, ...] = ()
    continuity: Optional[float] = None
    crypto_hashes: Optional[int] = None
    messages_dropped: int = 0
    messages_delayed: int = 0
    #: per-injector counters (``{"loss[0]": {"dropped": 12}, ...}``).
    fault_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: summed accusation-path counters across all monitor engines.
    accusations: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, spec: ScenarioSpec, session: Any
    ) -> "ScenarioResult":
        meter = session.simulator.network.meter
        node_kbps = session.bandwidth_kbps(
            spec.warmup_rounds, direction="down"
        )
        mean = (
            sum(node_kbps.values()) / len(node_kbps) if node_kbps else 0.0
        )
        verdicts = session.all_verdicts()
        continuity = None
        hashes = None
        if spec.protocol == "pag":
            continuity = session.mean_continuity()
            hashes = session.context.hasher.operations
        total = sum(
            traffic.bytes_up for traffic in meter.totals.values()
        )
        network = session.simulator.network
        accusation_report = getattr(session, "accusation_report", None)
        return cls(
            spec=spec,
            session=session,
            node_kbps=node_kbps,
            mean_kbps=mean,
            messages_sent=network.messages_sent,
            total_bytes=total,
            verdicts=len(verdicts),
            convicted=tuple(sorted({v.node for v in verdicts})),
            continuity=continuity,
            crypto_hashes=hashes,
            messages_dropped=network.messages_dropped,
            messages_delayed=network.messages_delayed,
            fault_stats=(
                network.fault_report() if network.drop_rules else {}
            ),
            accusations=(
                accusation_report() if accusation_report else {}
            ),
        )

    def cdf(self) -> List[Tuple[float, float]]:
        """Fig. 7-style CDF of the per-node steady-state bandwidth."""
        return cdf_points(self.node_kbps)

    def summary(self) -> Dict[str, object]:
        """Flat dict for printing/JSON export."""
        out: Dict[str, object] = {
            "schema": RESULT_SCHEMA_VERSION,
            "scenario": self.spec.name,
            "protocol": self.spec.protocol,
            "nodes": self.spec.nodes,
            "rounds": self.spec.rounds,
            "mean_down_kbps": round(self.mean_kbps, 1),
            "messages": self.messages_sent,
            "total_bytes": self.total_bytes,
            "verdicts": self.verdicts,
            "convicted": list(self.convicted),
        }
        if self.continuity is not None:
            out["continuity"] = round(self.continuity, 4)
        if self.crypto_hashes is not None:
            out["homomorphic_hashes"] = self.crypto_hashes
        if self.spec.fault_schedule:
            out["messages_dropped"] = self.messages_dropped
            out["messages_delayed"] = self.messages_delayed
            out["faults"] = {
                label: dict(stats)
                for label, stats in self.fault_stats.items()
            }
            out["accusations"] = dict(self.accusations)
        return out
