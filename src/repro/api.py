"""Unified programmatic facade over the reproduction.

One import surface for scripts, notebooks, benchmarks and CI — the
same entry points the CLI verbs are built on, without argparse in
between::

    from repro import api

    result = api.run_scenario("fig7", nodes=24, rounds=10)
    result = api.run_scenario("fig9", policy="parallel", workers=4)
    report = api.fuzz(iterations=20, seed=7)
    result = api.serve("fig7", "tcp://127.0.0.1:0",
                       on_listening=print)

``scenario`` arguments accept either a registry name or a
:class:`~repro.scenarios.spec.ScenarioSpec` instance, so ad-hoc specs
and registered workloads go through the same functions.
"""

from __future__ import annotations

import dataclasses
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Optional,
    Sequence,
    Union,
)

from repro.scenarios.spec import ScenarioResult, ScenarioSpec

__all__ = [
    "run_scenario",
    "supervise",
    "serve",
    "fuzz",
    "ScenarioResult",
    "ScenarioSpec",
]

#: A scenario argument: registry name or an explicit spec.
Scenario = Union[str, ScenarioSpec]


def _resolve(scenario: Scenario, overrides: Dict[str, Any]) -> ScenarioSpec:
    if isinstance(scenario, ScenarioSpec):
        return scenario.with_overrides(**overrides)
    from repro.scenarios.registry import get_scenario

    return get_scenario(scenario, **overrides)


def run_scenario(
    scenario: Scenario,
    *,
    policy: Optional[Union[str, Any]] = None,
    workers: Optional[int] = None,
    **overrides: Any,
) -> ScenarioResult:
    """Build, run and measure a scenario; the library ``run`` verb.

    Args:
        scenario: registry name (``"fig7"``) or a ``ScenarioSpec``.
        policy: execution policy — ``None`` (the spec's own knob, else
            serial), a policy name (``"serial"``, ``"parallel"``), or a
            ready :class:`~repro.sim.execution.ExecutionPolicy` instance.
        workers: process count when ``policy`` names ``"parallel"``
            (default: the spec's ``workers``).
        **overrides: any ``ScenarioSpec`` field (``nodes``, ``rounds``,
            ``seed``, ...); ``None`` values are ignored.
    """
    spec = _resolve(scenario, overrides)
    if policy is None or isinstance(policy, str):
        return spec.with_overrides(policy=policy, workers=workers).run()
    return spec.run(policy)


def supervise(
    scenario: Scenario,
    *,
    schedule: Sequence[Any] = (),
    manual_membership: bool = False,
    max_restarts: int = 0,
    round_delay: float = 0.0,
    bus: Optional[Any] = None,
    **overrides: Any,
) -> ScenarioResult:
    """Run a scenario under the service supervisor, without a network
    endpoint.

    ``schedule`` is a sequence of
    :class:`~repro.service.supervisor.ControlOp` applied at their
    declared round boundaries — the scripted-operator form of ``repro
    ctl``.  Returns the collected result; the differential suite pins
    its bit-identity to the equivalent static spec.
    """
    from repro.service.supervisor import SessionSupervisor

    spec = _resolve(scenario, overrides)
    supervisor = SessionSupervisor(
        spec,
        schedule=tuple(schedule),
        bus=bus,
        max_restarts=max_restarts,
        round_delay=round_delay,
        manual_membership=manual_membership,
    )
    return supervisor.run()


def serve(
    scenario: Scenario,
    endpoint: str,
    *,
    schedule: Sequence[Any] = (),
    manual_membership: bool = False,
    max_restarts: int = 0,
    round_delay: float = 0.0,
    on_listening: Optional[Callable[[str], None]] = None,
    **overrides: Any,
) -> ScenarioResult:
    """Run a scenario behind a live service endpoint; the ``repro
    serve`` verb as a blocking library call.

    Serves health, the NDJSON event stream and operator control on
    ``endpoint`` (``tcp://host:port``, ``unix:///path``,
    ``mem://name``) until the run drains.  ``on_listening`` receives
    the resolved endpoint (ephemeral TCP ports filled in) once the
    listener is bound.
    """
    import asyncio

    from repro.service.server import ServiceServer
    from repro.service.supervisor import (
        SessionSupervisor,
        SupervisorError,
    )

    # The supervisor runs the serial schedule; a spec's own knob (e.g.
    # fig9-parallel) is dropped.
    spec = dataclasses.replace(_resolve(scenario, overrides), policy=None)

    async def _serve() -> ScenarioResult:
        supervisor = SessionSupervisor(
            spec,
            schedule=tuple(schedule),
            max_restarts=max_restarts,
            round_delay=round_delay,
            manual_membership=manual_membership,
        )
        server = ServiceServer(supervisor, endpoint)
        resolved = await server.start()
        if on_listening is not None:
            on_listening(resolved)
        await server.wait()
        if server.run_error is not None:
            raise SupervisorError(server.run_error)
        assert supervisor.result is not None
        return supervisor.result

    return asyncio.run(_serve())


def fuzz(
    *,
    iterations: int = 50,
    seed: int = 20160627,
    policies: Iterable[str] = ("serial", "parallel"),
    workers: int = 2,
    shrink: bool = True,
    replay_spec: Optional[ScenarioSpec] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run the fault/adversary fuzzing campaign; the ``repro fuzz``
    verb as a library call.  Returns the campaign report dict
    (``report["ok"]``, ``report["violations"]``, ...).
    """
    from repro.scenarios.fuzz import FuzzConfig, run_fuzz

    config = FuzzConfig(
        iterations=iterations,
        seed=seed,
        policies=tuple(policies),
        workers=workers,
        shrink=shrink,
    )
    return run_fuzz(config, progress=progress, replay_spec=replay_spec)
