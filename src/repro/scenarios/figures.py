"""Figure/table renderers built on the scenario registry.

Each ``render_*`` regenerates one figure or table of the paper and
prints the series next to the paper's reference values.  Simulation
workloads come from the registry (``fig7``, ``fig9``, ...), closed-form
sweeps from :mod:`repro.analysis`.

Renderers register themselves against their scenario name in
:data:`PAPER_RENDERERS`; :func:`render_scenario_run` — the engine
behind ``repro run --scenario NAME`` — consults the registry, so
``repro run --scenario fig8`` prints the paper figure while unknown or
override-heavy invocations fall back to the generic measurement
summary.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Dict, Optional

from repro.scenarios.registry import get_scenario
from repro.sim.execution import ExecutionPolicy

__all__ = [
    "PAPER_RENDERERS",
    "paper_renderer",
    "render_detect",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10",
    "render_table1",
    "render_table2",
    "render_scenario_run",
]

#: Scenario name -> paper renderer.  A renderer declares the override
#: keywords it supports (``nodes``, ``rounds``, ``strategy``,
#: ``execution_policy``) in its signature; :func:`render_scenario_run`
#: passes through only what fits and falls back to the generic summary
#: when an unsupported override was requested.
PAPER_RENDERERS: Dict[str, Callable[..., int]] = {}


def paper_renderer(name: str) -> Callable[
    [Callable[..., int]], Callable[..., int]
]:
    """Register a figure/table renderer for a scenario name."""

    def register(fn: Callable[..., int]) -> Callable[..., int]:
        PAPER_RENDERERS[name] = fn
        return fn

    return register


@paper_renderer("fig7")
def render_fig7(
    nodes: Optional[int] = None,
    rounds: Optional[int] = None,
    execution_policy: Optional[ExecutionPolicy] = None,
) -> int:
    pag = get_scenario("fig7", nodes=nodes, rounds=rounds).run(
        execution_policy
    )
    acting = get_scenario("fig7-acting", nodes=nodes, rounds=rounds).run(
        execution_policy
    )
    spec = pag.spec
    print(f"Fig. 7 — bandwidth CDF ({spec.nodes} nodes, 300 Kbps)")
    print(f"{'CDF %':>6} {'AcTinG':>8} {'PAG':>8}")
    acting_cdf = acting.cdf()
    pag_cdf = pag.cdf()
    for target in range(10, 101, 20):
        a = next(v for v, p in acting_cdf if p >= target)
        g = next(v for v, p in pag_cdf if p >= target)
        print(f"{target:>5}% {a:>8.0f} {g:>8.0f}")
    print(
        f"means: AcTinG {acting.mean_kbps:.0f}, PAG {pag.mean_kbps:.0f} "
        "(paper: 460 / 1050)"
    )
    return 0


@paper_renderer("fig8")
def render_fig8() -> int:
    from repro.analysis.bandwidth import figure8_series

    print("Fig. 8 — bandwidth vs update size (1000 nodes, 300 Kbps)")
    print(f"{'update kb':>10} {'Kbps':>8}")
    for kb, kbps in figure8_series():
        print(f"{kb:>10} {kbps:>8.0f}")
    return 0


@paper_renderer("fig9")
def render_fig9() -> int:
    from repro.analysis.bandwidth import figure9_series

    print("Fig. 9 — scalability with a 300 Kbps stream")
    print(f"{'nodes':>9} {'PAG':>8} {'AcTinG':>8}")
    for n, pag, acting in figure9_series():
        print(f"{n:>9} {pag:>8.0f} {acting:>8.0f}")
    print("(paper anchors: PAG 2500 / AcTinG 840 at 10^6)")
    return 0


@paper_renderer("fig10")
def render_fig10() -> int:
    from repro.analysis.privacy import figure10_series

    print("Fig. 10 — interactions discovered vs attacker fraction")
    print(
        f"{'attackers':>9} {'AcTinG':>8} {'PAG-3':>7} {'PAG-5':>7} "
        f"{'min':>7}"
    )
    for p in figure10_series([i / 10 for i in range(11)]):
        print(
            f"{p.attacker_fraction:>8.0%} {p.acting:>8.1%} "
            f"{p.pag_3_monitors:>7.1%} {p.pag_5_monitors:>7.1%} "
            f"{p.theoretical_minimum:>7.1%}"
        )
    return 0


@paper_renderer("table1")
def render_table1() -> int:
    from repro.analysis.costs import table1_rows

    print("Table I — crypto operations per second per node")
    print(f"{'quality':>8} {'payload':>8} {'sigs/s':>7} {'hashes/s':>9}")
    for row in table1_rows():
        print(
            f"{row.quality:>8} {row.payload_kbps:>8.0f} "
            f"{row.rsa_signatures_per_s:>7.0f} "
            f"{row.homomorphic_hashes_per_s:>9.0f}"
        )
    return 0


@paper_renderer("table2")
def render_table2() -> int:
    from repro.analysis.quality import table2

    print("Table II — sustainable quality per link (1000 nodes)")
    for protocol, cells in table2().items():
        print(
            f"  {protocol:<7}: "
            + " | ".join(cell.render() for cell in cells)
        )
    return 0


@paper_renderer("detect")
def render_detect(
    nodes: Optional[int] = None,
    rounds: Optional[int] = None,
    strategy: Optional[str] = None,
    execution_policy: Optional[ExecutionPolicy] = None,
) -> int:
    """Run the detection demo: one deviant mid-ring, print verdicts.

    Exit status is conviction-based: 0 when exactly the deviant is
    convicted, 1 otherwise.
    """
    from repro.scenarios.spec import SELFISH_STRATEGIES

    spec = get_scenario("detect", nodes=nodes, rounds=rounds)
    chosen = strategy if strategy is not None else "free-rider"
    deviant = spec.nodes // 2
    spec = dataclasses.replace(
        spec, node_strategies=((deviant, chosen),)
    )
    result = spec.run(execution_policy)
    print(
        f"deviant node {deviant} runs {SELFISH_STRATEGIES[chosen]} among "
        f"{spec.nodes - 1} correct nodes"
    )
    for verdict in result.session.all_verdicts()[:8]:
        print(
            f"  round {verdict.exchange_round:>2}: node {verdict.node} "
            f"GUILTY of {verdict.reason.value} — {verdict.evidence[:70]}"
        )
    convicted = set(result.convicted)
    print(f"convicted: {sorted(convicted)} (expected: [{deviant}])")
    return 0 if convicted == {deviant} else 1


def render_scenario_run(
    name: str,
    nodes: Optional[int] = None,
    rounds: Optional[int] = None,
    rate: Optional[float] = None,
    execution_policy: Optional[ExecutionPolicy] = None,
    json_out: Optional[str] = None,
    population: Optional[int] = None,
    strategy: Optional[str] = None,
) -> int:
    """Run any registered scenario and print its measurement summary.

    When ``name`` has a registered paper renderer and every supplied
    override fits that renderer's signature, the renderer is
    dispatched instead — ``repro run --scenario fig8`` prints the
    paper's update-size sweep.  ``--json``/``--population`` (and any
    override the renderer doesn't take) force the generic measurement
    path, which is what the CI scenario matrix records.

    Args:
        json_out: optional path; writes the machine-readable summary
            (plus the measured wall clock and the Fig-7-style CDF) as
            JSON — the CI scenario-matrix job collects these into its
            ``BENCH_ci_scenarios.json`` artifact.
        population: population-tier override (see ``ScenarioSpec``);
            lets CI cap a million-node scenario to smoke scale.
        strategy: deviant strategy pass-through for renderers that
            accept one (the ``detect`` scenario).
    """
    import json
    import time

    renderer = PAPER_RENDERERS.get(name)
    if renderer is not None and json_out is None and population is None:
        supplied = {
            "nodes": nodes,
            "rounds": rounds,
            "rate": rate,
            "strategy": strategy,
            "execution_policy": execution_policy,
        }
        accepted = inspect.signature(renderer).parameters
        if all(
            value is None or key in accepted
            for key, value in supplied.items()
        ):
            return renderer(**{
                key: value
                for key, value in supplied.items()
                if key in accepted
            })
    if strategy is not None:
        raise SystemExit(
            f"error: --strategy does not apply to scenario {name!r} "
            "with these flags (it is a paper-renderer override)"
        )

    spec = get_scenario(
        name,
        nodes=nodes,
        rounds=rounds,
        stream_rate_kbps=rate,
        population=population,
    )
    start = time.perf_counter()
    result = spec.run(execution_policy)
    wall = time.perf_counter() - start
    if json_out is not None:
        payload = result.summary()
        payload["wall_seconds"] = round(wall, 4)
        payload["cdf"] = [
            (round(value, 6), round(percent, 6))
            for value, percent in result.cdf()
        ]
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(
        f"scenario {spec.name!r} [{spec.protocol}]: {spec.nodes} nodes, "
        f"{spec.rounds} rounds, {spec.stream_rate_kbps:.0f} Kbps stream"
    )
    if spec.paper_reference:
        print(f"paper: {spec.paper_reference}")
    summary = result.summary()
    print(
        f"mean download      : {summary['mean_down_kbps']:.0f} "
        "Kbps per node"
    )
    if result.continuity is not None:
        print(f"mean continuity    : {result.continuity:.1%}")
    print(f"messages           : {result.messages_sent}")
    print(f"verdicts           : {result.verdicts}")
    if result.convicted:
        print(f"convicted          : {list(result.convicted)}")
    deviants = spec.deviant_nodes()
    if deviants:
        print(f"deviants           : {sorted(deviants)}")
    if result.crypto_hashes is not None:
        print(f"homomorphic hashes : {result.crypto_hashes}")
    if spec.population:
        print(f"population         : {summary['population']}")
        print(
            "population mean    : "
            f"{summary['population_mean_down_kbps']:.0f} Kbps per node"
        )
        print(f"peak RSS           : {summary['peak_rss_mb']:.0f} MiB")
    return 0
