"""Command-line interface: run the paper's experiments from a shell.

Usage::

    python -m repro run --scenario fig9 [--nodes N] [--rounds R] [--rate KBPS]
    python -m repro run --scenario fig9 [--policy parallel] [--workers W]
    python -m repro run --scenario detect --strategy silent-receiver
    python -m repro scenarios
    python -m repro serve --scenario fig7 --listen tcp://127.0.0.1:0
    python -m repro watch tcp://127.0.0.1:PORT [--raw]
    python -m repro ctl tcp://127.0.0.1:PORT churn --node 5
    python -m repro verify [--fanout F]
    python -m repro lint [PATHS ...] [--rules]

``run --scenario NAME`` dispatches through the scenario registry (an
ad-hoc run is a named scenario plus overrides); when the name has a
registered paper renderer (``fig7``..``table2``, ``detect``) the
figure/table is printed next to the paper's reference values.
``serve``/``watch``/``ctl`` expose the supervised service mode — a live
session with health, an NDJSON event stream, and operator control
applied at round boundaries (see repro.service).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

_STRATEGIES = {
    "free-rider": "FreeRider",
    "partial-forwarder": "PartialForwarder",
    "silent-receiver": "SilentReceiver",
    "declaration-skipper": "DeclarationSkipper",
    "contact-avoider": "ContactAvoider",
}


def _positive_int(value: str) -> int:
    """Argparse type for counts that must be at least 1."""
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {value!r}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {number})"
        )
    return number


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    from repro.sim.execution import POLICY_NAMES

    parser.add_argument(
        "--policy",
        choices=POLICY_NAMES,
        default=None,
        help=(
            "where nodes execute (see repro.sim.execution); both are "
            "bit-identical: 'parallel' runs one worker process per "
            "shard. Default: the scenario's own policy knob, else "
            "serial."
        ),
    )
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help=(
            "process count for --policy parallel (default: the "
            "scenario's own workers field)"
        ),
    )


def _policy_from(args):
    """Build the execution policy the ``repro run`` flags describe.

    ``--policy parallel`` rebuilds its worker replicas from the
    scenario spec; its worker count defaults to that scenario's
    ``workers`` field.
    """
    from repro.sim.execution import make_policy

    if args.workers is not None and args.policy != "parallel":
        raise SystemExit(
            "error: --workers only applies to --policy parallel"
            + (f" (got --policy {args.policy})" if args.policy else "")
        )
    if args.policy is None:
        return None
    if args.policy != "parallel":
        return make_policy(args.policy)
    workers = args.workers
    if workers is None:
        from repro.scenarios import get_scenario

        workers = get_scenario(args.scenario).workers
    return make_policy("parallel", workers=workers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'PAG: Private and Accountable Gossip' "
            "(ICDCS 2016)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a named scenario, with overrides"
    )
    run.add_argument(
        "--scenario",
        required=True,
        help="named scenario from the registry (see 'repro scenarios')",
    )
    run.add_argument("--nodes", type=int, default=None)
    run.add_argument("--rounds", type=int, default=None)
    run.add_argument("--rate", type=float, default=None)
    run.add_argument(
        "--population",
        type=_positive_int,
        default=None,
        help=(
            "population-tier size override (caps a million-node "
            "scenario to smoke scale, or scales one up)"
        ),
    )
    run.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=(
            "also write the run summary (wall clock, bytes, CDF) as "
            "JSON to PATH"
        ),
    )
    run.add_argument(
        "--strategy",
        choices=sorted(_STRATEGIES),
        default=None,
        help=(
            "deviant strategy override for renderer scenarios that "
            "take one (--scenario detect)"
        ),
    )
    _add_policy_flags(run)

    scenarios = sub.add_parser(
        "scenarios", help="list the registered scenarios"
    )
    scenarios.add_argument(
        "--verbose", action="store_true", help="include paper references"
    )

    verify = sub.add_parser(
        "verify", help="symbolic verification of privacy property P1"
    )
    verify.add_argument("--fanout", type=int, default=3)

    export = sub.add_parser(
        "export", help="write every figure/table series as CSV/JSON"
    )
    export.add_argument("--out", default="results")

    lint = sub.add_parser(
        "lint",
        help=(
            "static project-invariant analysis: determinism (DET1xx), "
            "policy parity (PAR3xx)"
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package sources)",
    )
    lint.add_argument(
        "--rules", action="store_true",
        help="list every rule code and exit",
    )

    daemon = sub.add_parser(
        "daemon",
        help=(
            "host one shard of a session behind a transport endpoint "
            "(tcp://host:port, unix:///path, mem://name)"
        ),
    )
    daemon.add_argument(
        "--listen",
        required=True,
        metavar="ENDPOINT",
        help="endpoint to accept the coordinator and peer daemons on",
    )

    session = sub.add_parser(
        "session",
        help=(
            "coordinate a scenario across node daemons (join handshake, "
            "round barriers, merged verdict report)"
        ),
    )
    session.add_argument(
        "--scenario",
        required=True,
        help="named scenario from the registry (see 'repro scenarios')",
    )
    session.add_argument("--nodes", type=int, default=None)
    session.add_argument("--rounds", type=int, default=None)
    session.add_argument(
        "--daemons",
        default=None,
        metavar="EP1,EP2,...",
        help=(
            "comma-separated endpoints of already-running daemons "
            "(one shard each); omit to spawn --local-daemons in-process"
        ),
    )
    session.add_argument(
        "--local-daemons",
        type=_positive_int,
        default=2,
        metavar="N",
        help=(
            "without --daemons: number of in-process daemons to spawn "
            "(default 2)"
        ),
    )
    session.add_argument(
        "--transport",
        choices=("mem", "tcp", "unix"),
        default="mem",
        help="transport scheme for --local-daemons (default mem)",
    )
    session.add_argument(
        "--verify-serial",
        action="store_true",
        help=(
            "also run the scenario on the in-process serial engine and "
            "compare the verdict sets"
        ),
    )
    session.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="write the merged session report as JSON to PATH",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help=(
            "fault/adversary fuzzing: random fault schedules x deviant "
            "mixes x churn, checked for false convictions, missed "
            "deviants and cross-policy divergence"
        ),
    )
    fuzz.add_argument(
        "--iterations", type=_positive_int, default=50,
        help="random scenarios to draw (default 50)",
    )
    fuzz.add_argument(
        "--seed", type=int, default=20160627,
        help="campaign seed; same seed, same draws",
    )
    fuzz.add_argument(
        "--policies",
        default="serial,parallel",
        help=(
            "comma-separated execution policies to cross-check "
            "(default: serial,parallel)"
        ),
    )
    fuzz.add_argument(
        "--workers", type=_positive_int, default=2,
        help="worker-process count for the parallel policy",
    )
    fuzz.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the full campaign report (violations, shrunken "
        "repro specs) as JSON to PATH",
    )
    fuzz.add_argument(
        "--replay", default=None, metavar="PATH",
        help="re-check the shrunken spec of the first violation in a "
        "previous report (or a bare spec JSON) instead of fuzzing",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true",
        help="report violating specs as drawn, without shrinking",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "run a scenario under the service supervisor: health "
            "endpoint, live event stream, operator control "
            "(tcp://host:port, unix:///path, mem://name)"
        ),
    )
    serve.add_argument(
        "--scenario",
        required=True,
        help="named scenario from the registry (see 'repro scenarios')",
    )
    serve.add_argument(
        "--listen",
        required=True,
        metavar="ENDPOINT",
        help="endpoint to serve health/events/control on",
    )
    serve.add_argument("--nodes", type=int, default=None)
    serve.add_argument("--rounds", type=int, default=None)
    serve.add_argument(
        "--round-delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="sleep between rounds so observers can watch live",
    )
    serve.add_argument(
        "--max-restarts",
        type=int,
        default=0,
        metavar="N",
        help=(
            "crash-containment budget: rebuild the session and replay "
            "the operator journal up to N times (default 0: fail fast)"
        ),
    )

    watch = sub.add_parser(
        "watch",
        help="terminal dashboard: stream events from a 'repro serve'",
    )
    watch.add_argument(
        "endpoint", help="the serve endpoint (printed by 'repro serve')"
    )
    watch.add_argument(
        "--kinds",
        default=None,
        metavar="K1,K2,...",
        help=(
            "comma-separated event kinds to stream (state, round, "
            "meter, counters, verdict); default all"
        ),
    )
    watch.add_argument(
        "--raw", action="store_true",
        help="print NDJSON events instead of the human layout",
    )
    watch.add_argument(
        "--max-events",
        type=_positive_int,
        default=None,
        metavar="N",
        help="detach after N events (CI smoke hook)",
    )

    ctl = sub.add_parser(
        "ctl",
        help="operator control against a 'repro serve' endpoint",
    )
    ctl.add_argument(
        "endpoint", help="the serve endpoint (printed by 'repro serve')"
    )
    ctl.add_argument(
        "op",
        choices=(
            "health", "pause", "resume", "churn", "admit", "strategy",
            "snapshot", "drain",
        ),
        help=(
            "health: liveness poll; pause/resume/drain: lifecycle; "
            "churn/admit: remove or admit --node at the next boundary; "
            "strategy: flip --node to --arg; snapshot: state dump"
        ),
    )
    ctl.add_argument(
        "--node", type=int, default=None, metavar="ID",
        help="target node id (churn, admit, strategy)",
    )
    ctl.add_argument(
        "--arg", default="", metavar="VALUE",
        help="op argument (strategy name for 'strategy')",
    )
    return parser


def _cmd_run(args) -> int:
    from repro.scenarios.figures import render_scenario_run

    return render_scenario_run(
        args.scenario,
        nodes=args.nodes,
        rounds=args.rounds,
        rate=args.rate,
        execution_policy=_policy_from(args),
        json_out=args.json,
        population=args.population,
        strategy=args.strategy,
    )


def _cmd_scenarios(args) -> int:
    from repro.scenarios import all_scenarios

    print(f"{'name':<16} {'proto':<7} {'nodes':>5} {'rounds':>6}  description")
    for spec in all_scenarios():
        print(
            f"{spec.name:<16} {spec.protocol:<7} {spec.nodes:>5} "
            f"{spec.rounds:>6}  {spec.description}"
        )
        if args.verbose and spec.paper_reference:
            print(f"{'':<16} paper: {spec.paper_reference}")
    return 0


def _cmd_verify(args) -> int:
    from repro.verifier import case1_network_attacker, f_coalition_attack

    print(f"Symbolic verification of P1 (fanout {args.fanout})")
    case1 = case1_network_attacker(fanout=args.fanout)
    ok = all(v.private for v in case1.values())
    print(f"  case (1) network attacker: {'SAFE' if ok else 'BROKEN'}")
    coalition, victim = f_coalition_attack(fanout=args.fanout)
    print(
        f"  threshold coalition {coalition}: victim prime recovered = "
        f"{victim.prime_derivable}"
    )
    return 0 if ok and victim.prime_derivable else 1


def _cmd_lint(args) -> int:
    from pathlib import Path

    from repro.lint.diagnostics import RULES, summarize
    from repro.lint.runner import lint_paths

    if args.rules:
        width = max(len(code) for code in RULES)
        for code, summary in sorted(RULES.items()):
            print(f"{code:<{width}}  {summary}")
        return 0

    paths = [Path(p) for p in args.paths] or [Path(__file__).resolve().parent]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"repro lint: no such path: {p}", file=sys.stderr)
        return 2

    diagnostics = lint_paths(paths)
    for diag in diagnostics:
        print(diag.render())
    total, by_code = summarize(diagnostics)
    if total:
        histogram = ", ".join(
            f"{code}: {count}" for code, count in by_code.items()
        )
        print(f"Found {total} finding(s) ({histogram})")
        return 1
    print("repro lint: all clean")
    return 0


def _cmd_daemon(args) -> int:
    import asyncio

    from repro.net.daemon import NodeDaemon

    async def serve() -> None:
        daemon = NodeDaemon(args.listen)
        endpoint = await daemon.start()
        print(f"daemon listening on {endpoint}", flush=True)
        await daemon.serve_forever()
        print("daemon shut down cleanly")

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted")
        return 130
    return 0


def _cmd_session(args) -> int:
    import asyncio
    import dataclasses
    import json

    from repro.net.daemon import (
        SessionCoordinator,
        run_coordinated_session,
        validate_daemon_spec,
    )
    from repro.scenarios.figures import scenario_or_exit

    spec = scenario_or_exit(
        args.scenario, nodes=args.nodes, rounds=args.rounds
    )
    # The daemon runtime *is* the execution policy; strip the spec's
    # own knob so --verify-serial compares against the serial baseline.
    spec = dataclasses.replace(spec, policy=None)
    validate_daemon_spec(spec)
    if args.daemons is not None:
        endpoints = [
            item.strip() for item in args.daemons.split(",") if item.strip()
        ]
        try:
            coordinator = SessionCoordinator(spec, endpoints)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        result = asyncio.run(coordinator.run())
    else:
        result = asyncio.run(
            run_coordinated_session(
                spec,
                shards=args.local_daemons,
                scheme=args.transport,
            )
        )
    print(
        f"{result['scenario']}: {result['shards']} shards, "
        f"{result['rounds']} rounds"
    )
    print(
        f"  wire traffic : {result['frames_sent']} frames, "
        f"{result['bytes_on_wire']} bytes "
        f"({result['relay_batches']} relay batches covering "
        f"{result['relays_batched']} relays)"
    )
    if result["mean_continuity"] is not None:
        print(f"  continuity   : {result['mean_continuity']:.1%}")
    print(
        f"  verdicts     : {len(result['verdicts'])} "
        f"(convicted: {result['convicted']})"
    )
    status = 0
    if args.verify_serial:
        serial = spec.run()
        serial_verdicts = sorted(
            (v.node, v.reason.value, v.exchange_round)
            for v in serial.session.all_verdicts()
        )
        daemon_verdicts = sorted(
            (node, reason, exchange_round)
            for node, reason, exchange_round, _ in result["verdicts"]
        )
        if serial_verdicts == daemon_verdicts:
            print(
                f"  serial parity: OK ({len(serial_verdicts)} verdicts "
                "match)"
            )
        else:
            print("  serial parity: MISMATCH")
            print(f"    serial: {serial_verdicts}")
            print(f"    daemon: {daemon_verdicts}")
            status = 1
        result["serial_verdicts"] = serial_verdicts
        result["serial_parity"] = serial_verdicts == daemon_verdicts
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(result, handle, indent=2)
        print(f"  report       : {args.json}")
    return status


def _cmd_fuzz(args) -> int:
    import json

    from repro.scenarios.fuzz import FuzzConfig, run_fuzz
    from repro.scenarios.spec import ScenarioSpec

    policies = tuple(
        name.strip() for name in args.policies.split(",") if name.strip()
    )
    config = FuzzConfig(
        iterations=args.iterations,
        seed=args.seed,
        policies=policies,
        workers=args.workers,
        shrink=not args.no_shrink,
    )
    replay_spec = None
    if args.replay is not None:
        with open(args.replay) as handle:
            payload = json.load(handle)
        # Accept either a full campaign report or a bare spec dict.
        if "violations" in payload:
            if not payload["violations"]:
                print(f"{args.replay}: no violations to replay")
                return 0
            payload = payload["violations"][0]["spec"]
        replay_spec = ScenarioSpec.from_json(payload)
        print(
            f"replaying {replay_spec.name}: {replay_spec.nodes} nodes, "
            f"{replay_spec.rounds} rounds, "
            f"{len(replay_spec.fault_schedule)} faults, seed "
            f"{replay_spec.seed}"
        )
    report = run_fuzz(config, progress=print, replay_spec=replay_spec)
    if args.json is not None:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
        print(f"report written to {args.json}")
    totals = report["totals"]
    print(
        f"{report['iterations']} iterations, {totals['faults']} faults, "
        f"{totals['deviants']} deviants, "
        f"{totals['convictions']} convictions, "
        f"{totals['messages_dropped']} drops, "
        f"{totals['messages_delayed']} delays"
    )
    if report["ok"]:
        print("all invariants held")
        return 0
    for entry in report["violations"]:
        for line in entry["violations"]:
            print(f"VIOLATION (iteration {entry['iteration']}): {line}")
    print(
        "shrunken repro spec(s) embedded in the report; replay with "
        "'repro fuzz --replay <report.json>'"
    )
    return 1


def _cmd_export(args) -> int:
    from repro.analysis.export import export_all

    written = export_all(args.out)
    for name, path in sorted(written.items()):
        print(f"  {name:<8} -> {path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import dataclasses

    from repro.scenarios.figures import scenario_or_exit
    from repro.service import ServiceServer, SessionSupervisor

    spec = scenario_or_exit(
        args.scenario, nodes=args.nodes, rounds=args.rounds
    )
    # The supervisor runs the serial schedule; the spec's own knob
    # (e.g. fig9-parallel) is dropped.
    spec = dataclasses.replace(spec, policy=None)

    async def serve() -> int:
        supervisor = SessionSupervisor(
            spec,
            max_restarts=args.max_restarts,
            round_delay=args.round_delay,
        )
        server = ServiceServer(supervisor, args.listen)
        endpoint = await server.start()
        print(f"service listening on {endpoint}", flush=True)
        code = await server.wait()
        if server.run_error is not None:
            print(f"error: {server.run_error}", file=sys.stderr)
        elif supervisor.error is not None:
            print(f"error: {supervisor.error}", file=sys.stderr)
        else:
            result = supervisor.result
            print(
                f"session complete: {supervisor.rounds_completed} "
                f"rounds, {result.verdicts} verdicts "
                f"(convicted: {list(result.convicted)}), "
                f"{supervisor.bus.published} events published"
            )
        return code

    try:
        return asyncio.run(serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _cmd_watch(args) -> int:
    from repro.service import run_watch

    kinds = ()
    if args.kinds:
        kinds = tuple(
            item.strip() for item in args.kinds.split(",") if item.strip()
        )
    try:
        return run_watch(
            args.endpoint,
            kinds=kinds,
            raw=args.raw,
            max_events=args.max_events,
        )
    except KeyboardInterrupt:
        return 130


def _cmd_ctl(args) -> int:
    import json

    from repro.service import request_control, request_health

    if args.op == "health":
        print(
            json.dumps(
                request_health(args.endpoint), indent=2, sort_keys=True
            )
        )
        return 0
    ok, detail, state = request_control(
        args.endpoint, args.op, node_id=args.node, arg=args.arg
    )
    if ok and args.op == "snapshot":
        print(detail)
    else:
        print(f"{'ok' if ok else 'error'}: {detail} (state: {state})")
    return 0 if ok else 1


#: Verbs that reach other processes: a bad endpoint, a refused dial or
#: a protocol refusal ends them with one ``error: ...`` line (status 1).
_NETWORK_VERBS = frozenset({"daemon", "session", "serve", "watch", "ctl"})


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "scenarios": _cmd_scenarios,
        "verify": _cmd_verify,
        "export": _cmd_export,
        "fuzz": _cmd_fuzz,
        "lint": _cmd_lint,
        "daemon": _cmd_daemon,
        "session": _cmd_session,
        "serve": _cmd_serve,
        "watch": _cmd_watch,
        "ctl": _cmd_ctl,
    }[args.command]
    if args.command not in _NETWORK_VERBS:
        return handler(args)
    from repro.net.daemon import DaemonError
    from repro.net.transport import TransportError

    try:
        return handler(args)
    except (DaemonError, TransportError) as exc:
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
