"""Run the benchmark: every workload, every metric, by name.

    python -m bench.run [--workload NAME] [--repeats N] [--seed S]
                        [--trace] [--out PATH]

Each repeat is a fresh ``bench.child`` process, one at a time (the box
has two cores and two workloads use both).  Every pass's outputs are
checked; failed checks over checks attempted is ``failed_share``.  With
``--trace`` one more pass runs with timing wrappers installed and the
per-layer metrics are printed too.

The benchmark driver calls the same program as ``<command> --workload
NAME --seed N --seconds T --trace 0|1``: passes repeat until ``T``
seconds are used, and the last line printed is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as ``python3 bench/run.py``
    sys.path.insert(0, str(ROOT))

from bench.child import EXIT_NO_PROGRAM  # noqa: E402
from bench.metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    ROUND_P90_MIN_SAMPLES,
    percentile,
    summarize,
)
from bench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    FINGERPRINT_FIELDS,
    WORKLOADS,
    Workload,
    get_workload,
)

OUT_DIR = ROOT / "bench" / "out"
EXPECTED_PATH = ROOT / "bench" / "expected.json"

#: Exit code when the program under test is missing: no result printed.
EXIT_NO_PROGRAM_FOUND = 2

#: A pass that has not finished by then is killed and fails its checks.
#: Four of them (a reference pass and ``_MIN_TIMED_PASSES``) still end
#: within the 180 s the driver allows one run.
_CHILD_TIMEOUT_S = 40.0

#: Timed (``--seconds``) runs report medians, so they make at least
#: this many passes however short the budget.
_MIN_TIMED_PASSES = 3

#: The plane's mean must stay this close to the cohort's (the repo's
#: population-tier validation gate, tests/sim/test_population.py).
_COHORT_GATE = 0.15

#: Fingerprint fields left out of ``expected.json``: the plane draws
#: from numpy's generator, whose stream numpy does not pin across
#: versions.
_NOT_COMMITTED = ("population_mean_kbps",)

#: Layer numbers an untraced pass vouches for; the traced pass (whose
#: set-up and placement differ) never overrides them.
_UNTRACED_LAYERS = ("scenarios.spec.", "sim.execution.", "net.daemon.")


class ProgramMissing(Exception):
    """The checkout holds the benchmark but not the program."""


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Spill files and sockets stay inside the checkout.
    env["TMPDIR"] = str(OUT_DIR / "tmp")
    return env


def run_pass(
    workload: Workload, seed: int, traced: bool, quick: bool
) -> Optional[Dict[str, Any]]:
    """One ``bench.child`` process; ``None`` when it crashed or hung."""
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable,
        "-m",
        "bench.child",
        "--workload",
        workload.name,
        "--seed",
        str(seed),
        "--trace",
        str(int(traced)),
        "--out-dir",
        str(OUT_DIR),
    ]
    if quick:
        command.append("--quick")
    command += ["--t0", repr(perf_counter())]
    # Its own process group, so a timeout also reaps the workers and
    # daemons the pass started.
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=_CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    if process.returncode != 0:
        # Hung or crashed: reap whatever the pass left running.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.communicate()
    if process.returncode == EXIT_NO_PROGRAM:
        raise ProgramMissing(workload.name)
    if process.returncode != 0 or not stdout.strip():
        print(
            f"bench.run: pass of {workload.name} failed "
            f"(exit {process.returncode})",
            file=sys.stderr,
        )
        return None
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def evaluate(
    workload: Workload,
    fingerprint: Optional[Dict[str, Any]],
    reference: Optional[Dict[str, Any]],
    expected: Optional[Dict[str, Any]],
) -> List[Tuple[str, bool]]:
    """Every correctness check of one pass, as ``(name, passed)``.

    A crashed pass has no fingerprint and fails each of them, so the
    number of checks depends on the workload and the seed alone.
    """
    fp = fingerprint if fingerprint is not None else {}
    alive = fingerprint is not None
    checks: List[Tuple[str, bool]] = []
    if workload.deviants_convicted:
        checks.append(
            (
                "convicts_exactly_the_deviants",
                alive and fp["convicted"] == fp["deviants"] != [],
            )
        )
    else:
        checks.append(("no_verdicts", alive and fp["verdicts"] == []))
    if workload.scenario == "fig9-1m":
        cohort = fp.get("cohort_mean_kbps", 0.0)
        checks.append(
            (
                "population_mean_within_cohort_gate",
                alive
                and cohort > 0
                and abs(fp["population_mean_kbps"] - cohort)
                <= _COHORT_GATE * cohort,
            )
        )
    if workload.placement == "fleet":
        checks.append(
            ("daemons_exit_cleanly", fp.get("daemon_exits") == [0, 0])
        )
    if workload.overrides.get("policy") == "parallel":
        checks.append(
            ("workers_are_processes", fp.get("parallel_mode") == "process")
        )
    for name in FINGERPRINT_FIELDS if workload.reference else ():
        checks.append(
            (
                f"same_as_{workload.reference}.{name}",
                alive and reference is not None
                and fp[name] == reference[name],
            )
        )
    for name in sorted(expected or {}):
        checks.append(
            (f"expected.{name}", alive and fp.get(name) == expected[name])
        )
    return checks


def _load_expected() -> Dict[str, Dict[str, Any]]:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)["fingerprints"]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def _another_pass(
    args: argparse.Namespace, done: int, elapsed: float, last: float
) -> bool:
    if args.seconds is None:
        return done < args.repeats + (1 if args.trace else 0)
    floor = 2 if args.trace else _MIN_TIMED_PASSES
    return done < floor or elapsed + last <= args.seconds


def _is_traced(args: argparse.Namespace, index: int) -> bool:
    """Untraced passes come first: one when timed, else ``--repeats``."""
    if not args.trace:
        return False
    return index >= (1 if args.seconds is not None else args.repeats)


def run_workload(
    workload: Workload,
    args: argparse.Namespace,
    known: Dict[str, Dict[str, Any]],
    expected: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """Every pass of one workload, checked and summarised.

    ``known`` maps workloads to a fingerprint at this seed and size:
    the committed ones at the default seed, plus what earlier
    workloads of this invocation produced.  A reference fingerprint
    not in it costs one unmeasured pass of the reference workload.
    ``expected`` is this workload's committed fingerprint, if the run
    is held against it.
    """
    started = perf_counter()
    reference = None
    if workload.reference is not None:
        if workload.reference not in known:
            payload = run_pass(
                get_workload(workload.reference),
                args.seed,
                False,
                args.quick,
            )
            if payload is not None:
                known[workload.reference] = payload["fingerprint"]
        reference = known.get(workload.reference)

    passes: List[Dict[str, Any]] = []
    traced_passes: List[Dict[str, Any]] = []
    attempted = failed = done = 0
    failures: List[str] = []
    last = 0.0
    while _another_pass(args, done, perf_counter() - started, last):
        traced = _is_traced(args, done)
        seed = args.seed
        if workload.seed_per_pass and not traced:
            seed += done
        began = perf_counter()
        payload = run_pass(workload, seed, traced, args.quick)
        last = perf_counter() - began
        done += 1
        for name, passed in evaluate(
            workload,
            payload["fingerprint"] if payload else None,
            reference,
            expected if seed == args.seed else None,
        ):
            attempted += 1
            if not passed:
                failed += 1
                if name not in failures:
                    failures.append(name)
        if payload is not None:
            (traced_passes if traced else passes).append(payload)
            if not traced:
                known.setdefault(workload.name, payload["fingerprint"])

    share = failed / attempted if attempted else 1.0
    speeds = [p["machine_speed"] for p in passes]
    end_to_end = {
        name: _row(
            unit,
            better,
            [p["end_to_end"][name] for p in passes],
            speeds,
        )
        for name, (unit, better, _bound) in END_TO_END.items()
    }
    end_to_end["failed_share"] = _row("ratio", "lower", [share], [1.0])
    some = (passes or traced_passes or [{}])[0]
    return {
        "why": workload.why,
        "sizes": some.get("sizes", {}),
        "env": some.get("env", {}),
        "passes": len(passes),
        "traced_passes": len(traced_passes),
        "machine_speed": summarize(speeds),
        "end_to_end": end_to_end,
        "per_layer": _per_layer(passes, traced_passes) if args.trace else {},
        "checks": {
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
        },
    }


#: How a metric of this unit scales with the machine's speed: a time
#: measured at speed 0.8 reads 0.8 times as long on the reference machine.
_SPEED_EXPONENT = {"s": 1, "1/s": -1}


def _row(
    unit: str, better: str, raw: List[float], speeds: List[float]
) -> Dict[str, Any]:
    """One end-to-end metric over the passes of a run.

    ``values`` are the passes' measurements brought to the speed of
    the reference machine (see ``bench.probe``); ``raw`` are the
    measurements themselves.
    """
    exponent = _SPEED_EXPONENT.get(unit, 0)
    values = [v * s**exponent for v, s in zip(raw, speeds)]
    return {
        "unit": unit,
        "better": better,
        "values": values,
        "raw": raw,
        **summarize(values),
    }


def _per_layer(
    passes: List[Dict[str, Any]], traced: List[Dict[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric: median over the passes that measure it."""
    samples: Dict[str, List[float]] = {}
    for payload in passes:
        for name, value in payload["layers"].items():
            samples.setdefault(name, []).append(value)
    for payload in traced:
        for name, value in payload["layers"].items():
            if not name.startswith(_UNTRACED_LAYERS):
                samples.setdefault(name, []).append(value)
    rounds = [ms for payload in passes for ms in payload["round_ms"]]
    if rounds:
        samples["sim.engine.round_p50_ms"] = [percentile(rounds, 0.5)]
    plain = [p["end_to_end"]["run_s"] for p in passes]
    slowed = [p["end_to_end"]["run_s"] for p in traced]
    if plain and slowed:
        samples["trace_overhead_share"] = [
            statistics.median(slowed) / statistics.median(plain) - 1.0
        ]
    out: Dict[str, Dict[str, Any]] = {}
    for name, (unit, better) in PER_LAYER.items():
        values = samples.get(name, [])
        out[name] = {
            "unit": unit,
            "better": better,
            "value": statistics.median(values) if values else 0.0,
            "n": len(values),
        }
    if len(rounds) >= ROUND_P90_MIN_SAMPLES:
        out["sim.engine.round_p90_ms"] = {
            "unit": "ms",
            "better": "lower",
            "value": percentile(rounds, 0.9),
            "n": len(rounds),
        }
    return out


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def environment(results: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    env: Dict[str, Any] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    for result in results.values():
        env.update(result["env"])
    return env


def print_report(document: Dict[str, Any]) -> None:
    env = document["environment"]
    print("environment:")
    for key in sorted(env):
        print(f"  {key:<18} {env[key]}")
    for warning in document["warnings"]:
        print(f"  WARNING: {warning}")
    for name, result in document["workloads"].items():
        sizes = " ".join(f"{k}={v}" for k, v in result["sizes"].items())
        checks = result["checks"]
        print(
            f"\n{name}  [{sizes}]  passes={result['passes']}"
            f"+{result['traced_passes']} traced  checks "
            f"{checks['attempted'] - checks['failed']}/"
            f"{checks['attempted']} ok"
        )
        for failure in checks["failures"]:
            print(f"  FAILED CHECK: {failure}")
        machine = result["machine_speed"]
        print(
            f"  machine speed {machine['median']:.2f} of reference "
            f"(q1 {machine['q1']:.2f}, q3 {machine['q3']:.2f}); times "
            "below are scaled to the reference machine"
        )
        print(
            f"  {'metric':<22}{'unit':<7}{'median':>13}"
            f"{'q1':>13}{'q3':>13}{'n':>4}{'cv%':>7}"
        )
        for metric, row in result["end_to_end"].items():
            print(
                f"  {metric:<22}{row['unit']:<7}{row['median']:>13.4f}"
                f"{row['q1']:>13.4f}{row['q3']:>13.4f}{row['n']:>4}"
                f"{100 * row['cv']:>7.2f}"
            )
        for metric, row in result["per_layer"].items():
            print(
                f"  {metric:<42}{row['unit']:<7}{row['value']:>18.6f}"
            )


def driver_line(result: Dict[str, Any], traced: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    if traced:
        metrics = {
            name: {"value": result["per_layer"][name]["value"], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {
                "value": result["end_to_end"][name]["median"],
                "unit": unit,
            }
            for name, (unit, _better, _bound) in END_TO_END.items()
        }
    checks = result["checks"]
    return json.dumps(
        {
            "correct": checks["failed"] == 0,
            "attempted": checks["attempted"],
            "failed": checks["failed"],
            "metrics": metrics,
        }
    )


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="bench.run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument(
        "--workload",
        choices=[w.name for w in WORKLOADS],
        default=None,
        help="run one workload (default: all six, in order)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="untraced passes per workload (default 5)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="repeat passes until this many seconds are used instead "
        f"of --repeats (at least {_MIN_TIMED_PASSES} passes)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="scenario seed; at the default the fingerprints must also "
        "equal bench/expected.json",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="add a traced pass and print the per-layer metrics",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink every workload to under a second (self-test)",
    )
    parser.add_argument(
        "--out", type=Path, default=None, help="write the report as JSON"
    )
    parser.add_argument(
        "--update-expected",
        action="store_true",
        help="rewrite bench/expected.json from this run (all workloads, "
        "default seed); for a benchmark-only change that re-measures",
    )
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.update_expected and (
        args.workload or args.quick or args.seed != DEFAULT_SEED
    ):
        parser.error(
            "--update-expected needs all workloads at full size and "
            "the default seed"
        )
    args.seed = abs(args.seed)
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    chosen = (
        [get_workload(args.workload)] if args.workload else list(WORKLOADS)
    )
    nproc = os.cpu_count() or 1
    load_start = os.getloadavg()[0]
    warnings = []
    if load_start > 0.5 * nproc:
        warnings.append(
            f"1-minute load {load_start:.2f} at start exceeds half of "
            f"nproc={nproc}; timings will be noisy"
        )
    results: Dict[str, Dict[str, Any]] = {}
    committed: Dict[str, Dict[str, Any]] = {}
    if (
        args.seed == DEFAULT_SEED
        and not args.quick
        and not args.update_expected
    ):
        committed = _load_expected()
    known = dict(committed)
    try:
        for workload in chosen:
            results[workload.name] = run_workload(
                workload, args, known, committed.get(workload.name)
            )
    except ProgramMissing as exc:
        print(
            f"bench.run: src/repro is not importable ({exc}); nothing "
            "to measure",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM_FOUND
    env = environment(results)
    env["load_1m_start"] = load_start
    env["load_1m_end"] = os.getloadavg()[0]
    document = {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "traced": bool(args.trace),
        "environment": env,
        "warnings": warnings,
        "workloads": results,
    }
    print_report(document)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
    if args.update_expected:
        fingerprints = {
            name: {
                key: value
                for key, value in fingerprint.items()
                if key not in _NOT_COMMITTED
            }
            for name, fingerprint in known.items()
        }
        # One line per workload keeps the long verdict lists reviewable.
        lines = ",\n".join(
            f'  "{name}": {json.dumps(fingerprints[name], sort_keys=True)}'
            for name in sorted(fingerprints)
        )
        EXPECTED_PATH.write_text(
            f'{{"seed": {DEFAULT_SEED}, "fingerprints": {{\n{lines}\n}}}}\n'
        )
    measured = all(
        result["traced_passes"] if args.trace else result["passes"]
        for result in results.values()
    )
    if not measured:
        print("bench.run: no pass completed", file=sys.stderr)
        return 1
    if args.workload:
        print(driver_line(results[args.workload], bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
