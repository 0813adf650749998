"""One pass of one workload, in a process of its own.

``bench.run`` starts this module afresh for every repeat, because a
CLI user pays interpreter start, imports and cold caches on every run.
It builds the workload's session through the program's public
surfaces, runs it round by round, collects, and prints one JSON line:
the end-to-end measurements, the layer numbers this pass can vouch
for, and the fingerprint the parent checks for correctness.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import resource
import subprocess
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench.probe import Prober, speed
from bench.tracing import Tracer, install
from bench.workloads import Workload, get_workload

#: Exit code when the program under test is not importable from this
#: checkout's ``src``.
EXIT_NO_PROGRAM = 3

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src"
)

#: Recorded ``Signer.sign`` payloads replayed through real RSA-2048.
_SIGN_SAMPLES = 16

_DAEMON_EXIT_TIMEOUT_S = 30.0


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _process_cpu_s(pid: int) -> float:
    """user+sys CPU a live process has used so far (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _verdict_rows(verdicts: Any) -> List[List[Any]]:
    return sorted(
        [v.node, v.reason.value, v.exchange_round] for v in verdicts
    )


# ---------------------------------------------------------------------------
# inline placement: one session in this process (serial, parallel,
# population), driven round by round
# ---------------------------------------------------------------------------


def _run_inline(
    workload: Workload,
    spec: Any,
    timed: Callable[[str, Callable[[], Any]], Any],
    prober: Prober,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, float]]:
    from repro.scenarios import ScenarioResult

    policy = spec.make_policy()
    if workload.config:
        session = spec.build_pag_with(policy, **workload.config)
    else:
        session = spec.build(policy)
    ready = perf_counter()
    round_ms: List[float] = []

    def run() -> Any:
        try:
            for _ in range(spec.rounds):
                start = perf_counter()
                session.run(1)
                round_ms.append((perf_counter() - start) * 1e3)
            if policy is not None:
                policy.sync_session(session)
            result = ScenarioResult.collect(spec, session)
            if spec.population > 0:
                from repro.sim.population import build_population_result

                result = build_population_result(spec, session, result)
            return result
        finally:
            if policy is not None:
                policy.close()

    self_cpu = _cpu_s(resource.RUSAGE_SELF)
    prober.start()
    try:
        result = timed("bench.run", run)
    finally:
        prober.stop()
    run_s = perf_counter() - ready - prober.wall_s
    self_cpu = _cpu_s(resource.RUSAGE_SELF) - self_cpu - prober.cpu_s

    meter = session.simulator.network.meter
    fingerprint: Dict[str, Any] = {
        "messages": result.messages_sent,
        "total_bytes": result.total_bytes,
        "hashes": result.crypto_hashes,
        "mean_kbps": repr(result.mean_kbps),
        "meter_sha256": hashlib.sha256(
            json.dumps(meter.snapshot(), sort_keys=True).encode()
        ).hexdigest(),
        "verdicts": _verdict_rows(session.all_verdicts()),
        "convicted": list(result.convicted),
        "deviants": sorted(spec.deviant_nodes()),
    }
    layers: Dict[str, float] = {}
    stats = getattr(policy, "stats", None)
    if stats is not None:
        fingerprint["parallel_mode"] = policy.mode
        layers.update(
            {
                "sim.execution.parent_cpu_s": self_cpu,
                "sim.execution.worker_busy_cpu_s": stats.busy_cpu_seconds,
                "sim.execution.critical_path_cpu_s": (
                    stats.critical_cpu_seconds
                ),
                "sim.execution.shard_imbalance": stats.imbalance(),
                "sim.execution.ipc_wait_s": (
                    run_s - stats.critical_cpu_seconds
                ),
            }
        )
    plane: Dict[str, Any] = {}
    if spec.population > 0:
        plane = dict(result.plane_stats)
        fingerprint["population_mean_kbps"] = result.population_mean_kbps
        fingerprint["cohort_mean_kbps"] = result.mean_kbps
        fingerprint["spill_bytes"] = plane["spill_bytes"]
        fingerprint["memoised_hashes"] = plane["memoised_hashes"]
    timing = {
        "ready": ready,
        "run_s": run_s,
        "round_ms": round_ms,
        "plane": plane,
    }
    return fingerprint, timing, layers


# ---------------------------------------------------------------------------
# fleet placement: two daemons on unix sockets under one coordinator
# ---------------------------------------------------------------------------


def _socket_endpoints(out_dir: str) -> List[str]:
    """Relative socket paths: short whatever the checkout is called."""
    tmp = os.path.join(os.path.relpath(out_dir), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return [
        f"unix://{tmp}/fleet-{os.getpid()}-{shard}.sock"
        for shard in range(2)
    ]


def _unlink_sockets(endpoints: List[str]) -> None:
    for endpoint in endpoints:
        try:
            os.unlink(endpoint.partition("://")[2])
        except FileNotFoundError:
            pass


def _fleet_fingerprint(report: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "messages": report["messages_sent"],
        "frames_sent": report["frames_sent"],
        "bytes_on_wire": report["bytes_on_wire"],
        "relay_batches": report["relay_batches"],
        "relays_batched": report["relays_batched"],
        "verdicts": sorted(
            [node, reason, exchange_round]
            for node, reason, exchange_round, _ in report["verdicts"]
        ),
        "convicted": list(report["convicted"]),
        "deviants": [],
    }


def _run_fleet_processes(
    spec_of: Callable[[], Any], out_dir: str, prober: Prober
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, float]]:
    """The measured fleet: real ``repro daemon`` processes."""
    endpoints = _socket_endpoints(out_dir)
    daemons = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "daemon", "--listen", endpoint],
            stdout=subprocess.PIPE,
            text=True,
        )
        for endpoint in endpoints
    ]
    try:
        # Import and resolve while the daemons boot.
        from repro.net.daemon import SessionCoordinator

        spec = spec_of()
        for daemon in daemons:
            assert daemon.stdout is not None
            line = daemon.stdout.readline()
            if "daemon listening on" not in line:
                raise RuntimeError(
                    f"daemon did not come up (printed {line!r})"
                )
        ready = perf_counter()
        boot_cpu = sum(_process_cpu_s(daemon.pid) for daemon in daemons)
        self_cpu = _cpu_s(resource.RUSAGE_SELF)
        prober.start()
        try:
            report = asyncio.run(SessionCoordinator(spec, endpoints).run())
            exits = [
                daemon.wait(timeout=_DAEMON_EXIT_TIMEOUT_S)
                for daemon in daemons
            ]
        finally:
            prober.stop()
        run_s = perf_counter() - ready - prober.wall_s
        self_cpu = _cpu_s(resource.RUSAGE_SELF) - self_cpu - prober.cpu_s
    finally:
        for daemon in daemons:
            if daemon.poll() is None:
                daemon.kill()
            daemon.communicate()
        _unlink_sockets(endpoints)
    fingerprint = _fleet_fingerprint(report)
    fingerprint["daemon_exits"] = exits
    # Both daemons have been waited for, so RUSAGE_CHILDREN is theirs;
    # what they had used when they reported ready was their start-up.
    daemon_cpu = _cpu_s(resource.RUSAGE_CHILDREN) - boot_cpu
    layers = {
        "net.daemon.daemon_cpu_s": daemon_cpu,
        "net.daemon.coordinator_cpu_s": self_cpu,
        "net.daemon.idle_core_s": 2 * run_s - daemon_cpu,
    }
    timing = {"ready": ready, "run_s": run_s, "round_ms": [], "plane": {}}
    return fingerprint, timing, layers


def _run_fleet_in_process(
    spec: Any,
    out_dir: str,
    timed: Callable[[str, Callable[[], Any]], Any],
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, float]]:
    """The traced fleet: same daemons and coordinator, one event loop.

    Mirrors ``run_coordinated_session(spec, shards=2, scheme="unix")``
    with the sockets under ``bench/out`` so the wrappers reach both
    shards and nothing is written outside the checkout.
    """
    from repro.net.daemon import NodeDaemon, SessionCoordinator

    endpoints = _socket_endpoints(out_dir)

    async def session() -> Dict[str, Any]:
        daemons = [NodeDaemon(endpoint) for endpoint in endpoints]
        resolved = [await daemon.start() for daemon in daemons]
        servers = [
            asyncio.ensure_future(daemon.serve_forever())
            for daemon in daemons
        ]
        report = await SessionCoordinator(spec, resolved).run()
        await asyncio.gather(*servers)
        return report

    ready = perf_counter()
    try:
        report = timed("bench.run", lambda: asyncio.run(session()))
    finally:
        _unlink_sockets(endpoints)
    run_s = perf_counter() - ready
    fingerprint = _fleet_fingerprint(report)
    fingerprint["daemon_exits"] = [0, 0]
    timing = {"ready": ready, "run_s": run_s, "round_ms": [], "plane": {}}
    return fingerprint, timing, {}


# ---------------------------------------------------------------------------
# traced run: layer numbers from the wrappers and the program's counters
# ---------------------------------------------------------------------------


def _record_sign_payloads() -> List[bytes]:
    """Keep the first payloads the simulation signs, for the replay."""
    from repro.core.signing import TokenSigner

    samples: List[bytes] = []
    sign = TokenSigner.sign

    def recording_sign(self: Any, signer_id: int, payload: bytes) -> int:
        if len(samples) < _SIGN_SAMPLES:
            samples.append(payload)
        return sign(self, signer_id, payload)

    TokenSigner.sign = recording_sign  # type: ignore[method-assign]
    return samples


def _replay_rsa2048(samples: List[bytes]) -> Tuple[float, float]:
    """Mean ms per RSA-2048 signature and verification of ``samples``.

    The simulation signs with SHA-256 tokens priced at RSA-2048 wire
    size; Table I's 33 signatures/s/node anchor is about the real
    thing, so the recorded payloads are replayed through
    ``repro.crypto.rsa`` in isolation.
    """
    if not samples:
        return 0.0, 0.0
    from repro.crypto.rsa import generate_keypair

    pair = generate_keypair(2048)
    start = perf_counter()
    signatures = [pair.private.sign(payload) for payload in samples]
    sign_ms = (perf_counter() - start) * 1e3 / len(samples)
    start = perf_counter()
    valid = [
        pair.public.verify(payload, signature)
        for payload, signature in zip(samples, signatures)
    ]
    verify_ms = (perf_counter() - start) * 1e3 / len(samples)
    if not all(valid):
        raise RuntimeError("replayed RSA-2048 signature did not verify")
    return sign_ms, verify_ms


def _traced_layers(
    tracer: Tracer,
    spec: Any,
    fingerprint: Dict[str, Any],
    plane: Dict[str, Any],
    samples: List[bytes],
) -> Dict[str, float]:
    from repro.crypto.backend import gmpy2_available

    names = tracer.by_name()
    by_layer = tracer.by_layer()

    def calls(name: str) -> float:
        return names.get(name, {}).get("calls", 0)

    def total_s(name: str) -> float:
        return names.get(name, {}).get("total_s", 0.0)

    def name_self_s(name: str) -> float:
        return names.get(name, {}).get("self_s", 0.0)

    def self_s(layer: str) -> float:
        return by_layer.get(layer, {}).get("self_s", 0.0)

    def busy_s(layer: str) -> float:
        return by_layer.get(layer, {}).get("busy_s", 0.0)

    def per(amount: float, count: float) -> float:
        return amount / count if count else 0.0

    # The program's own protocol-level counters, summed over every
    # session built in this process (one, or one per fleet shard).
    crypto: Dict[str, int] = {}
    cache: Dict[str, float] = {}
    monitor: Dict[str, int] = {}
    for session in tracer.sessions:
        for source, into in (
            (session.crypto_report(), crypto),
            (session.context.hasher.cache_stats(), cache),
            (session.accusation_report(), monitor),
        ):
            for key, value in source.items():
                into[key] = into.get(key, 0) + value
    hashes = crypto.get("homomorphic_hashes", 0)
    sign_ms, verify_ms = _replay_rsa2048(samples)
    run_s = total_s("bench.run")
    messages = calls("PagNode.on_message")
    plane_step_s = total_s("PopulationPlane.end_round")
    plane_nodes = plane.get("plane_nodes", 0)
    frames = fingerprint.get("frames_sent", 0)
    wire_bytes = fingerprint.get("bytes_on_wire", 0)
    send_calls, send_ns = tracer.waits.get("daemon.send_message", (0, 0))
    _recv_calls, recv_ns = tracer.waits.get("daemon.recv_message", (0, 0))
    crypto_self = sum(
        row["self_s"]
        for layer, row in by_layer.items()
        if layer.startswith("crypto.")
    )
    return {
        "crypto.homomorphic.hashes": hashes,
        "crypto.homomorphic.busy_s": busy_s("crypto.homomorphic"),
        "crypto.homomorphic.us_per_hash": per(
            busy_s("crypto.homomorphic") * 1e6,
            calls("HomomorphicHasher.hash"),
        ),
        "crypto.homomorphic.fixed_base_hit_rate": per(
            cache.get("fixed_base_hits", 0), hashes
        ),
        "crypto.homomorphic.memo_hit_rate": per(
            cache.get("memo_hits", 0), hashes
        ),
        "crypto.homomorphic.cold_powmods": cache.get("cold_powmods", 0),
        "crypto.backend.gmpy2_available": int(gmpy2_available()),
        "crypto.backend.powmod_calls": calls("Backend.powmod"),
        "crypto.backend.powmod_busy_s": total_s("Backend.powmod"),
        "crypto.backend.multi_powmod_calls": calls("Backend.multi_powmod"),
        "crypto.primes.generations": crypto.get("prime_generations", 0),
        "crypto.primes.busy_s": busy_s("crypto.primes"),
        "crypto.primes.ms_per_prime": per(
            busy_s("crypto.primes") * 1e3, calls("PrimePool.take")
        ),
        "crypto.busy_share": per(crypto_self, run_s),
        "core.signing.signatures": crypto.get("signatures", 0),
        "core.signing.verifications": crypto.get("verifications", 0),
        "core.signing.busy_s": busy_s("core.signing"),
        "core.signing.rsa2048_sign_ms": sign_ms,
        "core.signing.rsa2048_verify_ms": verify_ms,
        "core.verification.batched_lifts": cache.get("batched_lifts", 0),
        "core.verification.fold_calls": calls("BatchVerifier.fold"),
        "core.verification.fold_busy_s": total_s("BatchVerifier.fold"),
        "core.node.on_message_calls": messages,
        "core.node.self_s": self_s("core.node"),
        "core.monitor.self_s": self_s("core.monitor"),
        **{
            f"core.monitor.{key}": monitor.get(key, 0)
            for key in (
                "declarations_processed",
                "accusations_received",
                "probes_sent",
                "cases_opened",
                "deadline_convictions",
            )
        },
        "core.monitor.verdicts": len(fingerprint["verdicts"]),
        "sim.engine.rounds": calls("Simulator.run_round"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.messages_delivered": messages,
        "sim.engine.us_per_message": per(
            self_s("sim.engine") * 1e6, messages
        ),
        "sim.network.sends": calls("Network.send"),
        "sim.network.self_s": self_s("sim.network"),
        "sim.metrics.records": calls("BandwidthMeter.record"),
        "sim.metrics.record_self_s": name_self_s("BandwidthMeter.record"),
        "sim.metrics.collect_s": (
            total_s("BandwidthMeter.all_node_kbps")
            + total_s("SpilledMeter.window_kbps_vector")
        ),
        "sim.population.plane_nodes": plane_nodes,
        "sim.population.plane_step_s": plane_step_s,
        "sim.population.plane_node_rounds_per_s": per(
            plane_nodes * spec.rounds, plane_step_s
        ),
        "sim.population.class_hit_rate": plane.get("class_hit_rate", 0.0),
        "sim.population.memoised_hashes": plane.get("memoised_hashes", 0),
        "sim.trace.spill_bytes": plane.get("spill_bytes", 0),
        "sim.trace.spill_write_s": (
            name_self_s("ColumnarRoundSpill.append_round")
            + name_self_s("ColumnarRoundSpill.flush")
        ),
        "sim.trace.spill_read_s": (
            name_self_s("ColumnarRoundSpill.window_sum")
            + name_self_s("ColumnarRoundSpill.read_round")
        ),
        "net.wire.frames_sent": frames,
        "net.wire.bytes_on_wire": wire_bytes,
        "net.wire.bytes_per_frame": per(wire_bytes, frames),
        "net.wire.relay_batches": fingerprint.get("relay_batches", 0),
        "net.wire.relays_batched": fingerprint.get("relays_batched", 0),
        "net.wire.encode_us": per(
            total_s("wire.encode_message") * 1e6,
            calls("wire.encode_message"),
        ),
        "net.wire.decode_us": per(
            total_s("wire.decode_message") * 1e6,
            calls("wire.decode_message"),
        ),
        "net.transport.send_us": per(
            send_ns / 1e3 - total_s("wire.encode_message") * 1e6,
            send_calls,
        ),
        "net.transport.recv_wait_s": (
            recv_ns / 1e9 - total_s("wire.decode_message")
        ),
        "unattributed_share": per(name_self_s("bench.run"), run_s),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--t0",
        type=float,
        default=None,
        help="perf_counter() of the parent just before it started this "
        "process (the clock is system-wide); set-up time counts from it",
    )
    parser.add_argument("--out-dir", required=True)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    entered = perf_counter()
    args = _parse(argv)
    t0 = args.t0 if args.t0 is not None else entered
    workload = get_workload(args.workload)
    sizes = {**workload.sizes(args.quick), "seed": args.seed}
    try:
        import repro
    except ImportError as exc:
        print(f"bench.child: program not importable: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    if not os.path.realpath(repro.__file__).startswith(_SRC + os.sep):
        # An installed copy would be measured in place of this checkout.
        print(
            f"bench.child: repro comes from {repro.__file__}, not {_SRC}",
            file=sys.stderr,
        )
        return EXIT_NO_PROGRAM

    tracer: Optional[Tracer] = None
    samples: List[bytes] = []
    if args.trace:
        tracer = Tracer(f"{workload.name}-{args.seed}-{os.getpid()}")
        if workload.replay_signatures:
            samples = _record_sign_payloads()
        install(tracer)

    def timed(name: str, fn: Callable[[], Any]) -> Any:
        if tracer is None:
            return fn()
        return tracer.wrap(name, "bench", fn, stored=True)()

    def spec_of() -> Any:
        from repro.scenarios import get_scenario

        return get_scenario(workload.scenario, **sizes)

    prober = Prober(workload.probe, enabled=tracer is None)
    import_s = 0.0
    build_start = perf_counter()
    if workload.placement == "fleet" and tracer is None:
        fingerprint, timing, layers = _run_fleet_processes(
            spec_of, args.out_dir, prober
        )
        spec = spec_of()
    else:
        spec = spec_of()
        import_s = perf_counter() - build_start
        build_start = perf_counter()
        if workload.placement == "fleet":
            fingerprint, timing, layers = _run_fleet_in_process(
                spec, args.out_dir, timed
            )
        else:
            fingerprint, timing, layers = _run_inline(
                workload, spec, timed, prober
            )
    ready, run_s = timing["ready"], timing["run_s"]

    node_rounds = (spec.population or spec.nodes) * spec.rounds
    usage = [
        resource.getrusage(who)
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ]
    end_to_end = {
        "setup_s": ready - t0,
        "run_s": run_s,
        "node_rounds_per_s": node_rounds / run_s,
        "cpu_s": sum(u.ru_utime + u.ru_stime for u in usage) - prober.cpu_s,
        "peak_rss_mib": max(u.ru_maxrss for u in usage) / 1024.0,
    }

    if tracer is None:
        layers["scenarios.spec.import_s"] = import_s
        layers["scenarios.spec.build_s"] = ready - build_start
    else:
        layers.update(
            _traced_layers(
                tracer, spec, fingerprint, timing["plane"], samples
            )
        )
        trace_path = os.path.join(
            args.out_dir, f"trace_{workload.name}.json"
        )
        with open(trace_path, "w") as handle:
            json.dump(
                {
                    "workload": workload.name,
                    "seed": args.seed,
                    **tracer.dump(),
                },
                handle,
            )

    from repro.crypto.backend import default_backend, gmpy2_available

    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "traced": bool(args.trace),
                "sizes": {
                    "nodes": spec.nodes,
                    "rounds": spec.rounds,
                    "population": spec.population,
                },
                "end_to_end": end_to_end,
                "machine_speed": speed(workload.probe, prober.samples),
                "round_ms": timing["round_ms"],
                "layers": layers,
                "fingerprint": fingerprint,
                "env": {
                    "crypto_backend": default_backend().name,
                    "gmpy2_available": gmpy2_available(),
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
