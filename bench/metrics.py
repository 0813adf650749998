"""Metric tables and the summary statistics every report uses.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json``
lists; the self-test holds the two in step.  Per-layer names are
``<module>.<metric>`` and say which module of ``src/repro`` they
measure.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

__all__ = [
    "END_TO_END",
    "PER_LAYER",
    "ROUND_P90_MIN_SAMPLES",
    "percentile",
    "spread",
    "summarize",
]

#: End-to-end metric -> (unit, better, bound).  The bound is the share
#: of the parent's median by which the metric may worsen: three times
#: the widest spread measured over ten seeds on any workload, at most
#: the 0.25 the driver allows (bench/README.md, "Noise").
#: ``failed_share`` (failed checks / checks attempted) is reported
#: beside them; it is 0 on a correct run, so the driver line carries it
#: as ``failed`` and ``attempted`` instead of as a bounded metric.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "node_rounds_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.10),
}

#: Per-layer metric -> (unit, better).  Collected by the traced run
#: only; none of them feeds an end-to-end number.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "scenarios.spec.import_s": ("s", "lower"),
    "scenarios.spec.build_s": ("s", "lower"),
    "crypto.homomorphic.hashes": ("count", "lower"),
    "crypto.homomorphic.busy_s": ("s", "lower"),
    "crypto.homomorphic.us_per_hash": ("us", "lower"),
    "crypto.homomorphic.fixed_base_hit_rate": ("ratio", "higher"),
    "crypto.homomorphic.memo_hit_rate": ("ratio", "higher"),
    "crypto.homomorphic.cold_powmods": ("count", "lower"),
    "crypto.backend.gmpy2_available": ("count", "higher"),
    "crypto.backend.powmod_calls": ("count", "lower"),
    "crypto.backend.powmod_busy_s": ("s", "lower"),
    "crypto.backend.multi_powmod_calls": ("count", "lower"),
    "crypto.primes.generations": ("count", "lower"),
    "crypto.primes.busy_s": ("s", "lower"),
    "crypto.primes.ms_per_prime": ("ms", "lower"),
    "crypto.busy_share": ("ratio", "lower"),
    "core.signing.signatures": ("count", "lower"),
    "core.signing.verifications": ("count", "lower"),
    "core.signing.busy_s": ("s", "lower"),
    "core.signing.rsa2048_sign_ms": ("ms", "lower"),
    "core.signing.rsa2048_verify_ms": ("ms", "lower"),
    "core.verification.batched_lifts": ("count", "higher"),
    "core.verification.fold_calls": ("count", "lower"),
    "core.verification.fold_busy_s": ("s", "lower"),
    "core.node.on_message_calls": ("count", "lower"),
    "core.node.self_s": ("s", "lower"),
    "core.monitor.self_s": ("s", "lower"),
    "core.monitor.declarations_processed": ("count", "lower"),
    "core.monitor.accusations_received": ("count", "lower"),
    "core.monitor.probes_sent": ("count", "lower"),
    "core.monitor.cases_opened": ("count", "lower"),
    "core.monitor.deadline_convictions": ("count", "lower"),
    "core.monitor.verdicts": ("count", "lower"),
    "sim.engine.rounds": ("count", "higher"),
    "sim.engine.round_p50_ms": ("ms", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.messages_delivered": ("count", "lower"),
    "sim.engine.us_per_message": ("us", "lower"),
    "sim.network.sends": ("count", "lower"),
    "sim.network.self_s": ("s", "lower"),
    "sim.metrics.records": ("count", "lower"),
    "sim.metrics.record_self_s": ("s", "lower"),
    "sim.metrics.collect_s": ("s", "lower"),
    "sim.execution.parent_cpu_s": ("s", "lower"),
    "sim.execution.worker_busy_cpu_s": ("s", "lower"),
    "sim.execution.critical_path_cpu_s": ("s", "lower"),
    "sim.execution.shard_imbalance": ("ratio", "lower"),
    "sim.execution.ipc_wait_s": ("s", "lower"),
    "sim.population.plane_nodes": ("count", "higher"),
    "sim.population.plane_step_s": ("s", "lower"),
    "sim.population.plane_node_rounds_per_s": ("1/s", "higher"),
    "sim.population.class_hit_rate": ("ratio", "higher"),
    "sim.population.memoised_hashes": ("count", "higher"),
    "sim.trace.spill_bytes": ("B", "lower"),
    "sim.trace.spill_write_s": ("s", "lower"),
    "sim.trace.spill_read_s": ("s", "lower"),
    "net.wire.frames_sent": ("count", "lower"),
    "net.wire.bytes_on_wire": ("B", "lower"),
    "net.wire.bytes_per_frame": ("B", "lower"),
    "net.wire.relay_batches": ("count", "higher"),
    "net.wire.relays_batched": ("count", "higher"),
    "net.wire.encode_us": ("us", "lower"),
    "net.wire.decode_us": ("us", "lower"),
    "net.transport.send_us": ("us", "lower"),
    "net.transport.recv_wait_s": ("s", "lower"),
    "net.daemon.daemon_cpu_s": ("s", "lower"),
    "net.daemon.coordinator_cpu_s": ("s", "lower"),
    "net.daemon.idle_core_s": ("s", "lower"),
    "trace_overhead_share": ("ratio", "lower"),
    "unattributed_share": ("ratio", "lower"),
}

#: ``sim.engine.round_p90_ms`` is printed only from this many round
#: samples on: ten samples must lie beyond a reported percentile.
ROUND_P90_MIN_SAMPLES = 100


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median.

    The driver's steadiness measure; 0 below two values or at a zero
    median.
    """
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def summarize(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, n and coefficient of variation."""
    n = len(values)
    if n == 0:
        return {"n": 0, "median": 0.0, "q1": 0.0, "q3": 0.0, "cv": 0.0}
    median = statistics.median(values)
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        mean = statistics.fmean(values)
        cv = statistics.stdev(values) / mean if mean else 0.0
    else:
        q1 = q3 = median
        cv = 0.0
    return {"n": n, "median": median, "q1": q1, "q3": q3, "cv": cv}
