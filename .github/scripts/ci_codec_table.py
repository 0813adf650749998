#!/usr/bin/env python
"""Per-kind stopwatch of the v1 wire codec over live traffic.

Taps every encodable message of a live ``fig9`` (120 nodes, 10 rounds)
the way ``tests/net/live_traffic.py`` does, then times
``wire.encode_message`` and ``wire.decode_message`` over the captured
stream: per kind and overall, the message count, mean payload bytes
and CPU microseconds per encode and per decode, each the best of nine
sweeps with the garbage collector off.  Every decode is first checked
equal to its message, so a table is never printed for a codec that
does not round-trip.

This is the instrument PERFORMANCE.md's per-kind codec table is read
from.  Timings on a shared runner are recorded, not judged.

Usage: PYTHONPATH=src python .github/scripts/ci_codec_table.py
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.net import wire
from repro.scenarios import get_scenario

NODES = 120
ROUNDS = 10
SWEEPS = 9


class _EncodableTap:
    def __init__(self) -> None:
        self.messages: List[Any] = []

    def observe(self, message: Any, size: int) -> None:
        if wire.encodable(message):
            self.messages.append(message)


def capture(nodes: int, rounds: int) -> List[Any]:
    """Every encodable message of the run, in send order."""
    spec = get_scenario("fig9", nodes=nodes, rounds=rounds)
    session = spec.build(None)
    tap = _EncodableTap()
    session.simulator.network.add_tap(tap)
    session.run(spec.rounds)
    return tap.messages


def best_us_per_call(
    function: Callable[[Any], Any], inputs: List[Any], sweeps: int
) -> float:
    """CPU us per call of ``function`` over ``inputs``, best sweep."""
    best = float("inf")
    for _ in range(sweeps):
        started = time.process_time_ns()
        for item in inputs:
            function(item)
        best = min(best, time.process_time_ns() - started)
    return best / 1e3 / len(inputs)


def measure(
    messages: List[Any], sweeps: int
) -> List[Tuple[str, int, float, float, float]]:
    """``(kind, n, mean payload bytes, encode us, decode us)`` rows,
    heaviest kind first, then the ``all`` row."""
    by_kind: Dict[str, List[Any]] = {}
    for message in messages:
        by_kind.setdefault(type(message).kind, []).append(message)
    groups = sorted(by_kind.items()) + [("all", messages)]
    rows = []
    for kind, group in groups:
        payloads = [wire.encode_message(m) for m in group]
        for message, payload in zip(group, payloads):
            if wire.decode_message(payload) != message:
                raise AssertionError(f"{kind} does not round-trip: {message}")
        size = sum(map(len, payloads)) / len(payloads)
        encode = best_us_per_call(wire.encode_message, group, sweeps)
        decode = best_us_per_call(wire.decode_message, payloads, sweeps)
        rows.append((kind, len(group), size, encode, decode))
    rows[:-1] = sorted(
        rows[:-1], key=lambda row: -(row[1] * (row[3] + row[4]))
    )
    return rows


def main() -> int:
    messages = capture(NODES, ROUNDS)
    gc.collect()
    gc.disable()
    try:
        rows = measure(messages, SWEEPS)
    finally:
        gc.enable()
    print(
        f"v1 codec over a live fig9 {NODES}x{ROUNDS}: CPU us per "
        f"message, best of {SWEEPS} sweeps, gc off"
    )
    print("| kind | n | bytes | encode | decode |")
    print("|---|---:|---:|---:|---:|")
    for kind, n, size, encode, decode in rows:
        print(
            f"| `{kind}` | {n:,} | {size:.0f} | {encode:.1f} | "
            f"{decode:.1f} |"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
