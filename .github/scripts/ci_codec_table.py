#!/usr/bin/env python
"""Per-kind stopwatch of the v1 wire codec, and of pickle, over live
traffic.

Taps every encodable message of a live ``fig9`` (120 nodes, 10 rounds)
the way ``tests/net/live_traffic.py`` does, then times
``wire.encode_message`` and ``wire.decode_message`` over the captured
stream: per kind and overall, the message count, mean payload bytes
and CPU microseconds per encode and per decode, each the best of nine
sweeps with the garbage collector off.  Every decode is first checked
equal to its message, so a table is never printed for a codec that
does not round-trip.

Beside them, the same for ``pickle.dumps`` / ``pickle.loads`` at the
highest protocol, one message at a time: what a message costs the
parallel policy when it crosses between two shards (the daemon fleet
pays the codec columns, ``--policy parallel`` the pickle columns).  A
live barrier pickles a shard's messages as one list, so objects shared
between messages are written once there; this column is the
per-message upper bound, and comparable between two commits.

This is the instrument PERFORMANCE.md's per-kind codec table and its
"what a barrier carries" pickle rows are read from; it uses only names
the package has had since PR 17, so ``PYTHONPATH=<another
checkout>/src`` runs it on that checkout.  Timings on a shared runner
are recorded, not judged.

Usage: PYTHONPATH=src python .github/scripts/ci_codec_table.py
"""

from __future__ import annotations

import gc
import pickle
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


def _dumps(message: Any) -> bytes:
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def measure(messages: List[Any], sweeps: int) -> List[Tuple[Any, ...]]:
    """``(kind, n, mean payload bytes, encode us, decode us, mean
    pickled bytes, dumps us, loads us)`` rows, heaviest kind first,
    then the ``all`` row."""
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
        pickles = [_dumps(m) for m in group]
        for message, pickled in zip(group, pickles):
            if pickle.loads(pickled) != message:
                raise AssertionError(f"{kind} does not unpickle: {message}")
        rows.append(
            (
                kind, len(group), size, encode, decode,
                sum(map(len, pickles)) / len(pickles),
                best_us_per_call(_dumps, group, sweeps),
                best_us_per_call(pickle.loads, pickles, sweeps),
            )
        )
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
        f"v1 codec and pickle over a live fig9 {NODES}x{ROUNDS}: CPU us "
        f"per message, best of {SWEEPS} sweeps, gc off"
    )
    print(
        "| kind | n | bytes | encode | decode "
        "| pickled bytes | dumps | loads |"
    )
    print("|---|---:|---:|---:|---:|---:|---:|---:|")
    for kind, n, size, encode, decode, pickled, dumps, loads in rows:
        print(
            f"| `{kind}` | {n:,} | {size:.0f} | {encode:.1f} | "
            f"{decode:.1f} | {pickled:.0f} | {dumps:.1f} | {loads:.1f} |"
        )
    n, dumps, loads = rows[-1][1], rows[-1][6], rows[-1][7]
    print(
        f"pickle, whole stream: dumps {n * dumps / 1e6:.3f} s + loads "
        f"{n * loads / 1e6:.3f} s = {n * (dumps + loads) / 1e6:.3f} s"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
