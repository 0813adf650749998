#!/usr/bin/env python
"""What the cyclic garbage collector costs each process of a run.

Runs three workloads at the default seed:

* ``fig9`` 120x10, serial;
* ``coalition-mixed`` 60x14, serial (the accusation path);
* ``fig9`` 120x10 on two parallel workers.

and prints one row per process: collections per generation and the
seconds spent inside them, from a ``gc.callbacks`` hook registered
before the workers fork, so each worker inherits it and counts under
its own pid.  Every row covers the rounds only: a parent row
``session.run``, a worker row what follows its replica rebuild, read
over the pipe before the workers stop.

The engine, each parallel replica and each daemon hold automatic
collection off for a round and let the interpreter run the deferred
collection at the round's barrier (``repro.sim.collection``), so a
round costs about one young collection per process.  This is the
"where did the time go" of a layer no benchmark tracer can wrap.  It
uses only names the parallel policy has long had, so
``PYTHONPATH=<another checkout>/src`` runs it on that checkout.
Timings on a shared runner are recorded, not judged.

Usage: PYTHONPATH=src python .github/scripts/ci_gc_rounds.py
"""

from __future__ import annotations

import gc
import os
import time
from typing import Dict, List

from repro.scenarios import get_scenario
from repro.sim.execution import ParallelShardedPolicy, _ReplicaWorker

#: pid -> [gen0, gen1, gen2, seconds inside collections]
_TALLY: Dict[int, List[float]] = {}
_STARTED: Dict[int, float] = {}


def _on_collection(phase: str, info: dict) -> None:
    pid = os.getpid()
    if phase == "start":
        _STARTED[pid] = time.perf_counter()
        return
    tally = _TALLY.setdefault(pid, [0, 0, 0, 0.0])
    tally[info["generation"]] += 1
    tally[3] += time.perf_counter() - _STARTED.pop(pid)


def _tally_now() -> List[float]:
    return list(_TALLY.get(os.getpid(), [0, 0, 0, 0.0]))


_rebuild = _ReplicaWorker.__init__


def _rebuild_then_mark(self, *args) -> None:
    """Replica-side (installed before the fork): the tally after the
    replica rebuild, which the worker's row leaves out."""
    _rebuild(self, *args)
    self.gc_tally_at_start = _tally_now()


def _own_tally(self) -> List[float]:
    """Replica-side: this worker's tally since its rebuild."""
    return [a - b for a, b in zip(_tally_now(), self.gc_tally_at_start)]


def _run(label: str, spec, workers: int = 0) -> List[tuple]:
    policy = ParallelShardedPolicy(workers=workers) if workers else None
    session = spec.build(policy)
    before = _tally_now()
    started = time.perf_counter()
    try:
        session.run(spec.rounds)
        run_s = time.perf_counter() - started
        after = _tally_now()
        rows = [
            (label, "parent", [a - b for a, b in zip(after, before)], run_s)
        ]
        for handle in policy._handles if policy else ():
            rows.append((
                label,
                f"worker {handle.shard}",
                handle.call("the collector tally", "own_gc_tally"),
                None,
            ))
    finally:
        if policy is not None:
            policy.close()
    return rows


def main() -> None:
    gc.callbacks.append(_on_collection)
    _ReplicaWorker.__init__ = _rebuild_then_mark
    _ReplicaWorker.own_gc_tally = _own_tally
    fig9 = get_scenario("fig9", nodes=120, rounds=10)
    rows = []
    rows += _run("fig9 120x10 serial", fig9)
    rows += _run(
        "coalition-mixed 60x14 serial",
        get_scenario("coalition-mixed", nodes=60, rounds=14),
    )
    rows += _run("fig9 120x10 2 workers", fig9, workers=2)
    print(
        f"{'workload':<30} {'process':<9} {'gen0':>5} {'gen1':>5} "
        f"{'gen2':>5} {'total':>6} {'gc_s':>7} {'run_s':>7}"
    )
    for label, process, (gen0, gen1, gen2, seconds), run_s in rows:
        total = gen0 + gen1 + gen2
        run = f"{run_s:7.3f}" if run_s is not None else f"{'':>7}"
        print(
            f"{label:<30} {process:<9} {gen0:>5} {gen1:>5} {gen2:>5} "
            f"{total:>6} {seconds:7.3f} {run}"
        )


if __name__ == "__main__":
    main()
