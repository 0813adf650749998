#!/usr/bin/env python
"""Stopwatch of the membership views against the system size.

For N = 120, 432 and 1,000 nodes (the registry's ``fig9``, the paper's
deployment and its simulated system, section VII-A), at a fixed seed
with every tenth consumer arriving in rounds 1 to 3, best of five
passes with the garbage collector off:

* microseconds per first ``successors(node, round)`` call, every member
  over four rounds on a fresh provider per pass (a second call for the
  same pair is a dict read plus a list copy at any N);
* microseconds per first ``monitors(node)`` call, every member once on
  a fresh provider per pass (every replica of a parallel run pays this
  for all N nodes inside its first barrier);
* microseconds per ``monitored_by(monitor)`` call, every member once on
  a fresh provider per pass, so the inversion of the monitor sets (and
  the N ``monitors()`` draws under it) is inside the timed region and
  shared by the N calls as in a run.

Every draw is first checked equal to the list-comprehension draw it
replaced (``reference_successors`` and ``reference_monitors``, kept
below and in ``tests/membership/test_views.py``), and every
``monitored_by`` answer to the per-monitor scan, so a table is never
printed for views that name another node.

This is the instrument PERFORMANCE.md's "Membership views" paragraph
is read from; it uses only names a provider has always had, so
``PYTHONPATH=<another checkout>/src`` runs it on that checkout.
Timings on a shared runner are recorded, not judged.

Usage: PYTHONPATH=src python .github/scripts/ci_views_scaling.py
"""

from __future__ import annotations

import gc
import time
from typing import Callable, List

from repro.membership.directory import Directory
from repro.membership.views import ViewProvider, default_fanout
from repro.sim.rng import SeedSequence

SIZES = (120, 432, 1000)
ROUNDS = 4
SEED = 20160627
PASSES = 5


def provider(n: int) -> ViewProvider:
    fanout = default_fanout(n)
    return ViewProvider(
        directory=Directory.of_size(n),
        seeds=SeedSequence(SEED),
        fanout=fanout,
        monitors_per_node=fanout,
        active_from={m: 1 + m % 3 for m in range(10, n, 10)},
    )


def reference_successors(
    views: ViewProvider, node_id: int, round_no: int
) -> List[int]:
    """The draw as it stood before the per-round eligible list."""
    active = views.active_from
    if active.get(node_id, 0) > round_no:
        return []
    rng = views.seeds.stream("succ", node_id, round_no)
    candidates = [
        m
        for m in views.directory.members
        if m != node_id
        and m != views.directory.source_id
        and active.get(m, 0) <= round_no
    ]
    return sorted(rng.sample(candidates, min(views.fanout, len(candidates))))


def reference_monitors(views: ViewProvider, node_id: int) -> List[int]:
    """The draw as it stood while ``monitors()`` built its candidates."""
    rng = views.seeds.stream("mon", node_id)
    candidates = [
        m
        for m in views.directory.members
        if m != node_id and m != views.directory.source_id
    ]
    return sorted(
        rng.sample(candidates, min(views.monitors_per_node, len(candidates)))
    )


def check(n: int) -> None:
    views = provider(n)
    members = views.directory.members
    for node in members:
        if views.monitors(node) != reference_monitors(views, node):
            raise AssertionError(
                f"N={n}: monitors({node}) differs from the reference draw"
            )
    for round_no in range(ROUNDS):
        for node in members:
            if views.successors(node, round_no) != reference_successors(
                views, node, round_no
            ):
                raise AssertionError(
                    f"N={n}: successors({node}, {round_no}) differs from "
                    "the reference draw"
                )
    for monitor in members:
        watched = [m for m in members if monitor in views.monitors(m)]
        if views.monitored_by(monitor) != watched:
            raise AssertionError(
                f"N={n}: monitored_by({monitor}) differs from the scan"
            )


def best_us(work: Callable[[], int]) -> float:
    """Best microseconds per call over ``PASSES`` runs of ``work``,
    which returns how many calls it made."""
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        calls = work()
        best = min(best, (time.perf_counter() - started) / calls)
    return best * 1e6


def draw_all(n: int) -> int:
    views = provider(n)
    members = views.directory.members
    for round_no in range(ROUNDS):
        for node in members:
            views.successors(node, round_no)
    return ROUNDS * len(members)


def monitors_all(n: int) -> int:
    views = provider(n)
    members = views.directory.members
    for node in members:
        views.monitors(node)
    return len(members)


def invert_all(n: int) -> int:
    views = provider(n)
    members = views.directory.members
    for monitor in members:
        views.monitored_by(monitor)
    return len(members)


def main() -> int:
    for n in SIZES:
        check(n)
    gc.collect()
    gc.disable()
    try:
        print(
            f"Membership views: seed {SEED}, {ROUNDS} rounds, every tenth "
            f"consumer arriving in rounds 1-3, best of {PASSES} passes, "
            "gc off; all draws equal the reference"
        )
        print(
            "| N | fanout | us / successors() | us / monitors() "
            "| us / monitored_by() |"
        )
        print("|---:|---:|---:|---:|---:|")
        for n in SIZES:
            print(
                f"| {n:,} | {default_fanout(n)} "
                f"| {best_us(lambda: draw_all(n)):.1f} "
                f"| {best_us(lambda: monitors_all(n)):.1f} "
                f"| {best_us(lambda: invert_all(n)):.1f} |"
            )
    finally:
        gc.enable()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
