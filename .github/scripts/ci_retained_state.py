#!/usr/bin/env python
"""What the full-fidelity tier keeps alive after a run, per component.

Runs ``fig9`` (120 nodes, 10 rounds by default, serial, default seed)
in process and prints a census of the per-node state still reachable
at the end of the last round: object count, bytes, and bytes per
node-round for

* every live ``ServeEntry``, beside the number of distinct values;
* the nodes' forward sets (each object with its two dicts);
* the update stores' per-uid reception counters (absent once they
  were deleted);
* the ``OutgoingExchange`` and ``_ReceiverRecord`` instances (each
  object with its ``__dict__``, if it has one).

Bytes are ``sys.getsizeof`` sums, so they are the containers' own
sizes, not what they share.  Then it asserts two deterministic counts:
no more live ``ServeEntry`` objects than distinct entry values (one
object per value per process), and at most two forward sets per node
(the one filled in the last round and the one served from in it).  It
asserts no RSS figure, because runner baselines differ; the peak RSS
line is printed for the record.  ``PYTHONPATH=<another checkout>/src``
prints that checkout's census (whose asserts may then fail).

Usage: PYTHONPATH=src python .github/scripts/ci_retained_state.py [rounds]
"""

from __future__ import annotations

import gc
import resource
import sys
from typing import Iterable, List, Tuple

from repro.core.messages import ServeEntry
from repro.core.node import PagNode, PagSourceNode
from repro.scenarios import get_scenario

NODES = 120
ROUNDS = 10


def _own_bytes(obj: object) -> int:
    """An instance and its ``__dict__``, if it has one."""
    size = sys.getsizeof(obj)
    attrs = getattr(obj, "__dict__", None)
    return size if attrs is None else size + sys.getsizeof(attrs)


def _row(label: str, objects: int, size: int, node_rounds: int) -> str:
    return (
        f"{label:<28} {objects:>9,} {size / 2**20:>9.2f} "
        f"{size / node_rounds:>12.1f}"
    )


def census(nodes: int, rounds: int) -> Tuple[List[str], int, int, int]:
    """The census rows, live entries, distinct entry values and the
    most forward sets any node holds."""
    spec = get_scenario("fig9", nodes=nodes, rounds=rounds)
    session = spec.build(None)
    session.run(spec.rounds)
    gc.collect()
    consumers = [
        node
        for node in session.nodes.values()
        if isinstance(node, PagNode) and not isinstance(node, PagSourceNode)
    ]
    node_rounds = len(session.nodes) * rounds
    entries = [o for o in gc.get_objects() if type(o) is ServeEntry]
    distinct = len(set(entries))
    forward_sets = [
        fs for node in consumers for fs in node.state.forward_sets.values()
    ]
    counters = [
        node.store._receipt_counts
        for node in consumers
        if hasattr(node.store, "_receipt_counts")
    ]
    exchanges = [
        x for node in consumers for x in node.state.outgoing.values()
    ]
    records = [
        r
        for node in consumers
        for r in node.monitor._receiver_records.values()
    ]

    def total(objs: Iterable[object]) -> int:
        return sum(_own_bytes(o) for o in objs)

    rows = [
        f"{'component':<28} {'objects':>9} {'MiB':>9} {'B/node-round':>12}",
        _row("ServeEntry", len(entries), total(entries), node_rounds),
        _row(
            "forward sets",
            len(forward_sets),
            sum(
                _own_bytes(fs)
                + sys.getsizeof(fs.counts)
                + sys.getsizeof(fs.updates)
                for fs in forward_sets
            ),
            node_rounds,
        ),
        _row(
            "per-uid reception counters",
            len(counters),
            sum(sys.getsizeof(c) for c in counters),
            node_rounds,
        ),
        _row("OutgoingExchange", len(exchanges), total(exchanges), node_rounds),
        _row("_ReceiverRecord", len(records), total(records), node_rounds),
    ]
    most = max(len(node.state.forward_sets) for node in consumers)
    return rows, len(entries), distinct, most


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else ROUNDS
    rows, live, distinct, most = census(NODES, rounds)
    print(f"fig9 {NODES} nodes x {rounds} rounds, serial, end of the run")
    for row in rows:
        print(row)
    print(f"distinct ServeEntry values  {distinct:>9,}")
    print(f"most forward sets on a node {most:>9}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS (not judged)       {peak_kib / 1024:>9.1f} MiB")
    assert live <= distinct, (
        f"{live} live ServeEntry objects for {distinct} distinct values"
    )
    assert most <= 2, f"a node holds {most} forward sets"
    return 0


if __name__ == "__main__":
    sys.exit(main())
