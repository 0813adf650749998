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
(the one filled in the last round and the one served from in it).

A second table has one row per per-round memo (docs/INVARIANTS.md,
"Per-process memos"): the signer's exhibits and KeyResponse records,
the serve products A leaves for B, and the rest of the hasher's link
memo.  Each row gives the most entries the memo held at once and the
most it held at a round's end, once every node had ended the round.
The script asserts that each memo holds at most one round's entries:
every entry held at once names the same round, and nothing is held at
a round's end.  It asserts no RSS figure, because runner baselines
differ; the peak RSS line is printed for the record.
``PYTHONPATH=<another checkout>/src`` prints that checkout's census
(whose asserts may then fail).

Usage: PYTHONPATH=src python .github/scripts/ci_retained_state.py [rounds]
"""

from __future__ import annotations

import gc
import resource
import sys
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterable, List, Tuple

from repro.core.messages import Attestation, ServeEntry
from repro.core.node import PagNode, PagSourceNode
from repro.scenarios import get_scenario

NODES = 120
ROUNDS = 10

#: the per-round memos, in the order their rows print.
MEMOS = ("exhibits", "KeyResponse records", "left products", "link memo")


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


def _is_products(key: Any) -> bool:
    """A left ``(round, server, receiver)`` key, beside the link memo's
    primes and ``(update, prime)`` pairs."""
    return type(key) is tuple and len(key) == 3


def _memos(session: Any) -> Dict[str, Tuple[list, Callable[[Any], Any]]]:
    """Each memo's entries now, and how to read the round an entry
    names (None for link-memo keys, which name none)."""
    signer = session.context.signer
    link = list(session.context.hasher._link)
    return {
        "exhibits": (list(signer.exhibits), lambda e: e[1].round_no),
        "KeyResponse records": (list(signer.records), lambda r: r[1][2]),
        "left products": (
            [key for key in link if _is_products(key)],
            lambda key: key[0],
        ),
        "link memo": (
            [key for key in link if not _is_products(key)],
            lambda key: None,
        ),
    }


def _watch_memos(session: Any) -> Dict[str, int]:
    """Sample every memo at each Attestation sent (records, products
    and link entries peak while a round's serves go out) and as the
    signer empties its sets (exhibits peak there); asserts that what a
    memo holds names one round at most.  Returns the live peaks."""
    peaks = dict.fromkeys(MEMOS, 0)

    def sample() -> None:
        for label, (entries, round_of) in _memos(session).items():
            peaks[label] = max(peaks[label], len(entries))
            named = {round_of(entry) for entry in entries}
            assert len(named) <= 1, f"the {label} holds rounds {named}"

    def observe(message: Any, size: int) -> None:
        if type(message) is Attestation:
            sample()

    signer = session.context.signer
    forget_round = signer.forget_round

    def forget_round_sampled() -> None:
        sample()
        forget_round()

    signer.forget_round = forget_round_sampled
    session.simulator.network.add_tap(SimpleNamespace(observe=observe))
    return peaks


def census(
    nodes: int, rounds: int
) -> Tuple[List[str], List[str], int, int, int]:
    """The census rows, the memo rows, live entries, distinct entry
    values and the most forward sets any node holds."""
    spec = get_scenario("fig9", nodes=nodes, rounds=rounds)
    session = spec.build(None)
    peaks = _watch_memos(session)
    held: List[Dict[str, int]] = []
    session.simulator.add_round_hook(
        lambda round_no: held.append(
            {label: len(e) for label, (e, _) in _memos(session).items()}
        )
    )
    session.run(spec.rounds)
    memo_rows = [f"{'per-round memo':<28} {'peak':>9} {'at round end':>12}"]
    for label in MEMOS:
        assert peaks[label] > 0, f"the {label} never held an entry"
        left = max(at_end[label] for at_end in held)
        memo_rows.append(f"{label:<28} {peaks[label]:>9,} {left:>12,}")
        assert left == 0, f"the {label} outlived a round"
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
    return rows, memo_rows, len(entries), distinct, most


def main() -> int:
    rounds = int(sys.argv[1]) if len(sys.argv) > 1 else ROUNDS
    rows, memo_rows, live, distinct, most = census(NODES, rounds)
    print(f"fig9 {NODES} nodes x {rounds} rounds, serial, end of the run")
    for row in rows:
        print(row)
    for row in memo_rows:
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
