"""Compare two benchmark reports, metric by metric.

    python -m bench.compare A.json B.json [--pairs]

``A`` is the parent, ``B`` the change; both are ``bench.run --out``
reports.  Every (workload, end-to-end metric) gets one row, judged
against that metric's bound in ``BENCHMARK.json``:

* ``worse``: B's median is worse than A's by more than the bound, and
  either the run-to-run spread (interquartile distance over the
  median, of both sides) is within the bound or every run of B reads
  worse than every run of A.
* ``better``: every run of B reads better than every run of A, or the
  spread is within the bound and the medians differ, in B's favour,
  by more than the distance between A's own quartiles.  With
  ``--pairs`` the two value lists are read as parent/change pairs in
  run order and B must also win at least nine tenths of at least ten
  pairs, ties counting for neither; short of that the row is
  ``unresolved``.
* ``unresolved``: the spread is wider than the bound, so neither
  "worse" nor "same" can be said.
* ``same``: none of the above.

Exit status 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):  # run as ``python3 bench/compare.py``
    sys.path.insert(0, str(ROOT))

from bench.metrics import spread  # noqa: E402

__all__ = ["compare", "judge", "load_bounds", "main"]

#: Pairs a ``--pairs`` gain claim needs (choosing-metrics, section 8).
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_bounds(path: Path) -> Dict[str, float]:
    """Metric -> bound from ``BENCHMARK.json``; ``failed_share`` is 0."""
    with open(path) as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    bounds["failed_share"] = 0.0
    return bounds


def judge(
    a: Sequence[float],
    b: Sequence[float],
    better: str,
    bound: float,
    pairs: bool = False,
) -> Tuple[str, float]:
    """``(verdict, worse_by)`` of change ``b`` against parent ``a``.

    ``worse_by`` is the share of A's median by which B's median is
    worse (negative when B is better).
    """
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    med_b = statistics.median(b)
    delta = sign * (med_b - med_a)
    worse_by = delta / abs(med_a) if med_a else (1.0 if delta > 0 else 0.0)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    noisy = max(spread(a), spread(b)) > bound
    if worse_by > bound and (all_worse or not noisy):
        return "worse", worse_by
    gain = -delta
    if all_better or (gain > spread(a) * abs(med_a) and not noisy):
        if not pairs:
            return "better", worse_by
        wins = sum(sign * y < sign * x for x, y in zip(a, b))
        if len(a) == len(b) >= MIN_PAIRS and wins >= WIN_SHARE * len(a):
            return "better", worse_by
        return "unresolved", worse_by
    return ("unresolved" if noisy else "same"), worse_by


def compare(
    parent: Dict[str, Any],
    change: Dict[str, Any],
    bounds: Dict[str, float],
    pairs: bool = False,
) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in both reports."""
    rows = []
    for workload, result in parent["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            continue
        for metric, row in result["end_to_end"].items():
            theirs = other["end_to_end"].get(metric)
            if theirs is None or not row["values"] or not theirs["values"]:
                continue
            bound = bounds.get(metric, 0.0)
            verdict, worse_by = judge(
                row["values"],
                theirs["values"],
                row["better"],
                bound,
                pairs,
            )
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "unit": row["unit"],
                    "parent": statistics.median(row["values"]),
                    "change": statistics.median(theirs["values"]),
                    "worse_by": worse_by,
                    "bound": bound,
                    "spread": max(
                        spread(row["values"]), spread(theirs["values"])
                    ),
                    "verdict": verdict,
                }
            )
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench.compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(
        "--pairs",
        action="store_true",
        help="the reports hold parent/change pairs in run order; a "
        "gain needs nine tenths of the pairs",
    )
    parser.add_argument(
        "--benchmark",
        type=Path,
        default=ROOT / "BENCHMARK.json",
        help="where the bounds come from",
    )
    args = parser.parse_args(argv)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    rows = compare(parent, change, load_bounds(args.benchmark), args.pairs)
    print(
        f"{'workload':<17}{'metric':<19}{'parent':>13}{'change':>13}"
        f"{'worse by':>10}{'bound':>7}{'spread':>8}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<17}{row['metric']:<19}"
            f"{row['parent']:>13.4f}{row['change']:>13.4f}"
            f"{100 * row['worse_by']:>9.1f}%{100 * row['bound']:>6.0f}%"
            f"{100 * row['spread']:>7.1f}%  {row['verdict']}"
        )
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"{len(rows)} rows, {len(worse)} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
