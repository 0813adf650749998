"""Diagnostic records and the rule catalogue for ``repro lint``.

Every analyzer reports :class:`Diagnostic` rows; the runner sorts and
renders them ruff-style (``path:line:col: CODE message``) so editors
and CI annotate findings the same way they annotate ruff's.

The catalogue in :data:`RULES` is the single source of truth for rule
codes: ``repro lint --rules`` prints it, and ``docs/INVARIANTS.md``
documents it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["Diagnostic", "RULES"]


#: code -> one-line summary.  Codes are grouped by family: DET1xx are
#: determinism rules, PAR3xx policy-parity rules, and PRG903 reports a
#: file no rule could read.
RULES: Dict[str, str] = {
    "DET101": (
        "call on the module-level random singleton (use a seeded "
        "random.Random from sim/rng.py)"
    ),
    "DET102": (
        "unseeded or system RNG construction (random.Random() with no "
        "seed, random.SystemRandom)"
    ),
    "DET103": (
        "wall-clock time source (time.time, datetime.now, ...) in "
        "simulation code"
    ),
    "DET104": (
        "operating-system entropy source (os.urandom, secrets, "
        "uuid.uuid1/uuid4)"
    ),
    "DET105": (
        "id()-keyed container: id() values vary across processes and "
        "runs"
    ),
    "DET106": (
        "iteration over an unordered set feeds an ordered sink; sort "
        "first"
    ),
    "DET107": (
        "filesystem-order iteration (os.listdir, glob, iterdir) feeds "
        "an ordered sink; sort first"
    ),
    "PAR301": (
        "replica-worker scope mutates parent-session state (meters, "
        "verdict stores, counters live in the parent)"
    ),
    "PAR302": (
        "replica-worker scope writes module-global state (the worker's "
        "own copy, lost to the parent)"
    ),
    "PRG903": "file does not parse, so no rule could check it",
}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, addressed like a compiler error.

    Attributes:
        path: file the finding is in (as given to the runner).
        line: 1-based line of the offending node.
        col: 1-based column (ruff convention; ast columns are 0-based
            and are shifted by the analyzers).
        code: rule code from :data:`RULES`.
        message: human-readable detail, specific to the site.
    """

    path: str
    line: int
    col: int
    code: str
    message: str = field(compare=False)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} {self.message}"
        )


def sort_diagnostics(items: List[Diagnostic]) -> List[Diagnostic]:
    return sorted(items)


def summarize(items: List[Diagnostic]) -> Tuple[int, Dict[str, int]]:
    """Total count plus a per-code histogram (for the CLI footer)."""
    by_code: Dict[str, int] = {}
    for item in items:
        by_code[item.code] = by_code.get(item.code, 0) + 1
    return len(items), dict(sorted(by_code.items()))


__all__ += ["sort_diagnostics", "summarize"]
