"""``# lint: allow[RULE] justification`` pragma parsing.

The determinism and parity analyzers have a small set of legitimate
exceptions (the seeded-RNG factory itself, benchmark entropy).  Those
sites carry an explicit allow pragma *with a mandatory justification*,
so every suppression is a reviewed, documented decision rather than a
silent hole:

    rng = random.Random()  # lint: allow[DET102] fuzz CLI entropy only

A pragma suppresses matching diagnostics on its own line and, when it
is a comment-only line, on the next code line — the 79-column budget
often has no room for an inline comment.  Unused pragmas and pragmas
without justification are themselves findings (PRG902 / PRG901), so
the allowlist cannot rot.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.lint.diagnostics import Diagnostic, rule_exists

__all__ = ["Pragma", "PragmaTable", "scan_pragmas"]

_PRAGMA_RE = re.compile(
    r"#\s*lint:\s*allow\[(?P<codes>[A-Za-z0-9_,\s]*)\]"
    r"[ \t]*(?P<justification>.*)$"
)

#: Marker comment that declares a def/class as replica-worker scope for
#: the parity analyzer (see :mod:`repro.lint.parity`).
REPLICA_SCOPE_MARK = re.compile(r"#\s*lint:\s*replica-scope\b")


@dataclass
class Pragma:
    """One parsed allow pragma."""

    line: int
    codes: Tuple[str, ...]
    justification: str
    #: line(s) whose diagnostics this pragma may suppress.
    applies_to: Tuple[int, ...] = ()
    used: bool = field(default=False, compare=False)


@dataclass
class PragmaTable:
    """All pragmas of one file, indexed for suppression lookups."""

    pragmas: List[Pragma]
    #: (line, code) -> pragma index, for O(1) suppression checks.
    _index: Dict[Tuple[int, str], int]

    def suppresses(self, line: int, code: str) -> bool:
        key = (line, code)
        idx = self._index.get(key)
        if idx is None:
            return False
        self.pragmas[idx].used = True
        return True

    def hygiene_diagnostics(self, path: str) -> List[Diagnostic]:
        """PRG901/902/903 findings for this file's pragmas."""
        out: List[Diagnostic] = []
        for pragma in self.pragmas:
            if not pragma.justification.strip():
                out.append(
                    Diagnostic(
                        path,
                        pragma.line,
                        1,
                        "PRG901",
                        "allow pragma must carry a justification "
                        "(# lint: allow[CODE] why this is safe)",
                    )
                )
            unknown = [c for c in pragma.codes if not rule_exists(c)]
            for code in unknown:
                out.append(
                    Diagnostic(
                        path,
                        pragma.line,
                        1,
                        "PRG903",
                        f"unknown rule code {code!r} in allow pragma",
                    )
                )
            if (
                not pragma.used
                and pragma.justification.strip()
                and not unknown
            ):
                out.append(
                    Diagnostic(
                        path,
                        pragma.line,
                        1,
                        "PRG902",
                        "allow pragma suppresses no finding; remove "
                        f"it (codes: {', '.join(pragma.codes)})",
                    )
                )
        return out


def _next_code_line(lines: List[str], after: int) -> int:
    """1-based line of the first non-blank, non-comment line after
    ``after`` (also 1-based); 0 if none."""
    for i in range(after, len(lines)):
        stripped = lines[i].strip()
        if stripped and not stripped.startswith("#"):
            return i + 1
    return 0


def _comment_tokens(source: str) -> List[Tuple[int, str, bool]]:
    """(line, comment text, is_comment_only_line) for real comments.

    Tokenizing (rather than regex-scanning raw lines) keeps pragma
    syntax *mentioned in docstrings* — like this module's own — from
    being parsed as live pragmas.
    """
    out: List[Tuple[int, str, bool]] = []
    lines = source.splitlines()
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(source).readline)
        )
    except (tokenize.TokenError, IndentationError):
        return out
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        lineno = tok.start[0]
        text = lines[lineno - 1] if lineno <= len(lines) else ""
        out.append(
            (lineno, tok.string, text.strip().startswith("#"))
        )
    return out


def scan_pragmas(source: str) -> PragmaTable:
    lines = source.splitlines()
    pragmas: List[Pragma] = []
    index: Dict[Tuple[int, str], int] = {}
    for lineno, comment, comment_only in _comment_tokens(source):
        match = _PRAGMA_RE.search(comment)
        if match is None:
            continue
        codes = tuple(
            c.strip() for c in match.group("codes").split(",")
            if c.strip()
        )
        justification = match.group("justification").strip()
        applies = [lineno]
        if comment_only:
            nxt = _next_code_line(lines, lineno)
            if nxt:
                applies.append(nxt)
        pragma = Pragma(
            line=lineno,
            codes=codes,
            justification=justification,
            applies_to=tuple(applies),
        )
        slot = len(pragmas)
        pragmas.append(pragma)
        for target in applies:
            for code in codes:
                index.setdefault((target, code), slot)
    return PragmaTable(pragmas=pragmas, _index=index)
