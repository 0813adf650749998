"""Project-invariant static analysis (``repro lint``).

Two analyzer families guard the invariants the differential suite
can only probe dynamically:

* :mod:`repro.lint.determinism` — DET1xx: no ambient entropy, no wall
  clock, no address-keyed or hash-ordered data feeding ordered sinks.
* :mod:`repro.lint.parity` — PAR3xx: replica-worker code never mutates
  parent-session state or shared module globals.

See ``docs/INVARIANTS.md`` for the rule catalogue.  No comment
silences a finding: a site the rules flag is rewritten.
"""

from __future__ import annotations

from repro.lint.diagnostics import RULES, Diagnostic
from repro.lint.runner import lint_file, lint_paths, lint_source

__all__ = [
    "RULES",
    "Diagnostic",
    "lint_file",
    "lint_paths",
    "lint_source",
]
