"""The ``repro lint`` driver: walk and analyze.

Runs the AST analyzers (:mod:`determinism <repro.lint.determinism>`,
:mod:`parity <repro.lint.parity>`) over every Python file under the
given paths; a file that does not parse is one PRG903 finding.
``repro lint`` (:mod:`repro.cli`) renders the sorted findings
ruff-style::

    src/repro/sim/faults.py:116:12: DET102 random.Random() without ...
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.determinism import analyze_determinism
from repro.lint.diagnostics import Diagnostic, sort_diagnostics
from repro.lint.parity import analyze_parity

__all__ = ["lint_file", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".hypothesis", ".pytest_cache", ".git"}


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            yield path
            continue
        if not path.is_dir():
            continue
        for sub in sorted(path.rglob("*.py")):
            if not _SKIP_DIRS.intersection(sub.parts):
                yield sub


def lint_source(path: str, source: str) -> List[Diagnostic]:
    """Analyze one in-memory module (the unit the tests drive)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path,
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                "PRG903",
                f"file does not parse: {exc.msg}",
            )
        ]
    return analyze_determinism(path, tree) + analyze_parity(path, tree)


def lint_file(path: Path, display: Optional[str] = None) -> List[
    Diagnostic
]:
    return lint_source(display or str(path), path.read_text())


def lint_paths(paths: Sequence[Path]) -> List[Diagnostic]:
    """Analyze every file under ``paths``."""
    diagnostics: List[Diagnostic] = []
    for file_path in _iter_python_files(list(paths)):
        diagnostics.extend(lint_file(file_path))
    return sort_diagnostics(diagnostics)
