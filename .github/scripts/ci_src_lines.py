#!/usr/bin/env python
"""Line counts of the source and test trees, per package.

Prints, for ``src/repro`` and for ``tests``, the physical lines of the
``*.py`` files of each top-level package (a file directly under the
root counts as its own row), the tree's total, and the ten largest
modules of ``src/repro``.  A line is a newline-terminated line as
``wc -l`` counts it, blank lines and comments included, so the totals
match ``find src/repro -name '*.py' | xargs cat | wc -l``.

One figure is judged: the script exits 1 when ``src/repro`` holds more
than ``SRC_CEILING`` lines, so a change that grows ``src/`` raises the
constant in its own diff, where review sees it.  It reads only files,
so ``python .github/scripts/ci_src_lines.py <checkout>`` counts another
checkout (against this file's ceiling).

Usage: python .github/scripts/ci_src_lines.py [ROOT]
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from typing import Dict

#: Most lines ``src/repro`` may hold; raise it in the change that
#: grows the tree.
SRC_CEILING = 21_663


def count_lines(path: Path) -> int:
    """Newline count of ``path``, as ``wc -l`` reports it."""
    return path.read_bytes().count(b"\n")


def module_lines(tree: Path) -> Dict[Path, int]:
    """Lines of every ``*.py`` file under ``tree``, by relative path."""
    return {
        path.relative_to(tree): count_lines(path)
        for path in sorted(tree.rglob("*.py"))
    }


def per_package(lines: Dict[Path, int]) -> Counter:
    """Fold module lines into their top-level package (or file)."""
    packages: Counter = Counter()
    for relative, count in lines.items():
        packages[relative.parts[0]] += count
    return packages


def report(root: Path) -> int:
    """Print the per-package tables; return the ``src/repro`` total."""
    trees = (("src", root / "src" / "repro"), ("tests", root / "tests"))
    src_total = 0
    for label, tree in trees:
        lines = module_lines(tree)
        total = sum(lines.values())
        print(f"{label}/ ({tree.relative_to(root)}): {total:,} lines")
        for package, count in sorted(per_package(lines).items()):
            print(f"  {package:<28} {count:>7,}")
        if label == "src":
            src_total = total
            print("  ten largest modules:")
            largest = sorted(lines.items(), key=lambda item: -item[1])[:10]
            for relative, count in largest:
                print(f"    {str(relative):<34} {count:>7,}")
    return src_total


if __name__ == "__main__":
    total = report(Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve())
    if total > SRC_CEILING:
        sys.exit(
            f"src/repro holds {total:,} lines, over SRC_CEILING "
            f"({SRC_CEILING:,}): raise the ceiling in the change that "
            "grows it"
        )
