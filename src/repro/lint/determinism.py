"""AST determinism analyzer (DET1xx rules).

Everything the differential suite promises — bit-identical verdicts
across the serial and parallel policies and the daemon fleet,
replayable fuzz campaigns — rests on one invariant: *no simulation
code consumes ambient entropy*.  Randomness flows only through seeded
``random.Random`` instances derived from :mod:`repro.sim.rng`; time
never feeds protocol state; container iteration that lands in ordered
sinks (trace rows, meter records, verdict lists, wire encoders) is
over deterministically ordered collections.

This analyzer enforces the whole class statically:

* DET101 — calls on the module-level ``random`` singleton
  (``random.random()``, ``random.choice()``, ...), including
  from-imports of the singleton functions.
* DET102 — unseeded RNG construction: ``random.Random()`` with no
  arguments, ``random.SystemRandom`` anywhere, and the bare
  ``random.Random`` passed as a ``default_factory``.
* DET103 — wall-clock reads (``time.time``, ``datetime.now``, ...).
  Monotonic timers (``perf_counter``/``thread_time``) are *allowed*:
  they only ever feed wall-time stats, never protocol state.
* DET104 — OS entropy (``os.urandom``, ``secrets.*``, ``uuid.uuid1``,
  ``uuid.uuid4``).
* DET105 — ``id()``-keyed containers: CPython addresses differ across
  processes, so any ordering or lookup keyed on them diverges between
  the serial policy and replica workers.
* DET106 — iteration over a syntactic ``set`` that feeds an ordered
  sink (``.append``/``.record``/``yield``/``list(...)`` ...).  Plain
  ``dict`` iteration is insertion-ordered since 3.7 and is not
  flagged; ``sorted(...)`` wrappers discharge the finding.
* DET107 — filesystem-order iteration (``os.listdir``, ``glob``,
  ``Path.iterdir``) feeding the same sinks without ``sorted(...)``.

No comment silences a finding: a flagged site is rewritten.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.lint.diagnostics import Diagnostic

__all__ = ["analyze_determinism"]

#: Module-singleton functions of :mod:`random` (DET101 when called on
#: the module or via from-import).
_SINGLETON_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint",
        "random", "randrange", "sample", "seed", "setstate", "shuffle",
        "triangular", "uniform", "vonmisesvariate", "weibullvariate",
    }
)

#: Dotted names that read the wall clock (DET103).
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Dotted names that tap OS entropy (DET104).
_OS_ENTROPY = frozenset(
    {"os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4"}
)

#: Attribute/method names that commit elements in a fixed order: the
#: "ordered sinks" of the paper's trace rows, meter records, verdict
#: lists and wire encoders.
_ORDERED_SINKS = frozenset(
    {
        "append", "appendleft", "extend", "insert", "record", "write",
        "writelines", "writerow", "writerows", "send", "put", "emit",
        "encode", "push", "add_row", "feed",
    }
)

#: Reducers whose result does not depend on iteration order; a
#: comprehension over a set inside one of these is fine.
_ORDER_FREE = frozenset(
    {
        "sorted", "sum", "min", "max", "len", "any", "all", "set",
        "frozenset", "Counter",
    }
)

#: Callables returning entries in filesystem order (DET107).
_FS_ORDER = frozenset(
    {
        "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
    }
)
_FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an Attribute/Name chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class _ImportTracker:
    """Maps local names to the canonical dotted names they import."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (
                        alias.name if alias.asname else
                        alias.name.split(".")[0]
                    )
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self.aliases[local] = f"{node.module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of an expression, import-aware."""
        dotted = _dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        base = self.aliases.get(head, head)
        return f"{base}.{rest}" if rest else base


def _is_set_expr(node: ast.AST) -> bool:
    """True when the expression is *syntactically* an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    # set.union(...) / a.intersection(b) on a syntactic set.
    if isinstance(node, ast.Call) and isinstance(
        node.func, ast.Attribute
    ):
        if node.func.attr in (
            "union", "intersection", "difference",
            "symmetric_difference",
        ):
            return _is_set_expr(node.func.value)
    return False


def _body_has_ordered_sink(body: List[ast.stmt]) -> bool:
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in _ORDERED_SINKS:
                    return True
            if isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.Add
            ):
                return True
    return False


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, imports: _ImportTracker) -> None:
        self.path = path
        self.imports = imports
        self.diagnostics: List[Diagnostic] = []
        #: comprehension nodes discharged by an order-free reducer
        #: (the nodes themselves: they hash by identity, no id() key).
        self._order_free_comps: Set[ast.AST] = set()

    def _report(
        self, node: ast.AST, code: str, message: str
    ) -> None:
        self.diagnostics.append(
            Diagnostic(
                self.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                code,
                message,
            )
        )

    # -- DET101/DET102/DET103/DET104: entropy and clock calls ---------

    def visit_Call(self, node: ast.Call) -> None:
        self._check_entropy_call(node)
        if isinstance(node.func, ast.Name):
            if node.func.id in _ORDER_FREE:
                for arg in node.args:
                    if isinstance(
                        arg,
                        (ast.ListComp, ast.GeneratorExp, ast.SetComp),
                    ):
                        self._order_free_comps.add(arg)
            elif node.func.id in ("list", "tuple"):
                for arg in node.args:
                    if _is_set_expr(arg):
                        self._report(
                            node,
                            "DET106",
                            "materialising a set into an ordered "
                            "sequence; wrap it in sorted(...)",
                        )
                    if self._is_fs_order_call(arg):
                        self._report(
                            node,
                            "DET107",
                            "materialising a filesystem listing "
                            "without sorted(...)",
                        )
        if isinstance(node.func, ast.Attribute) and node.func.attr == (
            "join"
        ):
            for arg in node.args:
                if _is_set_expr(arg):
                    self._report(
                        node,
                        "DET106",
                        "joining a set in hash order; wrap it in "
                        "sorted(...)",
                    )
        self._check_id_keyed_call(node)
        self.generic_visit(node)

    def _check_entropy_call(self, node: ast.Call) -> None:
        resolved = self.imports.resolve(node.func)
        if resolved is None:
            return
        if resolved.startswith("random."):
            tail = resolved.split(".", 1)[1]
            if tail in _SINGLETON_FNS:
                self._report(
                    node,
                    "DET101",
                    f"random.{tail}() draws from the process-global "
                    "singleton; derive a stream from sim/rng.py "
                    "instead",
                )
                return
            if tail == "Random" and not node.args and not node.keywords:
                self._report(
                    node,
                    "DET102",
                    "random.Random() without a seed is entropy from "
                    "the OS; pass a derived seed",
                )
                return
            if tail == "SystemRandom":
                self._report(
                    node,
                    "DET102",
                    "random.SystemRandom is OS entropy by design; "
                    "simulations must use seeded streams",
                )
                return
        if resolved in _WALL_CLOCK:
            self._report(
                node,
                "DET103",
                f"{resolved}() reads the wall clock; simulation state "
                "must not depend on real time",
            )
            return
        if resolved in _OS_ENTROPY or resolved.startswith("secrets."):
            self._report(
                node,
                "DET104",
                f"{resolved}() taps OS entropy; derive randomness "
                "from the session seed",
            )

    # -- DET102: bare random.Random as a default_factory --------------

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg == "default_factory":
            resolved = self.imports.resolve(node.value)
            if resolved in ("random.Random", "random.SystemRandom"):
                self._report(
                    node.value,
                    "DET102",
                    "default_factory=random.Random builds an unseeded "
                    "RNG per instance; default to a seeded stream",
                )
        self.generic_visit(node)

    # -- DET105: id()-keyed containers ---------------------------------

    @staticmethod
    def _contains_id_call(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "id"
            ):
                return True
        return False

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._contains_id_call(node.slice):
            self._report(
                node,
                "DET105",
                "container indexed by id(); addresses differ across "
                "processes and replays",
            )
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if key is not None and self._contains_id_call(key):
                self._report(
                    key,
                    "DET105",
                    "dict literal keyed by id(); addresses differ "
                    "across processes and replays",
                )
        self.generic_visit(node)

    def _check_id_keyed_call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in (
                "get", "setdefault", "pop", "add", "discard", "remove",
            ):
                if node.args and self._contains_id_call(node.args[0]):
                    self._report(
                        node,
                        "DET105",
                        f".{node.func.attr}() keyed by id(); "
                        "addresses differ across processes",
                    )
        for kw in node.keywords:
            if (
                kw.arg == "key"
                and isinstance(kw.value, ast.Name)
                and kw.value.id == "id"
            ):
                self._report(
                    kw.value,
                    "DET105",
                    "sorting/grouping with key=id is address order, "
                    "not a stable order",
                )

    # -- DET106/DET107: unordered iteration into ordered sinks ---------

    def _is_fs_order_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        resolved = self.imports.resolve(node.func)
        if resolved in _FS_ORDER:
            return True
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_ORDER_METHODS
        )

    def visit_For(self, node: ast.For) -> None:
        if _body_has_ordered_sink(node.body):
            if _is_set_expr(node.iter):
                self._report(
                    node.iter,
                    "DET106",
                    "loop over a set feeds an ordered sink; iterate "
                    "sorted(...) instead",
                )
            elif self._is_fs_order_call(node.iter):
                self._report(
                    node.iter,
                    "DET107",
                    "loop over a filesystem listing feeds an ordered "
                    "sink; iterate sorted(...) instead",
                )
        self.generic_visit(node)

    def _visit_comp(
        self, node: ast.AST, generators: List[ast.comprehension]
    ) -> None:
        if node in self._order_free_comps:
            return
        for gen in generators:
            if _is_set_expr(gen.iter):
                self._report(
                    gen.iter,
                    "DET106",
                    "comprehension over a set produces an ordered "
                    "result; iterate sorted(...) instead",
                )
            elif self._is_fs_order_call(gen.iter):
                self._report(
                    gen.iter,
                    "DET107",
                    "comprehension over a filesystem listing; iterate "
                    "sorted(...) instead",
                )

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comp(node, node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comp(node, node.generators)
        self.generic_visit(node)


def analyze_determinism(
    path: str, tree: ast.Module
) -> List[Diagnostic]:
    """Run the DET1xx rules over one parsed module."""
    imports = _ImportTracker()
    imports.visit_imports(tree)
    visitor = _DeterminismVisitor(path, imports)
    visitor.visit(tree)
    return visitor.diagnostics
