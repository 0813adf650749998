"""AST policy-parity analyzer (PAR3xx rules).

The bug shape behind every past parity regression: code that runs
*inside a replica worker* (a shard's rebuilt session in
``sim/execution.py``, a shard daemon in ``net/daemon.py``) reaching
out and mutating *parent-session* state — the authoritative meter,
verdict stores, or crypto counters that only the coordinator may
touch.  In a worker process such a write is silently lost (the
replica's copy diverges); with in-process ``serialized`` replicas it
lands twice (once in the replica capture, once directly), and either
way serial and parallel runs stop being bit-identical.

Scopes are replica-side when they match a built-in pattern
(``_ReplicaWorker``, module functions starting with ``_process_``,
``NodeDaemon``, ``_PeerLink``) or carry a ``# lint: replica-scope``
marker comment on the ``def``/``class`` line, so new worker entry
points opt in without linter edits.

Inside a replica scope the analyzer flags:

* PAR301 — mutation of *parent-rooted* state: any assignment, deletion
  or known mutator-method call (``.record``, ``.add_round_rows``,
  ``.add``, ``.append``, ...) whose receiver chain contains a
  parent-denoting identifier (``parent``, ``parent_session``,
  ``coordinator``, ...).  Replica code has no business holding such a
  reference mutably: the merge happens in the parent, after collect.
* PAR302 — writes to module-global state (``global X`` rebinding, or
  mutator calls on module-level ``_UNDERSCORE``/``UPPER`` names).
  In-process ``serialized`` replicas share the interpreter with the
  parent, so a module global is exactly the channel through which
  replica state can leak into the authoritative session.

No replica scope in ``src/`` writes a global today (a process worker's
replica is a local of its request loop, ``_process_loop``); one that
had to would carry an allow pragma with its justification.
"""

from __future__ import annotations

import ast
import re
from typing import List, Optional, Sequence, Set

from repro.lint.diagnostics import Diagnostic
from repro.lint.pragmas import REPLICA_SCOPE_MARK

__all__ = ["analyze_parity"]

#: Identifiers that denote parent/coordinator state when they appear
#: anywhere in a receiver chain (``self.parent.meter``,
#: ``coordinator.session.counters`` ...).
_PARENT_TOKENS = frozenset(
    {
        "parent", "parent_session", "parent_network", "parent_meter",
        "parent_state", "parent_simulator", "coordinator",
        "authoritative", "authoritative_session",
    }
)

#: Built-in replica-scope name patterns (class or function names).
_SCOPE_PATTERNS = (
    re.compile(r"^_ReplicaWorker$"),
    re.compile(r"^_process_\w+$"),
    re.compile(r"^NodeDaemon$"),
    re.compile(r"^_PeerLink$"),
)

#: Method names that mutate their receiver in place.
_MUTATORS = frozenset(
    {
        "add", "append", "appendleft", "extend", "insert", "update",
        "setdefault", "pop", "popitem", "clear", "remove", "discard",
        "record", "add_round_rows", "push", "write", "add_verdict",
        "admit_node", "remove_node", "reset",
    }
)


def _chain_tokens(node: ast.AST) -> Set[str]:
    """All identifiers along an Attribute/Name/Subscript chain."""
    tokens: Set[str] = set()
    while True:
        if isinstance(node, ast.Attribute):
            tokens.add(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            tokens.add(node.id)
            return tokens
        else:
            return tokens


def _is_replica_scope(
    node: ast.AST, source_lines: Sequence[str]
) -> bool:
    name = getattr(node, "name", "")
    if any(p.match(name) for p in _SCOPE_PATTERNS):
        return True
    lineno = getattr(node, "lineno", 0)
    if 1 <= lineno <= len(source_lines):
        if REPLICA_SCOPE_MARK.search(source_lines[lineno - 1]):
            return True
        # Decorated defs: the marker may sit on the decorator line.
        for deco in getattr(node, "decorator_list", ()):
            dline = getattr(deco, "lineno", 0)
            if 1 <= dline <= len(source_lines) and (
                REPLICA_SCOPE_MARK.search(source_lines[dline - 1])
            ):
                return True
    return False


class _ScopeChecker(ast.NodeVisitor):
    """Checks one replica scope's body for parent/global mutations."""

    def __init__(
        self,
        path: str,
        scope_name: str,
        module_globals: Set[str],
    ) -> None:
        self.path = path
        self.scope_name = scope_name
        self.module_globals = module_globals
        self.declared_global: Set[str] = set()
        self.diagnostics: List[Diagnostic] = []

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

    def _check_parent_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._check_parent_target(elt)
            return
        tokens = _chain_tokens(target)
        hit = tokens & _PARENT_TOKENS
        if hit:
            self._report(
                target,
                "PAR301",
                f"replica scope {self.scope_name!r} writes "
                f"parent-rooted state ({sorted(hit)[0]}); merge via "
                "collect() in the parent instead",
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_parent_target(target)
            self._check_global_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_parent_target(node.target)
        self._check_global_write(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_parent_target(node.target)
            self._check_global_write(node.target, node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_parent_target(target)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)
        for name in node.names:
            self._report(
                node,
                "PAR302",
                f"replica scope {self.scope_name!r} rebinds module "
                f"global {name!r}; shared module state leaks across "
                "the parent/replica boundary when replicas run "
                "in-process",
            )
        self.generic_visit(node)

    def _check_global_write(
        self, target: ast.AST, stmt: ast.AST
    ) -> None:
        """Mutations whose receiver is a module-level global."""
        root = target
        while isinstance(root, (ast.Attribute, ast.Subscript)):
            root = root.value
        if not isinstance(root, ast.Name) or root is target:
            return
        if root.id in self.module_globals:
            self._report(
                stmt,
                "PAR302",
                f"replica scope {self.scope_name!r} mutates module "
                f"global {root.id!r}; replicas must keep state in "
                "their own session",
            )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _MUTATORS
        ):
            tokens = _chain_tokens(node.func.value)
            hit = tokens & _PARENT_TOKENS
            if hit:
                self._report(
                    node,
                    "PAR301",
                    f"replica scope {self.scope_name!r} calls "
                    f".{node.func.attr}() on parent-rooted state "
                    f"({sorted(hit)[0]}); only the parent merges",
                )
            else:
                root = node.func.value
                while isinstance(root, (ast.Attribute, ast.Subscript)):
                    root = root.value
                if (
                    isinstance(root, ast.Name)
                    and root.id in self.module_globals
                ):
                    self._report(
                        node,
                        "PAR302",
                        f"replica scope {self.scope_name!r} calls "
                        f".{node.func.attr}() on module global "
                        f"{root.id!r}",
                    )
        self.generic_visit(node)


def _module_global_names(tree: ast.Module) -> Set[str]:
    """Module-level mutable-looking bindings (``_x``/``UPPER``)."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id.startswith("_") or target.id.isupper():
                    names.add(target.id)
    return names


def analyze_parity(
    path: str, tree: ast.Module, source: Optional[str] = None
) -> List[Diagnostic]:
    """Run the PAR3xx rules over one parsed module."""
    source_lines: Sequence[str] = (
        source.splitlines() if source is not None else ()
    )
    module_globals = _module_global_names(tree)
    diagnostics: List[Diagnostic] = []

    def scan(node: ast.AST, in_scope: bool, scope_name: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                child_in_scope = in_scope or _is_replica_scope(
                    child, source_lines
                )
                child_name = (
                    f"{scope_name}.{child.name}" if scope_name
                    else child.name
                )
                if child_in_scope and isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    checker = _ScopeChecker(
                        path, child_name, module_globals
                    )
                    for stmt in child.body:
                        checker.visit(stmt)
                    diagnostics.extend(checker.diagnostics)
                    # Nested defs are covered by the checker walk.
                    continue
                scan(child, child_in_scope, child_name)
            else:
                scan(child, in_scope, scope_name)

    scan(tree, False, "")
    return diagnostics
