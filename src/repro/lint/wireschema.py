"""Wire-schema cross-check (WIRE2xx rules).

The v1 wire format is a compatibility contract: every message kind a
PAG session can emit must have a registered codec, a fixture in
``tests/net/fixtures.py`` and a pinned frame in
``tests/net/golden_wire_v1.json``.  Adding a message type without full
wire coverage should fail ``repro lint`` at push time, not a 3 AM
daemon run when the first unencodable message hits the transport.

The check imports the live registries (:mod:`repro.core.messages`,
:mod:`repro.net.wire`) into a :class:`WireModel` and verifies the
model; tests inject mutated models to prove each rule fires.  (That
every varint read is bounded needs no rule: ``_Reader.varint`` takes
its bound as a required argument.)
"""

from __future__ import annotations

import importlib.util
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.lint.diagnostics import Diagnostic

__all__ = ["WireModel", "build_model", "check_model"]


@dataclass
class WireModel:
    """Everything the cross-check compares, decoupled from imports."""

    #: (kind_byte, class name, is_control, source line in wire.py).
    registered: List[Tuple[int, str, bool, int]]
    #: (class name, source line in messages.py) for every message
    #: type with a wire ``kind`` — the set that must be registered.
    message_classes: List[Tuple[str, int]]
    #: class names with at least one instance in tests/net/fixtures.py.
    fixture_classes: Set[str]
    #: class names appearing in golden_wire_v1.json frame keys.
    golden_classes: Set[str]
    wire_path: str = "src/repro/net/wire.py"
    messages_path: str = "src/repro/core/messages.py"
    fixtures_path: str = "tests/net/fixtures.py"
    golden_path: str = "tests/net/golden_wire_v1.json"
    #: False when tests/ was not found (installed package); fixture
    #: and golden checks are skipped, registry checks still run.
    has_test_assets: bool = True


def _load_fixture_module(path: Path):
    spec = importlib.util.spec_from_file_location(
        "_repro_lint_wire_fixtures", path
    )
    if spec is None or spec.loader is None:  # pragma: no cover
        raise ImportError(f"cannot load fixtures from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_model(repo_root: Path) -> WireModel:
    """Build the coverage model from the live code and test assets."""
    from repro.core import messages
    from repro.net import wire

    message_classes: List[Tuple[str, int]] = []
    for name in messages.__all__:
        cls = getattr(messages, name)
        if isinstance(getattr(cls, "kind", None), str):
            _, lineno = inspect.findsource(cls)
            message_classes.append((name, lineno + 1))

    registered: List[Tuple[int, str, bool, int]] = []
    for kind_byte, cls, control in wire.schema_table():
        _, lineno = inspect.findsource(cls)
        registered.append(
            (kind_byte, cls.__name__, control, lineno + 1)
        )

    fixtures_path = repo_root / "tests" / "net" / "fixtures.py"
    golden_path = repo_root / "tests" / "net" / "golden_wire_v1.json"
    has_assets = fixtures_path.exists() and golden_path.exists()
    fixture_classes: Set[str] = set()
    golden_classes: Set[str] = set()
    if has_assets:
        fixture_module = _load_fixture_module(fixtures_path)
        fixture_classes = {
            type(m).__name__ for m in fixture_module.all_messages()
        }
        golden = json.loads(golden_path.read_text())
        for key in golden.get("frames", {}):
            _, _, cls_name = key.partition("-")
            if cls_name:
                golden_classes.add(cls_name)

    wire_file = Path(inspect.getsourcefile(wire) or "")

    def rel(path: Path) -> str:
        try:
            return str(path.relative_to(repo_root))
        except ValueError:
            return str(path)

    return WireModel(
        registered=registered,
        message_classes=message_classes,
        fixture_classes=fixture_classes,
        golden_classes=golden_classes,
        wire_path=rel(wire_file),
        messages_path=rel(
            Path(inspect.getsourcefile(messages) or "messages.py")
        ),
        fixtures_path=rel(fixtures_path),
        golden_path=rel(golden_path),
        has_test_assets=has_assets,
    )


def check_model(model: WireModel) -> List[Diagnostic]:
    """Verify total wire coverage over a :class:`WireModel`."""
    out: List[Diagnostic] = []
    registered_names = {name for _, name, _, _ in model.registered}

    for name, lineno in model.message_classes:
        if name not in registered_names:
            out.append(
                Diagnostic(
                    model.messages_path,
                    lineno,
                    1,
                    "WIRE201",
                    f"message kind {name!r} has no registered codec "
                    "in net/wire.py",
                )
            )

    if model.has_test_assets:
        for _, name, _, lineno in model.registered:
            if name not in model.fixture_classes:
                out.append(
                    Diagnostic(
                        model.wire_path,
                        lineno,
                        1,
                        "WIRE203",
                        f"wire kind {name!r} has no fixture in "
                        f"{model.fixtures_path}",
                    )
                )
            if name not in model.golden_classes:
                out.append(
                    Diagnostic(
                        model.wire_path,
                        lineno,
                        1,
                        "WIRE204",
                        f"wire kind {name!r} has no pinned frame in "
                        f"{model.golden_path}",
                    )
                )
        for name in sorted(
            model.fixture_classes - registered_names
        ):
            out.append(
                Diagnostic(
                    model.fixtures_path,
                    1,
                    1,
                    "WIRE205",
                    f"fixture instance of {name!r} matches no "
                    "registered wire schema",
                )
            )
        for name in sorted(model.golden_classes - registered_names):
            out.append(
                Diagnostic(
                    model.golden_path,
                    1,
                    1,
                    "WIRE205",
                    f"golden frame for {name!r} matches no "
                    "registered wire schema",
                )
            )
    return out


def check_wire_schema(
    repo_root: Optional[Path] = None,
) -> List[Diagnostic]:
    """Build the live model and check it (the ``repro lint`` entry)."""
    root = repo_root if repo_root is not None else Path.cwd()
    return check_model(build_model(root))


__all__ += ["check_wire_schema"]
