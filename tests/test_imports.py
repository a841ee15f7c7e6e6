"""Import hygiene: no module of the package imports a name it never uses, and
every name the package root re-exports still exists where it comes from."""

import ast
import importlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trace_insight"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) of every import, ``from __future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports names it never uses"


def test_every_reexported_name_resolves():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                exported[alias.asname or alias.name] = (node.module, alias.name)
    assert {"interpolate_gap", "supplement_server_usage"} <= exported.keys()
    package = importlib.import_module("trace_insight")
    for public, (module, name) in exported.items():
        source = importlib.import_module(f"trace_insight.{module}")
        assert hasattr(source, name), f"trace_insight.{module} has no {name}"
        assert getattr(package, public) is getattr(source, name), public
