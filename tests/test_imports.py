"""Import hygiene: no module of the package imports a name it never uses, the
package root's only public names are its submodules, the declared Python
floor is one that the installed numpy runs on, and the console script is
``cli.run``."""

import ast
import importlib
import importlib.metadata
import re
import tomllib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "trace_insight"
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"
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


def test_the_package_root_exports_only_its_submodules():
    package = importlib.import_module("trace_insight")
    for path in MODULES:
        importlib.import_module(f"trace_insight.{path.stem}")
    public = {name: value for name, value in vars(package).items()
              if not name.startswith("_")}
    assert sorted(public) == [path.stem for path in MODULES]
    assert all(value.__name__ == f"trace_insight.{name}"
               for name, value in public.items())
    assert "__getattr__" not in vars(package)


def _floor(spec: str) -> tuple[int, ...]:
    """The (major, minor, micro) of a lone ``>=X.Y`` specifier."""
    match = re.fullmatch(r">=\s*(\d+(?:\.\d+){0,2})", spec.strip())
    assert match, f"expected a lone >= floor, got {spec!r}"
    return (*map(int, match.group(1).split(".")), 0, 0)[:3]


def test_python_floor_is_not_below_numpys():
    with open(PYPROJECT, "rb") as fh:
        declared = tomllib.load(fh)["project"]["requires-python"]
    numpy_floor = importlib.metadata.metadata("numpy")["Requires-Python"]
    assert _floor(declared) >= _floor(numpy_floor), \
        f"requires-python {declared!r} is below numpy's {numpy_floor!r}"


def test_the_console_script_exits_through_cli_run():
    # run, not main: the installed script skips the exit-time collection
    # as `python -m trace_insight.cli` does
    from trace_insight import cli
    with open(PYPROJECT, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["trace-insight"]
    module, _, attr = entry.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.run


# Where an artifact's format is decided: the one function allowed to make
# each call, as (module, function).
FORMAT_CALLS = {
    "json.dump": {("stage.py", "write_json")},
    "json.dumps": {("stage.py", "write_json")},
    "csv.writer": {("trace_model.py", "write_trace_dir")},
    # open() for writing, by mode
    "open": {("trace_model.py", "csv_file"), ("trace_model.py", "write_trace_dir"),
             ("trace_model.py", "save_columns"), ("stage.py", "write_json")},
}


def calls_in_functions(tree):
    """(callee text, innermost enclosing function or None, call) of every
    call in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Call):
            found.append((ast.unparse(node.func), function, node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def opens_for_writing(call) -> bool:
    modes = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
               for mode in modes)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_artifact_formats_are_decided_in_one_place(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    # a name imported from json or csv would get round the checks below
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module in ("json", "csv")]
    stray = [f"{callee} in {function or 'module scope'} (line {call.lineno})"
             for callee, function, call in calls_in_functions(tree)
             if callee in FORMAT_CALLS
             and (callee != "open" or opens_for_writing(call))
             and (path.name, function) not in FORMAT_CALLS[callee]]
    assert stray == [], f"{path.name} writes an artifact format of its own"
