"""Source hygiene: every name a package module imports is used."""

import ast
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "totalparts"

# (module, name) pairs imported on purpose without a reference.
# exotica.two_cos: perfbench/spans.py wraps it under this name for its
# traced census run.
ALLOWED = {("exotica", "two_cos")}


def _imported_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
    return names


def _unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a package re-exports what it imports through __all__
    module = importlib.import_module(
        "totalparts" if path.stem == "__init__" else f"totalparts.{path.stem}")
    used |= set(getattr(module, "__all__", ()))
    return _imported_names(tree) - used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = {name for name in _unused_imports(path)
              if (path.stem, name) not in ALLOWED}
    assert not unused, f"{path.name} imports but never uses {sorted(unused)}"


def test_allowlisted_imports_are_still_imported():
    for module, name in ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert name in _imported_names(tree), (module, name)
