"""Checks on the package's source text."""

import ast
from pathlib import Path

import pytest

import active_emu

MODULES = sorted(Path(active_emu.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import and never reads; a string in `__all__` counts as a read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(element.value for element in node.value.elts)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom json import dumps, loads as load_json\n__all__ = ['dumps']\n")
    assert unused_imports(tree) == ["os (line 1)", "load_json (line 2)"]
