"""Every name a package module imports is used in that module, and every
module-level private name the package defines is used somewhere in it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import polyclass

PACKAGE = sorted(Path(polyclass.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def _private_names(tree: ast.Module) -> list[str]:
    """The module-level ``_name`` functions, classes and constants of ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_no_orphaned_private_names():
    # A reference from a definition's own body (recursion) does not count.
    defined: dict[str, str] = {}
    used = set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((name, path.name) for name in _private_names(tree))
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != getattr(top, "name", None):
                    used.add(name)
    assert defined
    assert set(defined) <= used, sorted(f"{defined[n]}: {n}" for n in set(defined) - used)
