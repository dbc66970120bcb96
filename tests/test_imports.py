"""Every name a package module imports is used in that module, every
module-level private name the package defines is used somewhere in it, every
exported name has a caller in the package, importing the CLI loads none
of the heavy stdlib modules no computation needs, and the README's library
example runs."""

from __future__ import annotations

import ast
import doctest
import json
import os
import re
import subprocess
import sys
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


def _used_names(paths, owners=None) -> set[str]:
    """Names loaded or read as attributes in ``paths``, outside the body that defines them.

    With ``owners`` given, only attributes of those names count.
    """
    used = set()
    for path in paths:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and (
                        owners is None or getattr(node.value, "id", None) in owners):
                    name = node.attr
                else:
                    continue
                if name != getattr(top, "name", None):
                    used.add(name)
    return used


def test_no_orphaned_private_names():
    # A reference from a definition's own body (recursion) does not count.
    defined: dict[str, str] = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update((name, path.name) for name in _private_names(tree))
    used = _used_names(PACKAGE)
    assert defined
    assert set(defined) <= used, sorted(f"{defined[n]}: {n}" for n in set(defined) - used)


# pyramid_peel has no pipeline caller but the benchmark's tracer wraps it.
UNCALLED_EXPORTS = {"pyramid_peel", "__version__"}


def test_every_export_has_a_caller_in_the_package():
    # Tests, doctests and the README do not count: an export nothing on an
    # analyze, verify or make path reaches belongs in tests/.  An attribute
    # counts only on a package module (``families.dilate``), so that
    # ``res.rank`` is no call of a function ``rank``.
    used = _used_names(MODULES, owners={p.stem for p in PACKAGE})
    orphans = set(polyclass.__all__) - used - UNCALLED_EXPORTS
    assert not orphans, sorted(orphans)


# Run in a fresh interpreter.  The watched modules (and the package) are
# dropped from sys.modules first and only what the import adds is counted,
# so a site hook that preloads one can neither fake a pass nor a failure.
_IMPORT_PROBE = """
import json, sys
watched = ("dataclasses", "inspect", "concurrent", "logging", "polyclass")
for name in [m for m in sys.modules if m.split(".")[0] in watched]:
    del sys.modules[name]
bare = set(sys.modules)
import polyclass.cli
from polyclass import random_01_polytopes, verify_family
loaded = sorted(set(sys.modules) - bare)
serial = verify_family(random_01_polytopes(3, 5, seed=0))
after_serial = "concurrent.futures" in sys.modules
pooled = verify_family(random_01_polytopes(3, 5, seed=0), workers=2)
print(json.dumps({"loaded": loaded, "after_serial": after_serial,
                  "after_pool": "concurrent.futures" in sys.modules,
                  "same": pooled == serial, "total": pooled.total}))
"""


def test_cli_import_loads_no_heavy_stdlib_modules():
    env = {**os.environ, "PYTHONPATH": str(Path(polyclass.__file__).parent.parent),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    res = json.loads(out)
    assert "polyclass.cli" in res["loaded"]
    heavy = {"dataclasses", "inspect", "concurrent.futures", "logging"}
    assert heavy.isdisjoint(res["loaded"]), sorted(heavy & set(res["loaded"]))
    assert not res["after_serial"]
    assert res["after_pool"] and res["same"] and res["total"] == 5


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # doctest.testfile(README) would read the closing fence as expected output.
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    results = doctest.DocTestRunner().run(test)
    assert (results.failed, results.attempted) == (0, 5)
