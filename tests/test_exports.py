"""Every name a package module exports is used by the package or its tools.

A helper that only tests call belongs with the tests (see
``reference_routes``).  This scan reads the sources with ``ast``: a name
counts as used when some top-level statement of ``src/``, ``scripts/`` or
``perfbench/`` other than its own definition reads it, as a bare name or
as an attribute.  Imports and the strings of ``__all__`` do not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prodsurf"
USERS = (ROOT / "src", ROOT / "scripts", ROOT / "perfbench")


def _exports(path: Path) -> list[str]:
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _defined(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _used_names() -> set[str]:
    used = set()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                read = set()
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Name):
                        if isinstance(node.ctx, ast.Load):
                            read.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        read.add(node.attr)
                used |= read - _defined(stmt)
    return used


EXPORTS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
           for name in _exports(path) if not name.startswith("__")]


@pytest.fixture(scope="module")
def used():
    return _used_names()


def test_every_package_module_is_scanned():
    assert {module for module, _ in EXPORTS} >= {
        "ambient", "calculus", "graphs", "identities", "shape", "zoo"}


@pytest.mark.parametrize("module,name", EXPORTS,
                         ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_is_used_outside_its_definition(used, module, name):
    assert name in used, (f"{module}.{name} is exported but nothing in src/, "
                          "scripts/ or perfbench/ reads it")
