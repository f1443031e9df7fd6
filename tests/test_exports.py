"""Every name a package module exports or defines at top level is used by
the package or its tools.

A helper that only tests call belongs with the tests (see
``reference_routes``), and one that a deletion leaves without callers goes
with it.  This scan reads the sources with ``ast``: a name counts as used
when some top-level statement of ``src/``, ``scripts/`` or ``perfbench/``
other than its own definition reads it, as a bare name or as an attribute.
Imports and the strings of ``__all__`` do not count.  The top-level names
are every def, class and assignment of a package module, private ones
included.

A package module also reads every name it imports at top level (in an
``if`` block there too, such as ``if TYPE_CHECKING:``): a bare-name read
anywhere in the module counts, and so does a listing in its own ``__all__``,
which re-exports the name.
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
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return {node.target.id}
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
DEFINED = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
           for stmt in ast.parse(path.read_text()).body
           for name in sorted(_defined(stmt))
           if not name.startswith("__") and name not in _exports(path)]


def _imported(body: list[ast.stmt]) -> list[str]:
    names = []
    for node in body:
        if isinstance(node, ast.If):
            names += _imported(node.body + node.orelse)
        elif (isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"):
            names += [(alias.asname or alias.name).partition(".")[0]
                      for alias in node.names]
    return names


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in _imported(tree.body)
            if name not in read and name not in _exports(path)]


@pytest.fixture(scope="module")
def used():
    return _used_names()


def test_every_package_module_is_scanned():
    assert {module for module, _ in EXPORTS} >= {
        "ambient", "calculus", "graphs", "identities", "shape", "zoo"}
    assert {module for module, _ in DEFINED} >= {
        path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


@pytest.mark.parametrize("module,name", EXPORTS,
                         ids=[f"{m}.{n}" for m, n in EXPORTS])
def test_exported_name_is_used_outside_its_definition(used, module, name):
    assert name in used, (f"{module}.{name} is exported but nothing in src/, "
                          "scripts/ or perfbench/ reads it")


@pytest.mark.parametrize("module,name", DEFINED,
                         ids=[f"{m}.{n}" for m, n in DEFINED])
def test_top_level_name_is_used_outside_its_definition(used, module, name):
    assert name in used, (f"{module}.{name} is defined but nothing in src/, "
                          "scripts/ or perfbench/ reads it")


@pytest.mark.parametrize("module",
                         sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_package_module_reads_every_name_it_imports(module):
    unread = _unread_imports(PACKAGE / f"{module}.py")
    assert not unread, f"{module} imports {unread} but never reads them"
