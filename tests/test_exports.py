"""Every name a package module exports or defines at top level is used by
the package or its tools.

A helper that only tests call belongs with the tests (see
``reference_routes``), and one that a deletion leaves without callers goes
with it.  This scan reads the sources with ``ast``: a name counts as used
when some top-level statement of ``src/``, ``scripts/`` or ``perfbench/``
other than its own definition reads it, as a bare name or as an attribute.
Imports and the strings of ``__all__`` do not count.  The top-level names
are every def, class and assignment of a package module, private ones
included.  The same holds for the members of every package class: each
method and property that is not a dunder is read somewhere in those trees
outside its own body, as an attribute or a bare name.  Each field of a
package dataclass is read as an attribute there, except the fields of a
``Report`` subclass, which ``Report.to_dict`` serializes, every one.
No ``__post_init__`` of a package class assigns an attribute of ``self``
(by assignment or ``setattr``): a value read from another field is a
property over that field, not a copy that goes stale when it is set.

A package module also reads every name it imports at top level (in an
``if`` block there too, such as ``if TYPE_CHECKING:``): a bare-name read
anywhere in the module counts, and so does a listing in its own ``__all__``,
which re-exports the name.

A package function raises a builtin exception class only where
``BUILTIN_RAISES`` lists it, one entry per ``raise``, each with its reason:
a failure a caller may meet raises a ``GeometryError`` subclass, which the
CLI maps to an exit code.  A re-raise (a bare ``raise`` or ``raise`` of a
bound exception) and ``cli.UsageError`` are no builtin class.

No option exists that nothing sets: every parameter with a default, of
every function or method of a package module, is passed by some call in
``src/``, ``scripts/`` or ``perfbench/``, by keyword or by position.  A
call matches a definition by name (a bare name or an attribute), a
constructor ``__init__`` by its class's name; a method's positional
arguments start after ``self``, and a call that unpacks ``*args``
or ``**kwargs`` counts as passing what it could.  ``OPTIONS_SET_ELSEWHERE``
names the exemptions, each with its reason.  Since calls match by name, no
function with a defaulted parameter shares its name with another function
of a package module (nested ones included), whose calls would otherwise
count for it.
"""

import ast
import builtins
import collections
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


def _reads(tree: ast.AST) -> collections.Counter:
    """Names read in ``tree``: bare-name loads and attribute names."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))


def _used_names() -> set[str]:
    used = set()
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                used |= set(_reads(stmt)) - _defined(stmt)
    return used


def _members() -> list[tuple[str, str, ast.FunctionDef]]:
    """(module, class, def) for every method and property of a package
    class that is not a dunder."""
    return [(path.stem, cls.name, fn)
            for path in sorted(PACKAGE.glob("*.py"))
            for cls in ast.walk(ast.parse(path.read_text()))
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (fn.name.startswith("__") and fn.name.endswith("__"))]


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """Decorated ``@dataclass`` or ``@dataclass(...)``."""
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _dataclass_fields() -> list[tuple[str, str, str]]:
    """(module, class, field) for every field of a package dataclass that
    ``Report`` does not serialize."""
    classes = [(path.stem, cls) for path in sorted(PACKAGE.glob("*.py"))
               for cls in ast.walk(ast.parse(path.read_text()))
               if isinstance(cls, ast.ClassDef)]
    bases = {cls.name: {b.id for b in cls.bases if isinstance(b, ast.Name)}
             for _, cls in classes}

    def is_report(name: str) -> bool:
        return name == "Report" or any(map(is_report, bases.get(name, ())))

    return [(module, cls.name, stmt.target.id) for module, cls in classes
            if _is_dataclass(cls) and not is_report(cls.name)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


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


# (module, function, parameter) -> why nothing in src/, scripts/ or
# perfbench/ passes it
OPTIONS_SET_ELSEWHERE = {
    ("cli", "main", "argv"):
        "tests drive the console entry point through it; the entry point "
        "itself reads sys.argv",
}


def _defaulted_parameters() -> dict[tuple[str, str, str], int | None]:
    """(module, function, parameter) -> the parameter's position among the
    arguments a call passes (after a method's ``self``), or ``None`` for a
    keyword-only one."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for node in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # a constructor is called by its class's name
            name = owner[id(fn)] if fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            skip = 1 if id(fn) in owner else 0
            for k in range(first, len(positional)):
                found[path.stem, name, positional[k].arg] = k - skip
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found[path.stem, name, arg.arg] = None
    return found


def _calls() -> dict[str, list[ast.Call]]:
    """Every call in src/, scripts/ and perfbench/, by callee name."""
    calls = collections.defaultdict(list)
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name):
                        calls[func.id].append(node)
                    elif isinstance(func, ast.Attribute):
                        calls[func.attr].append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    if (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg is None for kw in call.keywords)):
        return True
    return (any(kw.arg == param for kw in call.keywords)
            or position is not None and position < len(call.args))


def test_every_option_is_set_by_some_caller():
    defaulted = _defaulted_parameters()
    assert set(OPTIONS_SET_ELSEWHERE) <= set(defaulted)
    calls = _calls()
    unset = [f"{module}.{function}({param}=)"
             for (module, function, param), position in defaulted.items()
             if (module, function, param) not in OPTIONS_SET_ELSEWHERE
             and not any(_passes(call, param, position)
                         for call in calls[function])]
    assert not unset, ("nothing in src/, scripts/ or perfbench/ passes "
                       f"{', '.join(unset)}")


def test_no_option_shares_its_function_name():
    defs = collections.Counter(
        fn.name for path in sorted(PACKAGE.glob("*.py"))
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)))
    shared = sorted({f"{module}.{function}"
                     for module, function, _ in _defaulted_parameters()
                     if defs[function] > 1})
    assert not shared, (f"{', '.join(shared)} take a defaulted parameter but "
                        "share their name with another function, whose calls "
                        "would count as setting it")


# shape's block-thread state: the thread count and the pools.  frame_at and
# run_suite hand their threaded work to shape._block_map, so no other
# module decides how many threads run it.
BLOCK_THREAD_STATE = {"_WORKERS", "_pool", "_pools"}


def test_only_shape_reads_its_block_thread_state():
    readers = []
    for root in USERS:
        for path in sorted(root.rglob("*.py")):
            if path == PACKAGE / "shape.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.attr if isinstance(node, ast.Attribute)
                        else node.id if isinstance(node, ast.Name)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name in BLOCK_THREAD_STATE:
                    readers.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                                   f"{name}")
    assert not readers, ("only shape reads its block-thread state: "
                         f"{', '.join(readers)}")


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


def test_every_class_member_is_read_outside_its_body():
    reads = sum((_reads(ast.parse(path.read_text()))
                 for root in USERS for path in sorted(root.rglob("*.py"))),
                collections.Counter())
    members = _members()
    assert {module for module, _, _ in members} >= {
        "ambient", "calculus", "graphs", "shape"}
    unread = [f"{module}.{cls}.{fn.name}" for module, cls, fn in members
              if reads[fn.name] <= _reads(fn)[fn.name]]
    assert not unread, ("nothing in src/, scripts/ or perfbench/ reads "
                        f"{', '.join(unread)}")


def test_every_dataclass_field_is_read():
    # a field is read as an attribute; a bare name of the same spelling is
    # some other variable
    reads = {node.attr for root in USERS for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)}
    fields = _dataclass_fields()
    assert {(module, cls) for module, cls, _ in fields} >= {
        ("ambient", "AxisSpec"), ("calculus", "QuadratureGrid"),
        ("shape", "GeometryFrame"), ("zoo", "Scenario")}
    assert not {cls for _, cls, _ in fields} & {"Report", "CheckResult"}
    unread = [f"{module}.{cls}.{name}" for module, cls, name in fields
              if name not in reads]
    assert not unread, ("nothing in src/, scripts/ or perfbench/ reads "
                        f"{', '.join(unread)}")


def _sets_self(node: ast.AST) -> bool:
    """``self.x = ...`` (any store), ``setattr(self, ...)`` or
    ``object.__setattr__(self, ...)``."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
        target = node.value
    elif isinstance(node, ast.Call) and node.args and (
            isinstance(node.func, ast.Name) and node.func.id == "setattr"
            or isinstance(node.func, ast.Attribute)
            and node.func.attr == "__setattr__"):
        target = node.args[0]
    else:
        return False
    return isinstance(target, ast.Name) and target.id == "self"


def test_no_post_init_assigns_an_attribute_of_self():
    # derive, don't copy: __post_init__ only validates its fields
    post_inits = [(path.stem, cls.name, fn)
                  for path in sorted(PACKAGE.glob("*.py"))
                  for cls in ast.walk(ast.parse(path.read_text()))
                  if isinstance(cls, ast.ClassDef)
                  for fn in cls.body
                  if isinstance(fn, ast.FunctionDef)
                  and fn.name == "__post_init__"]
    assert {cls for _, cls, _ in post_inits} >= {
        "GraphSurface", "RadialSolution", "SurfaceField"}
    copies = [f"{module}.{cls}:{node.lineno}" for module, cls, fn in post_inits
              for node in ast.walk(fn) if _sets_self(node)]
    assert not copies, ("__post_init__ assigns an attribute of self at "
                        f"{', '.join(copies)}; derive it with a property")


# (module, function, builtin exception, why no caller meets it): each
# guards against internal misuse, which no public input reaches
BUILTIN_RAISES = [
    ("_smallmat", "det", "ValueError",
     "det takes the 1, 2 and 3 blocks that the frames build"),
    ("_smallmat", "inv", "ValueError",
     "inv takes the 1, 2 and 3 blocks that the frames build"),
    ("_smallmat", "generalized_cross", "ValueError",
     "the frames pass n tangent rows of n + 1 components"),
    ("_smallmat", "generalized_cross", "ValueError",
     "every registered ambient has dimension 3 or 4"),
    ("calculus", "SurfaceField.__post_init__", "ValueError",
     "integrands are sampled on the grid they are built with"),
    ("calculus", "_deck_transform", "ValueError",
     "a periodic axis has 2 * resolution nodes, an even count"),
    ("shape", "frame_at", "ValueError",
     "keep names come from the package's own field sets"),
    ("shape", "intrinsic_curvature_oracle", "ValueError",
     "the catalog's surfaces have dimension 2 or 3"),
]


def _builtin_raises() -> list[tuple[str, str, str]]:
    """(module, function, exception) for every ``raise`` of a builtin
    exception class in a package module; nested functions and methods
    are named by their dotted path."""
    found = []

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = (child.exc.func if isinstance(child.exc, ast.Call)
                       else child.exc)
                cls = getattr(builtins, getattr(exc, "id", ""), None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.append((module, scope, exc.id))
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_builtin_exceptions_are_raised_only_where_listed():
    listed = collections.Counter(entry[:3] for entry in BUILTIN_RAISES)
    found = collections.Counter(_builtin_raises())
    unlisted = sorted(found - listed)
    stale = sorted(listed - found)
    assert not unlisted, ("raise a GeometryError subclass, or list the "
                          f"builtin raise with its reason: {unlisted}")
    assert not stale, f"BUILTIN_RAISES lists raises that are gone: {stale}"


@pytest.mark.parametrize("module",
                         sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_package_module_reads_every_name_it_imports(module):
    unread = _unread_imports(PACKAGE / f"{module}.py")
    assert not unread, f"{module} imports {unread} but never reads them"
