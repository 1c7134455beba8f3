"""Every top-level import of a chdf module or test module is used by it, and
every definition in chdf is used by the package.

No linter ships with the toolchain, so this walks the syntax tree: a name
bound by an import statement in a module's body must appear as a name
somewhere in that module.  `__init__.py` is skipped, since its imports are
the package's re-exports.  A top-level def, class or assigned name of a chdf
module, and a method or property of a top-level class other than a dunder,
must be named by some chdf module outside its own statement, re-exported by
`__init__.py`, or looked up by the benchmark's tracer (perfbench/tracing.py
TARGETS, which holds `driver.LedgerWriter.write`): nothing in the package
exists only for the tests.  An export stays if the CLI path or the
benchmark uses it, or if it states a result of the paper
(`classify_good_times`, `mass_closed_form`).  A field of a top-level
dataclass must be read as an attribute by some chdf module or by the
tracer, or its class must be passed by name to `dataclasses.fields` in the
package (as `LedgerRow` and `ModelParams` are); a field that is only set
is unused.  No top-level name is defined in two chdf modules: since names
are matched across modules, a constant left behind in one module after it
moved to another would otherwise pass as used.

Methods and fields are matched by name, so one that shares its name with
an attribute the package reads on another type is not seen.  `copy`, which
numpy arrays have, is such a name: the guard cannot tell an unused
`ScalarField.copy` or `VectorField.copy`, so those classes define no
`copy`.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "chdf"
PACKAGE = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))
TRACING = TESTS.parent / "perfbench" / "tracing.py"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module body's imports that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_detector_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from .errors import A, B\nprint(np.pi, A)\n")
    assert unused_imports(source) == ["line 2: os", "line 4: B"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []



def _names(node) -> Counter:
    """Each name that node reads, as a variable, an attribute or an import."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name] += 1
    return out


def _defined(node) -> list[tuple[str, str, ast.AST]]:
    """(shown name, looked-up name, defining statement) of each definition
    in a top-level statement: a def, a class and, as "Class.name", each of
    its methods and properties but the dunders, or the plain names an
    assignment binds."""
    if isinstance(node, ast.ClassDef):
        return [(node.name, node.name, node)] + [
            (f"{node.name}.{item.name}", item.name, item) for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not (item.name.startswith("__") and item.name.endswith("__"))]
    if isinstance(node, ast.FunctionDef):
        return [(node.name, node.name, node)]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [(n.id, n.id, node) for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unused_definitions(sources: dict[str, str], kept: set[tuple[str, str]]) -> list[str]:
    """Definitions, as "module.name" or "module.Class.method", that no module
    in sources names outside the defining statement itself and that kept
    does not hold, as (module, name) or (module.Class, method)."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    kept = {f"{mod}.{name}" for mod, name in kept}
    return [f"{mod}.{shown}" for mod, tree in trees.items() for node in tree.body
            for shown, name, where in _defined(node)
            if f"{mod}.{shown}" not in kept and named[name] == _names(where)[name]]


def test_detector_finds_an_unused_definition():
    sources = {"a": "def f():\n    return f()\n\ndef g():\n    pass\n\nclass C:\n    pass\n",
               "b": "from .a import g\n\ndef h():\n    pass\n"}
    assert unused_definitions(sources, set()) == ["a.f", "a.C", "b.h"]
    assert unused_definitions(sources, {("a", "C"), ("b", "h")}) == ["a.f"]


def test_detector_finds_an_unused_assignment():
    sources = {"a": "X = 1\nY: int = X\nZ, W = 2, 3\nV = V0 = 4\n",
               "b": "from .a import W\n\ndef h():\n    return V0\n"}
    assert unused_definitions(sources, {("b", "h")}) == ["a.Y", "a.Z", "a.V"]
    assert unused_definitions(sources, {("b", "h"), ("a", "Y")}) == ["a.Z", "a.V"]


def test_detector_finds_an_unused_method():
    sources = {"a": ("class C:\n    def __init__(self):\n        self.f()\n\n"
                     "    def f(self):\n        pass\n\n    @property\n"
                     "    def area(self):\n        return self.area\n\n"
                     "    def write(self):\n        pass\n"),
               "b": "from .a import C\n"}
    assert unused_definitions(sources, set()) == ["a.C.area", "a.C.write"]
    assert unused_definitions(sources, {("a.C", "write")}) == ["a.C.area"]


def duplicate_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level names that more than one module of sources defines, as
    "name: module, module"."""
    where = {}
    for mod, src in sources.items():
        for node in ast.parse(src).body:
            for shown, _, _ in _defined(node):
                if "." not in shown:
                    where.setdefault(shown, set()).add(mod)
    return [f"{name}: {', '.join(sorted(mods))}" for name, mods in where.items()
            if len(mods) > 1]


def test_detector_finds_a_duplicate_definition():
    sources = {"a": "X = 1\n\ndef f():\n    pass\n\nclass C:\n    def g(self):\n        pass\n",
               "b": "from .a import f\nX = 2\n\ndef g():\n    pass\n",
               "c": "Y = Y = 3\n\nclass C:\n    pass\n"}
    assert duplicate_definitions(sources) == ["X: a, b", "C: a, c"]


def test_no_name_is_defined_in_two_modules():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert duplicate_definitions(sources) == []


def _dataclass_fields(node) -> list[tuple[str, str]]:
    """(class, field) of each annotated field of a top-level dataclass."""
    if not (isinstance(node, ast.ClassDef) and any(
            "dataclass" in _names(d) for d in node.decorator_list)):
        return []
    return [(node.name, item.target.id) for item in node.body
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]


def unused_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Dataclass fields of sources, as "module.Class.field", that no module
    of sources or readers reads as an attribute and whose class no module
    of sources passes by name to `fields`."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = {n.attr for tree in [*trees.values(), *map(ast.parse, readers)]
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    listed = {n.args[0].id for tree in trees.values() for n in ast.walk(tree)
              if isinstance(n, ast.Call) and "fields" in _names(n.func)
              and n.args and isinstance(n.args[0], ast.Name)}
    return [f"{mod}.{cls}.{name}" for mod, tree in trees.items() for node in tree.body
            for cls, name in _dataclass_fields(node)
            if name not in read and cls not in listed]


def test_detector_finds_an_unused_field():
    sources = {"a": ("from dataclasses import dataclass, fields\n\n@dataclass\n"
                     "class R:\n    kept: int\n    set_only: int\n    traced: int = 0\n\n"
                     "@dataclass(frozen=True)\nclass Row:\n    listed: float\n\n"
                     "class Plain:\n    note: str\n\n"
                     "def f(r):\n    r.set_only = r.kept\n    return fields(Row)\n"),
               "b": "from .a import R\n\ndef g(unused: int):\n    return R(unused, 0)\n"}
    assert unused_fields(sources, []) == ["a.R.set_only", "a.R.traced"]
    assert unused_fields(sources, ["def h(r):\n    return r.traced\n"]) == ["a.R.set_only"]


def test_every_definition_is_used_by_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = {(node.module, alias.name) for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE}
    assert (unused_definitions(sources, exported | set(tracing.TARGETS))
            + unused_fields(sources, [TRACING.read_text(encoding="utf-8")])) == []
