"""Every parameter of the library is one its function reads, and every
public definition is one its callers use.

An argument that is accepted and then ignored looks like a knob but turns
nothing.  This walks the package source and lists each parameter whose
name never occurs in its function's body; `self`, `cls` and names that
start with `_` (deliberately unused) are exempt.  A public function that
nothing calls is code to keep up for no result; the second part lists
those, and the private definitions that nothing in the library reads
(see below).  The third lists imports that nothing reads.  The last
checks that every function the benchmark tracer wraps by name still
exists.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import equistate

PACKAGE = Path(equistate.__file__).resolve().parent


def _unread_parameters(source: str):
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                  if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        for name in params:
            if name not in read and name not in ("self", "cls") and not name.startswith("_"):
                yield f"{getattr(node, 'name', '<lambda>')}({name}), line {node.lineno}"


def test_unread_parameters_are_found():
    src = "def f(a, b, _c, *args, **kw):\n    return a + sum(args)\n"
    assert list(_unread_parameters(src)) == ["f(b), line 1", "f(kw), line 1"]


def test_every_parameter_is_read():
    unread = [f"{path.name}: {entry}" for path in sorted(PACKAGE.glob("*.py"))
              for entry in _unread_parameters(path.read_text(encoding="utf-8"))]
    assert unread == []


# -- every public definition has a caller --------------------------------------
#
# The library is used from its own modules, the demos, the benchmark and the
# acceptance suite.  A definition that only the other tests name is a test
# helper, and it lives with them.  Names count where they are read: a
# module-level def as a name or an attribute, a class member (method or
# dataclass field) only as an attribute, so that the builtin `round` does
# not stand in for a method `round`.  An import alone, a string in
# `__all__`, a keyword that sets a field and a definition's own body
# (recursion) do not count.

REPO = Path(__file__).resolve().parents[1]
ROOTS = [*sorted((REPO / "src").rglob("*.py")), *sorted((REPO / "demos").glob("*.py")),
         *sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]
# perfbench's tracer names these two as strings, which the walk below does
# not read; they go once the tracer drops their rows.
WITHOUT_CALLER = ["balls.py: ball_exp", "potentials.py: Potential.evaluate_with_displacement"]


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def _public_defs(tree: ast.Module):
    """(qualified name, node, is a member) for each public module-level
    def, class or constant, and each public method of a public class and
    public field of a public dataclass."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node, False
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node, False
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and _is_dataclass(node):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", member, True


def _reads(tree: ast.AST) -> tuple[Counter, Counter]:
    """How often each name is read as a name, and as an attribute."""
    names, attrs = Counter(), Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute) and not isinstance(n.ctx, ast.Store):
            attrs[n.attr] += 1
    return names, attrs


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_defs(tree: ast.Module):
    """(qualified name, node, is a member) for each private module-level
    function or constant and each private method of a class; dunders are
    exempt."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and _is_private(target.id):
                    yield target.id, node, False
        elif isinstance(node, ast.FunctionDef) and _is_private(node.name):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and _is_private(member.name):
                    yield f"{node.name}.{member.name}", member, True


def _uncalled_defs(package: dict[str, str], roots: list[str], defs=_public_defs):
    names, attrs = Counter(), Counter()
    for src in roots:
        n, a = _reads(ast.parse(src))
        names, attrs = names + n, attrs + a
    for file_name, src in package.items():
        for qualified, node, member in defs(ast.parse(src)):
            name = qualified.rsplit(".", 1)[-1]
            own_names, own_attrs = _reads(node)
            count = attrs[name] - own_attrs[name]
            if not member:
                count += names[name] - own_names[name]
            if count <= 0:
                yield f"{file_name}: {qualified}"


def test_uncalled_public_defs_are_found():
    lib = {"m.py": "from dataclasses import dataclass\n\nONE = 1\nTWO = 2\n\n\n"
                   "def f(n):\n    return f(n - 1) + TWO\n\n\n"
                   "class K:\n    def used(self): ...\n    def unused(self): ...\n"
                   "    def round(self): ...\n    def _private(self): ...\n\n\n"
                   "@dataclass\nclass R:\n    read: int\n    unread: int = 0\n"}
    user = "from m import K, ONE, R, f\n\nK().used()\nround(R(1, unread=2).read)\n"
    assert list(_uncalled_defs(lib, [*lib.values(), user])) == [
        "m.py: ONE", "m.py: f", "m.py: K.unused", "m.py: K.round", "m.py: R.unread"]


def _package() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted((REPO / "src" / "equistate").glob("*.py"))}


def test_every_public_def_has_a_caller(monkeypatch):
    roots = [path.read_text(encoding="utf-8") for path in ROOTS]
    assert list(_uncalled_defs(_package(), roots)) == WITHOUT_CALLER
    traced = {f"{module}.py: {path}" for module, path in _layers(monkeypatch).TRACED.values()}
    assert set(WITHOUT_CALLER) <= traced


# Private definitions serve the library alone, so only reads in `src/`
# count: one that only tests or the benchmark read is dead code.


def test_uncalled_private_defs_are_found():
    lib = {"m.py": "_ONE = 1\n_TWO: int = 2\n__all__ = []\n\n\n"
                   "def _f(n):\n    return _f(n - 1) + _TWO\n\n\n"
                   "def _g():\n    return _f(1)\n\n\n"
                   "class K:\n    def __init__(self): ...\n    def _used(self): ...\n"
                   "    def _unused(self): ...\n    def run(self):\n        self._used()\n"}
    assert list(_uncalled_defs(lib, list(lib.values()), _private_defs)) == [
        "m.py: _ONE", "m.py: _g", "m.py: K._unused"]


def test_every_private_def_has_a_caller():
    package = _package()
    assert list(_uncalled_defs(package, list(package.values()), _private_defs)) == []


# -- every import is read ------------------------------------------------------
#
# An import that nothing reads is a dependency kept for no use.  A name
# listed in the module's `__all__` counts as read; `from __future__` does
# not bind a name.

IMPORTERS = [*sorted((REPO / "src" / "equistate").glob("*.py")),
             *sorted((REPO / "demos").glob("*.py")), *sorted((REPO / "tests").glob("*.py"))]


def _unread_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    for name, line in sorted(bound.items(), key=lambda kv: (kv[1], kv[0])):
        if name not in read:
            yield f"{name}, line {line}"


def test_unread_imports_are_found():
    src = ("from __future__ import annotations\n\nimport os.path\nimport math as m\n"
           "from json import dumps, loads\n\n__all__ = ['dumps']\n\n\n"
           "def f():\n    import re\n    return m.pi\n")
    assert list(_unread_imports(src)) == ["os, line 3", "loads, line 5", "re, line 11"]


def test_every_import_is_read():
    unread = [f"{path.relative_to(REPO)}: {entry}" for path in IMPORTERS
              for entry in _unread_imports(path.read_text(encoding="utf-8"))]
    assert unread == []


# -- every traced layer exists -------------------------------------------------
#
# perfbench/layers.py wraps library functions by module and attribute name.
# Renaming or deleting one would pass every other test and break only the
# traced benchmark run.


def _layers(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  REPO / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # its dataclass looks itself up
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_function_exists(monkeypatch):
    layers = _layers(monkeypatch)
    missing = []
    for metric, (module, path) in layers.TRACED.items():
        owner = importlib.import_module(f"equistate.{module}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(metric)
    assert layers.TRACED and missing == []


def test_the_tracer_sees_each_tree_level(monkeypatch):
    """The tree calls `preimage_polynomial` and `certified_roots` through
    the names the tracer wraps: a z^2-2 tree of depth 3 at anchor 3 makes
    one call of each per inner node (7) and has 15 nodes."""
    from equistate.serialize import parse_map
    from equistate.sphere import SpherePoint

    layers = _layers(monkeypatch)
    for module in {module for module, _ in layers.TRACED.values()}:
        importlib.import_module(f"equistate.{module}")
    thermo = importlib.import_module("equistate.thermo")
    tracer = layers.Tracer()
    tracer.install()
    try:
        thermo.build_preimage_tree(parse_map("z^2-2"), SpherePoint.finite(3), 3, 30)
    finally:
        tracer.uninstall()
    rows = tracer.snapshot()
    assert rows["ratmap.preimage_polynomial.calls"] == 7
    assert rows["roots.certified_roots.calls"] == 7
    assert rows["thermo.tree_nodes"] == 15


def test_the_tracer_sees_the_transport(monkeypatch):
    """`wasserstein_detail` solves through the name the tracer wraps, with
    the supplies and demands as its first two arguments: z^2 depths 4 and
    5 make one 16 x 32 solve.  A g1 level-2 pushforward makes one
    `SubdivisionMap.eval` call per tile (72)."""
    from equistate.serialize import parse_map
    from equistate.sphere import SpherePoint

    layers = _layers(monkeypatch)
    for module in {module for module, _ in layers.TRACED.values()}:
        importlib.import_module(f"equistate.{module}")
    thermo = importlib.import_module("equistate.thermo")
    thurston = importlib.import_module("equistate.thurston")
    measures = importlib.import_module("equistate.measures")
    f = parse_map("z^2")
    mu, nu = (thermo.backward_orbit_measure(f, None, SpherePoint.finite(3), d) for d in (4, 5))
    tiles = thurston.mme_tile_measure("g1", 2)
    tracer = layers.Tracer()
    tracer.install()
    try:
        measures.wasserstein_detail(mu, nu)
        measures.pushforward(tiles, thurston.SubdivisionMap("g1"))
    finally:
        tracer.uninstall()
    rows = tracer.snapshot()
    assert rows["transport.min_cost_transport.calls"] == 1
    assert rows["transport.cost_entries"] == 512
    assert rows["thurston.eval.calls"] == 72
