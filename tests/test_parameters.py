"""Every parameter of the library is one its function reads, and every
public definition is one its callers use.

An argument that is accepted and then ignored looks like a knob but turns
nothing.  This walks the package source and lists each parameter whose
name never occurs in its function's body; `self`, `cls` and names that
start with `_` (deliberately unused) are exempt.  A public function that
nothing calls is code to keep up for no result; the second half lists
those (see below).
"""

import ast
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
# helper, and it lives with them.  Names count where they are read, as a
# name or an attribute; an import alone, a string in `__all__` and a
# definition's own body (recursion) do not.

REPO = Path(__file__).resolve().parents[1]
ROOTS = [*sorted((REPO / "src").rglob("*.py")), *sorted((REPO / "demos").glob("*.py")),
         *sorted((REPO / "perfbench").glob("*.py")), REPO / "tests" / "test_acceptance.py"]
# The paper's prescribed Jacobian exp(P - phi + h(T x) - h(x)) for a
# nonconstant potential; test_verify covers it.
WITHOUT_CALLER = ["verify.py: JacobianSpec.potential_form"]


def _public_defs(tree: ast.Module):
    """(qualified name, node) for each public module-level def, class or
    constant, and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for method in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def _reads(tree: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and not isinstance(n.ctx, ast.Store))


def _uncalled_public_defs(package: dict[str, str], roots: list[str]):
    reads = sum((_reads(ast.parse(src)) for src in roots), Counter())
    for file_name, src in package.items():
        for qualified, node in _public_defs(ast.parse(src)):
            name = qualified.rsplit(".", 1)[-1]
            if reads[name] - _reads(node)[name] <= 0:
                yield f"{file_name}: {qualified}"


def test_uncalled_public_defs_are_found():
    lib = {"m.py": "ONE = 1\nTWO = 2\n\n\ndef f(n):\n    return f(n - 1) + TWO\n\n\n"
                   "class K:\n    def used(self): ...\n    def unused(self): ...\n"
                   "    def _private(self): ...\n"}
    user = "from m import K, ONE, f\n\nK().used()\n"
    assert list(_uncalled_public_defs(lib, [*lib.values(), user])) == [
        "m.py: ONE", "m.py: f", "m.py: K.unused"]


def test_every_public_def_has_a_caller():
    package = {path.name: path.read_text(encoding="utf-8")
               for path in sorted((REPO / "src" / "equistate").glob("*.py"))}
    roots = [path.read_text(encoding="utf-8") for path in ROOTS]
    assert list(_uncalled_public_defs(package, roots)) == WITHOUT_CALLER
