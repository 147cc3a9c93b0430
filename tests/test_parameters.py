"""Every parameter of the library is one its function reads.

An argument that is accepted and then ignored looks like a knob but turns
nothing.  This walks the package source and lists each parameter whose
name never occurs in its function's body; `self`, `cls` and names that
start with `_` (deliberately unused) are exempt.
"""

import ast
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
