"""Each value type stores its tensors in sparse form, built once in its
constructor, and the checks read that form: outside an ``__init__``, no code
in the package hands a field of a value it was given to ``sparse``, the walk
of a dense tensor, as in ``sparse(L.l3, 4)``.  Read from syntax trees with
the standard library's ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leibniz_kit"
WALKS = {"sparse"}


def _parameters(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    named = args.posonlyargs + args.args + args.kwonlyargs
    return {a.arg for a in named + [a for a in (args.vararg, args.kwarg) if a]}


def _walks_of_parameter_fields(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(line, column, source) of every call of a walk, outside an ``__init__``, whose
    first argument is an attribute of a parameter of the enclosing function."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or fn.name == "__init__":
            continue
        params = _parameters(fn)
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            first = node.args[0]
            if (name in WALKS and isinstance(first, ast.Attribute)
                    and isinstance(first.value, ast.Name) and first.value.id in params):
                found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return sorted(found)


def test_no_walk_of_a_field_outside_a_constructor():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line} {src}"
                  for line, _, src in _walks_of_parameter_fields(tree)]
    assert found == []


def test_the_rule_sees_the_walks_it_forbids():
    tree = ast.parse('''
def verify(L):
    return sparse(L.l3, 4)

class Graph:
    def __init__(self, phi):
        self._phi = sparse(phi.phi, 3)

    def check(self, rho):
        def inner(x):
            return linalg.sparse(x.phi, 3), sparse(rho.theta, 2)
        return sparse(self.basis, 2), sparse(local.theta, 2)
''')
    # a parameter of an enclosing function counts too; a local does not
    assert [src for *_, src in _walks_of_parameter_fields(tree)] == [
        "sparse(L.l3, 4)", "linalg.sparse(x.phi, 3)", "sparse(rho.theta, 2)",
        "sparse(self.basis, 2)"]
