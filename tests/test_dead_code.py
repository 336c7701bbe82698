"""No dead code in the package: no module imports a name it never uses, and
every function, method, class and module-level name is referred to
somewhere.  Both are read
from syntax trees with the standard library's ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "leibniz_kit"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports only to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert unused == []


def _references(trees: dict) -> dict:
    """{identifier: [(path, line, how)]} over loaded names, attributes,
    imported names and whole string constants (the benchmark traces
    functions by name); ``how`` is the node's type name."""
    refs: dict = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno, type(node).__name__))
    return refs


def test_every_function_method_and_class_is_referred_to():
    # A function or class needs a reference outside its own definition (a
    # recursive call does not count).  A method needs an attribute reference
    # .name, a string constant, or a bare name in its own class body, such as
    # __setitem__ = ... = _read_only: a variable of the same name elsewhere is
    # no use of it.  A module-level name assigned in the package needs a load
    # outside its own assignment; an import by __init__ only re-exports it.
    trees = {path: _parse(path) for top in ("src", "tests", "perfbench")
             for path in sorted((REPO_ROOT / top).rglob("*.py"))}
    refs = _references(trees)
    dead = []
    for path, tree in trees.items():
        if PACKAGE not in path.parents:
            continue
        methods = {id(item): node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    or node.name.startswith("__") and node.name.endswith("__")):
                continue
            cls = methods.get(id(node))
            found = [(where, line) for where, line, how in refs.get(node.name, [])
                     if cls is None or how in ("Attribute", "Constant")
                     or where == path and cls.lineno <= line <= cls.end_lineno]
            if all(where == path and node.lineno <= line <= node.end_lineno
                   for where, line in found):
                dead.append(f"{path.name}:{node.lineno} {node.name}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else []
            for name in (t.id for t in targets if isinstance(t, ast.Name)):
                if name.startswith("__") or any(
                        how != "alias" or where != PACKAGE / "__init__.py"
                        for where, _, how in refs.get(name, [])):
                    continue
                dead.append(f"{path.name}:{node.lineno} {name}")
    assert dead == []
