"""The package is what the commands use.  An ``ast`` walk from ``cli.main``,
counting module-level code as run, reaches every function and class of
``src/leibniz_kit`` except the library-only names that README lists, each
with its reason, under "Library-only names"."""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "leibniz_kit"


def _unreached(modules: dict) -> set:
    """The names of the top-level functions and classes that no command
    reaches.  A name resolves through its module's own definitions and its
    relative imports; a class reaches what its methods use."""
    defs, bound = {}, {}
    for module, tree in modules.items():
        names = bound[module] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
                names[node.name] = (module, node.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    names[alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module else (alias.name, None))

    def resolve(module, name):
        while (module, name) not in defs and name in bound.get(module, {}):
            module, name = bound[module][name]
        return (module, name) if (module, name) in defs else None

    def uses(module, nodes):
        for node in (sub for top in nodes for sub in ast.walk(top)):
            if isinstance(node, ast.Name):
                yield resolve(module, node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                target = bound[module].get(node.value.id)
                if target and target[1] is None:  # an imported module
                    yield resolve(target[0], node.attr)

    reached = {("cli", "main")}
    todo = [("cli", [defs["cli", "main"]])]
    todo += [(module, [node for node in tree.body
                       if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                                ast.Import, ast.ImportFrom))])
             for module, tree in modules.items()]
    while todo:
        module, nodes = todo.pop()
        for key in set(uses(module, nodes)) - reached - {None}:
            reached.add(key)
            todo.append((key[0], [defs[key]]))
    return {name for key, name in defs if (key, name) not in reached}


def _modules() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _library_only() -> list:
    """The name that opens each bullet of README's "Library-only names"."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library-only names\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\* `(\w+)`", section, re.MULTILINE)


def test_every_unreached_name_is_listed_as_library_only():
    listed = _library_only()
    assert len(listed) == len(set(listed))
    assert _unreached(_modules()) == set(listed)


def test_the_walk_sees_a_deleted_caller():
    # cmd_check is the one caller of square_in_center_check
    modules = _modules()
    modules["cli"].body = [node for node in modules["cli"].body
                           if getattr(node, "name", None) != "cmd_check"]
    assert "square_in_center_check" in _unreached(modules) - _unreached(_modules())
