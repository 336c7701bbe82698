"""Each checked type pairs with its defining identity in one place: the
read-only ``verdict`` property of ``LeibnizAlgebra``, ``Representation``,
``GraphMap`` and ``NaiveRepresentation``, whose whole body is
``return self._derived("_verdict", <check>)``, which runs the check once per
value and keeps the report.  No other code in the package calls
``check_leibniz``, ``check_representation``, ``naive_check`` or
``graph_check``, hands one to anything, or fills the ``_verdict`` slot.

The property names the check by its module-level name, so the name is looked
up when the property runs, and code that rebinds it on the module (the call
counts of ``test_check_counts`` and the benchmark's spans) sees every call.
Read from syntax trees with the standard library's ``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leibniz_kit"
CHECKS = {"check_leibniz", "check_representation", "naive_check", "graph_check"}

# (module, checked type): the check its verdict runs
PAIRINGS = {("algebra", "LeibnizAlgebra"): "check_leibniz",
            ("cohomology", "Representation"): "check_representation",
            ("omni", "GraphMap"): "graph_check",
            ("omni", "NaiveRepresentation"): "naive_check"}


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _verdict_bodies(tree: ast.Module) -> dict:
    """{call node: (class name, check name)} for each ``verdict`` property
    whose body, past its docstring, is ``return self._derived("_verdict",
    <a check named as such>)``."""
    bodies = {}
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "verdict"
                    and [ast.unparse(d) for d in fn.decorator_list] == ["property"]):
                continue
            body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            for check in CHECKS:
                if call is not None and ast.unparse(call) == f"self._derived('_verdict', {check})":
                    bodies[call] = (cls.name, check)
    return bodies


def _checks_outside_the_report_slot(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(line, column, source) of every call that runs a check, is handed
    one, or fills the ``_verdict`` slot, other than a ``verdict`` body."""
    allowed = _verdict_bodies(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or node in allowed:
            continue
        args = [*node.args, *(k.value for k in node.keywords)]
        handed = any(_name(a) in CHECKS for a in args)
        into_verdict = _name(node.func) == "_derived" and any(
            isinstance(a, ast.Constant) and a.value == "_verdict" for a in args)
        if _name(node.func) in CHECKS or handed or into_verdict:
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return sorted(found)


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_check_runs_through_the_report_slot():
    found = [f"{module}.py:{line} {src}" for module, tree in _package_trees().items()
             for line, _, src in _checks_outside_the_report_slot(tree)]
    assert found == []


def test_each_checked_type_pairs_with_its_check_in_one_verdict():
    pairings = {}
    for module, tree in _package_trees().items():
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for cls, check in _verdict_bodies(tree).values():
            assert (module, cls) not in pairings
            assert check in defined, f"{module}.{cls}.verdict runs a check defined elsewhere"
            pairings[module, cls] = check
    assert pairings == PAIRINGS


def test_the_rule_sees_the_calls_it_forbids():
    tree = ast.parse('''
def refuse(g, rep, rho, phis):
    check_leibniz(g).holds
    omni.naive_check(rho)
    g._derived("_verdict", check_leibniz)
    rep._derived("_skew", check_representation)
    rep._derived("_verdict", build=check_representation)
    list(map(graph_check, phis))
    for value, check in ((g, check_leibniz), (rep, check_representation)):
        value._derived("_verdict", check)


class Checked:
    @property
    def verdict(self):
        """The one pairing."""
        return self._derived("_verdict", check_leibniz)


class Stored:
    check = check_leibniz

    @property
    def verdict(self):
        return self._derived("_verdict", self.check)

    def report(self):
        return self._derived("_verdict", check_leibniz)
''')
    # only the body of Checked.verdict passes
    assert [src for *_, src in _checks_outside_the_report_slot(tree)] == [
        "check_leibniz(g)", "omni.naive_check(rho)",
        "g._derived('_verdict', check_leibniz)",
        "rep._derived('_skew', check_representation)",
        "rep._derived('_verdict', build=check_representation)",
        "map(graph_check, phis)", "value._derived('_verdict', check)",
        "self._derived('_verdict', self.check)",
        "self._derived('_verdict', check_leibniz)"]
    assert list(_verdict_bodies(tree).values()) == [("Checked", "check_leibniz")]
