"""Each checked value keeps the report of its defining identity: no code in
the package calls ``check_leibniz``, ``check_representation``,
``naive_check`` or ``graph_check`` itself, or hands one to anything but a
value's ``_derived("_verdict", ...)``, which runs it once per value and
keeps the report.  Read from syntax trees with the standard library's
``ast``."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "leibniz_kit"
CHECKS = {"check_leibniz", "check_representation", "naive_check", "graph_check"}


def _name(node: ast.AST):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _checks_outside_the_report_slot(tree: ast.Module) -> list[tuple[int, int, str]]:
    """(line, column, source) of every call that runs a check other than
    through a value's report slot: a call of the check itself, or a call
    that is handed one, unless it is ``_derived`` storing it in ``_verdict``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        handed = [a for a in [*node.args, *(k.value for k in node.keywords)] if _name(a) in CHECKS]
        into_verdict = (_name(node.func) == "_derived" and len(node.args) == 2
                        and isinstance(node.args[0], ast.Constant)
                        and node.args[0].value == "_verdict" and not node.keywords)
        if _name(node.func) in CHECKS or (handed and not into_verdict):
            found.append((node.lineno, node.col_offset, ast.unparse(node)))
    return sorted(found)


def test_every_check_runs_through_the_report_slot():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += [f"{path.name}:{line} {src}"
                  for line, _, src in _checks_outside_the_report_slot(tree)]
    assert found == []


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
''')
    # a check stored in the report slot passes, also through a loop variable
    assert [src for *_, src in _checks_outside_the_report_slot(tree)] == [
        "check_leibniz(g)", "omni.naive_check(rho)",
        "rep._derived('_skew', check_representation)",
        "rep._derived('_verdict', build=check_representation)",
        "map(graph_check, phis)"]
