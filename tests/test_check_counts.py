"""Each premise is proven once per value: a checked value keeps the report of
its defining identity, its ``verdict``, and ``lie2`` keeps the skew bracket
and the Jacobiator of an algebra, so however many callers in one command ask
(the CLI's refusal, the ``algebra.require`` of each library entry point, a
constructor, each ``betti``), each value is checked, or each form computed,
once.  ``semidirect`` refuses its inputs itself, and reads the verdicts that
the CLI made.

The calls are counted by wrapping the functions on every module of the
package that binds them, as ``perfbench/launch.py`` does, around
``cli.main``.  A value here is one object: the image representation of a
naive map and the (l,0)-product that ``mc`` builds are values of their own,
each checked once; ``mc`` builds no (l,r)-product, whose Leibniz identity
is its Maurer-Cartan residual.  ``--compare`` checks no image representation: it is
compared with the classical representation, which ``betti`` checks, and
found equal."""

from __future__ import annotations

import json
import sys

import pytest

import leibniz_kit.cli as cli
from leibniz_kit import adjoint_rep, omni_lie
from leibniz_kit.linalg import Frozen
from leibniz_kit.serialize import algebra_to_json, representation_to_json

from conftest import REPO_ROOT

# the counted functions, by the module that defines them
COUNTED = {"check_leibniz": "algebra", "check_representation": "cohomology",
           "naive_check": "omni", "graph_check": "omni", "_jacobiator": "lie2",
           "skew_bracket": "lie2"}

# command: {function: calls}; a function not named is not called.  omni3 and
# rep3 are omni_lie(3) and its adjoint representation, written for the test.
COUNTS = {
    "cohomology fixtures/omni2.json --rep adjoint --compare --max-degree 2":
        {"check_leibniz": 1, "check_representation": 1, "naive_check": 1},
    "cohomology fixtures/omni2.json --rep trivial --compare --max-degree 2":
        {"check_leibniz": 1, "check_representation": 1, "naive_check": 1},
    "cohomology omni3.json --rep adjoint --naive --max-degree 0":
        {"check_leibniz": 1, "check_representation": 1, "naive_check": 1},
    "cohomology omni3.json --rep rep3.json --naive --max-degree 1":
        {"check_leibniz": 1, "check_representation": 2, "naive_check": 1},
    "cohomology fixtures/heis3.json --rep trivial --naive --max-degree 2":
        {"check_leibniz": 1, "check_representation": 1, "naive_check": 1},
    "cohomology fixtures/omni2.json --rep adjoint --max-degree 1":
        {"check_leibniz": 1, "check_representation": 1},
    "mc omni3.json rep3.json": {"check_leibniz": 2, "check_representation": 1},
    "semidirect fixtures/heis3.json fixtures/rep_adjoint_heis3.json":
        {"check_leibniz": 2, "check_representation": 1},
    "lie2 omni3.json": {"check_leibniz": 1, "_jacobiator": 1, "skew_bracket": 1},
    "check fixtures/heis3.json": {"check_leibniz": 1},
    "graph fixtures/graph_heis3.json --emit-algebra": {"check_leibniz": 1, "graph_check": 1},
    "graph fixtures/graph_heis3.json --json": {"graph_check": 1},
}


@pytest.fixture(scope="module")
def omni3_files(tmp_path_factory):
    """A directory holding omni3.json and rep3.json."""
    where = tmp_path_factory.mktemp("omni3")
    g = omni_lie(3)
    (where / "omni3.json").write_text(json.dumps(algebra_to_json(g)))
    (where / "rep3.json").write_text(json.dumps(representation_to_json(adjoint_rep(g))))
    return where


def _counted_calls(monkeypatch) -> dict:
    """Wrap each counted function; return {name: [first argument per call]}."""
    calls: dict = {name: [] for name in COUNTED}
    modules = [m for name, m in list(sys.modules.items()) if name.startswith("leibniz_kit")]
    for name, home in COUNTED.items():
        original = getattr(sys.modules[f"leibniz_kit.{home}"], name)

        def counted(value, *args, _name=name, _original=original):
            calls[_name].append(value)
            return _original(value, *args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("command", sorted(COUNTS))
def test_each_premise_is_proven_once_per_value(command, monkeypatch, capsys, omni3_files):
    monkeypatch.chdir(REPO_ROOT)
    argv = [str(omni3_files / word) if word in ("omni3.json", "rep3.json") else word
            for word in command.split()]
    calls = _counted_calls(monkeypatch)
    assert cli.main(argv) == 0, capsys.readouterr()
    for name, values in calls.items():
        assert len({id(v) for v in values}) == len(values), f"{name} ran twice on one value"
    assert {name: len(values) for name, values in calls.items() if values} == COUNTS[command]


def test_a_derived_form_is_built_once_per_value():
    class Value(Frozen):
        __slots__ = ("x", "_form")

        def __init__(self, x):
            self._set(x)

    built = []

    def build(v):
        built.append(v)
        return v.x * 2

    a, twin = Value(3), Value(3)
    assert a._derived("_form", build) == 6 and a._derived("_form", build) == 6
    assert built == [a]
    # an equal value built apart derives its own form; equality ignores it
    assert twin._derived("_form", build) == 6 and built == [a, twin] and a == twin
