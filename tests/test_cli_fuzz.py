"""Damaged input documents through ``cli.main``.

Each draw takes one command on the fixtures and damages one of its input
documents once: a top-level key dropped, repeated or given a value of
another type; a list wrapped in one more list or unwrapped; or a scalar
replaced by a float, a bool, 10**400, a 5,000-digit string or a deeply
nested list.  Whatever the damage, ``main`` ends the run with one of its
four exit codes, and no exception leaves it: malformed input is a
``SchemaError`` (exit 2) and a refused premise is ``Refused`` (exit 1), so
anything else out of ``main`` is a fault of the program."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_kit.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DOCUMENTS = {path.stem: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted(FIXTURES.glob("*.json"))}
ALGEBRAS = [name for name in DOCUMENTS if not name.startswith(("rep_", "graph_"))]
GRAPHS = [name for name in DOCUMENTS if name.startswith("graph_")]
# each representation file, with the algebra that its name ends with
REPRESENTATIONS = {name: name.rsplit("_", 1)[1] for name in DOCUMENTS if name.startswith("rep_")}


def _commands() -> list:
    """(argv with {0} and {1} for the input documents, their fixture names,
    whether the command takes --json)."""
    out = []
    for a in ALGEBRAS:
        out += [("check {0}", (a,), True), ("lie2 {0}", (a,), True)]
        out += [(f"cohomology {{0}} --rep {rep} {mode} --max-degree 1", (a,), True)
                for rep in ("trivial", "adjoint") for mode in ("", "--naive", "--compare")]
    for rep, a in REPRESENTATIONS.items():
        out += [(f"cohomology {{0}} --rep {{1}} {mode} --max-degree 1", (a, rep), True)
                for mode in ("", "--naive")]
        out += [("mc {0} {1}", (a, rep), True), ("semidirect {0} {1} --mode lr", (a, rep), False),
                ("semidirect {0} {1} --mode l0", (a, rep), False)]
    for g in GRAPHS:
        out += [("graph {0}", (g,), True), ("graph {0} --emit-algebra", (g,), True)]
    return out


COMMANDS = _commands()
# the values a scalar or a key's value is replaced by; DEEP stands for a
# list nested 50, 900 or 3,000 deep, written into the text
DEEP = "\u0000deep"
ODD = [1.5, True, False, 10 ** 400, "1" * 5000, DEEP, None, "x", 7, -1, [], {}]


def _paths(value, path=()):
    """The path of every value below the document, as a tuple of keys."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, sub in items:
        yield path + (key,), sub
        if isinstance(sub, (dict, list)):
            yield from _paths(sub, path + (key,))


_DROP = object()


def _replace(doc, path, new):
    """A copy of doc with the value at path replaced by new, or removed
    when new is _DROP."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _damaged(data, doc) -> str:
    """The text of doc with one drawn damage."""
    kind = data.draw(st.sampled_from(["drop", "repeat", "retype", "wrap", "unwrap", "scalar"]))
    repeated = ""
    if kind in ("drop", "repeat", "retype"):
        key = data.draw(st.sampled_from(sorted(doc)))
        if kind == "drop":
            doc = _replace(doc, (key,), _DROP)
        elif kind == "repeat":
            value = data.draw(st.sampled_from([doc[key], *ODD]))
            repeated = f", {json.dumps(key)}: {json.dumps(value)}"
        else:
            odd = [v for v in ODD if type(v) is not type(doc[key])]
            doc = _replace(doc, (key,), data.draw(st.sampled_from(odd)))
    else:
        paths = list(_paths(doc))
        if kind == "wrap":
            path, value = data.draw(st.sampled_from([p for p in paths if isinstance(p[1], list)]))
            doc = _replace(doc, path, [value])
        elif kind == "unwrap":
            lists = [p for p in paths if isinstance(p[1], list) and p[1]]
            if lists:
                path, value = data.draw(st.sampled_from(lists))
                doc = _replace(doc, path, value[0])
        else:
            scalars = [path for path, value in paths if not isinstance(value, (dict, list))]
            doc = _replace(doc, data.draw(st.sampled_from(scalars)), data.draw(st.sampled_from(ODD)))
    text = json.dumps(doc)
    if repeated:
        text = text[:-1] + repeated + "}"
    deep = json.dumps(DEEP)
    if deep in text:
        depth = data.draw(st.sampled_from([50, 900, 3000]))
        text = text.replace(deep, "[" * depth + "]" * depth)
    return text


@settings(max_examples=200, deadline=5000)
@given(st.data())
def test_damaged_documents_end_in_one_of_the_four_exit_codes(tmp_path_factory, data):
    template, names, takes_json = data.draw(st.sampled_from(COMMANDS))
    damaged = data.draw(st.integers(0, len(names) - 1))
    work = tmp_path_factory.getbasetemp() / "damaged"
    work.mkdir(exist_ok=True)
    paths = []
    for i, name in enumerate(names):
        path = work / f"input{i}.json"
        path.write_text(_damaged(data, DOCUMENTS[name]) if i == damaged
                        else json.dumps(DOCUMENTS[name]), encoding="utf-8")
        paths.append(str(path))
    argv = template.format(*paths).split()
    if takes_json and data.draw(st.booleans()):
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):  # one line on stderr, and nothing on stdout
        prefix = "input error: " if code == 2 else "resource cap: "
        assert out.getvalue() == "" and err.getvalue().startswith(prefix), argv
        assert err.getvalue().count("\n") == 1, argv
