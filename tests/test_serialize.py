from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import from_rows, matrices
from leibniz_kit import adjoint_rep, betti, build_lie2, trivial_rep
from leibniz_kit.fixtures import (
    corpus,
    graph_for,
    heisenberg3,
    l2_algebra,
)
from leibniz_kit.algebra import dense
from leibniz_kit.linalg import sparse_tensor
from leibniz_kit.serialize import (
    SCHEMA,
    SchemaError,
    algebra_from_json,
    algebra_to_json,
    betti_to_json,
    comparison_to_json,
    graph_from_json,
    graph_to_json,
    lie2_to_json,
    read_json,
    representation_from_json,
    representation_to_json,
    str_to_scalar,
    tensor_from_json,
    tensor_to_json,
    write_json,
)

F = Fraction
REPO_ROOT = Path(__file__).resolve().parent.parent


def test_scalar_format():
    t = sparse_tensor({(0,): F(3), (1,): F(-1, 2)}, (3,), "t")
    assert tensor_to_json(t) == ["3", "-1/2", "0"]
    assert str_to_scalar("3") == F(3)
    assert str_to_scalar("-1/2") == F(-1, 2)
    assert str_to_scalar(4) == F(4)
    assert str_to_scalar("2/4") == F(1, 2)   # canonicalized on parse


@pytest.mark.parametrize("bad", ["1.5", "a/b", "1/0", "1/-2", "", "0x2", None, 1.5])
def test_scalar_rejects_non_rational_strings(bad):
    with pytest.raises(SchemaError):
        str_to_scalar(bad)


def test_a_long_or_deep_bad_scalar_is_echoed_by_its_type_and_a_prefix():
    # the whole value was echoed: 5,077 bytes for a long string, and 1,876
    # for a list nested 900 deep; a value of at most 64 characters is echoed
    # as it was
    refused = "scalar: expected an integer or 'p/q' string, got "
    deep = json.loads("[" * 900 + "]" * 900)
    for bad in ("x" * 5000, deep, {"k" * 80: 1}, ["1/2"] * 30):
        with pytest.raises(SchemaError) as caught:
            str_to_scalar(bad)
        assert str(caught.value) == f"{refused}a {type(bad).__name__} beginning {repr(bad)[:64]} ..."
    for bad in ("x" * 62, [[]] * 10, {"a": [None, True]}):
        with pytest.raises(SchemaError) as caught:
            str_to_scalar(bad)
        assert str(caught.value) == refused + repr(bad)
    with pytest.raises(SchemaError) as caught:
        algebra_from_json({"schema": "x" * 5000, "dim": 0, "c": []})
    assert str(caught.value) == ("algebra: unsupported schema a str beginning '" + "x" * 63
                                 + f" ... (expected {SCHEMA!r})")


def test_algebra_round_trip():
    g = heisenberg3()
    doc = algebra_to_json(g)
    assert doc["schema"] == SCHEMA
    assert algebra_from_json(json.loads(json.dumps(doc))).c == g.c


def test_representation_round_trip():
    g = l2_algebra()
    rep = adjoint_rep(g)
    doc = representation_to_json(rep)
    back = representation_from_json(g, json.loads(json.dumps(doc)))
    assert back.l == rep.l and back.r == rep.r


def test_graph_round_trip():
    phi = graph_for(heisenberg3())
    back = graph_from_json(json.loads(json.dumps(graph_to_json(phi))))
    assert back.phi == phi.phi


def test_algebra_schema_errors():
    with pytest.raises(SchemaError):
        algebra_from_json({"dim": 1, "c": [[["0"]]]})          # missing schema
    with pytest.raises(SchemaError):
        algebra_from_json({"schema": "other/9", "dim": 0, "c": []})
    with pytest.raises(SchemaError):
        algebra_from_json({"schema": SCHEMA, "dim": 2, "c": [[["0", "0"]]]})
    with pytest.raises(SchemaError):
        algebra_from_json({"schema": SCHEMA, "dim": -1, "c": []})
    with pytest.raises(SchemaError):
        algebra_from_json({"schema": SCHEMA, "dim": 1, "c": [[["0.5"]]]})
    # a refused scalar is named by its full path, wherever it sits
    c = [[["0", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]
    c[1][0][1] = "0.5"
    with pytest.raises(SchemaError) as caught:
        algebra_from_json({"schema": SCHEMA, "dim": 2, "c": c})
    assert str(caught.value) == ("algebra.c[1][0][1]: expected an integer or 'p/q' "
                                 "string, got '0.5'")
    # a bad string is never remembered as read: every repeat is refused too,
    # and so is a float equal to an integer already read
    for c in ([[["x", "x"], ["x", "x"]], [["x", "x"], ["x", "x"]]],
              [[["1", "1"], ["1", "1"]], [["1", "1"], ["1", 1.0]]],
              [[[1, 1], [1, 1]], [[1, 1], [1, 1.0]]]):
        with pytest.raises(SchemaError, match="expected an integer"):
            algebra_from_json({"schema": SCHEMA, "dim": 2, "c": c})


def test_scalars_read_once_per_document_keep_their_values():
    doc = {"schema": SCHEMA, "dim": 2,
           "c": [[["2/4", "1/2"], ["-0", "3"]], [[0, "+3"], ["1/2", "2/4"]]]}
    c = dense(algebra_from_json(doc).c, (2,) * 3)
    assert c[0][0] == (Fraction(1, 2),) * 2 == c[1][1]
    assert c[0][1] == (0, 3) == c[1][0]
    rep = representation_from_json(l2_algebra(), {
        "schema": SCHEMA, "vdim": 1, "l": [[["2/4"]], [["0"]]], "r": [[["1/2"]], [["0/7"]]]})
    assert matrices(rep.l)[0] == matrices(rep.r)[0] == from_rows([[Fraction(1, 2)]])
    with pytest.raises(SchemaError) as caught:
        representation_from_json(l2_algebra(), {
            "schema": SCHEMA, "vdim": 1, "l": [[["1"]], [["1"]]], "r": [[["1"]], [["1/0"]]]})
    assert str(caught.value) == ("representation.r[1][0][0]: expected an integer or "
                                 "'p/q' string, got '1/0'")


@pytest.mark.parametrize("flag", [True, False])
def test_json_booleans_are_not_scalars(flag):
    # JSON true and false arrive as Python bools, which are ints; every
    # reader refuses them with the path of the value
    refused = f"expected an integer or 'p/q' string, got {flag}"
    with pytest.raises(SchemaError) as caught:
        algebra_from_json({"schema": SCHEMA, "dim": 1, "c": [[[flag]]]})
    assert str(caught.value) == f"algebra.c[0][0][0]: {refused}"
    with pytest.raises(SchemaError) as caught:
        representation_from_json(l2_algebra(), {
            "schema": SCHEMA, "vdim": 1, "l": [[["0"]], [["0"]]], "r": [[["0"]], [[flag]]]})
    assert str(caught.value) == f"representation.r[1][0][0]: {refused}"
    with pytest.raises(SchemaError) as caught:
        graph_from_json({"schema": SCHEMA, "vdim": 1, "phi": [[[flag]]]})
    assert str(caught.value) == f"graph map.phi[0][0][0]: {refused}"
    with pytest.raises(SchemaError) as caught:
        str_to_scalar(flag)
    assert str(caught.value) == f"scalar: {refused}"


def _tensors():
    """A shape of one to four axes, zero-length axes included, and a tensor
    of that shape from up to eight drawn entries, explicit zeros included."""
    def of_shape(shape):
        if not all(shape):
            return st.tuples(st.just(shape), st.just({}))
        keys = st.tuples(*(st.integers(0, d - 1) for d in shape))
        values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        return st.tuples(st.just(shape), st.dictionaries(keys, values, max_size=8))
    shapes = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
    return shapes.flatmap(of_shape)


@settings(max_examples=150, deadline=None)
@given(_tensors())
def test_tensor_from_json_inverts_tensor_to_json(case):
    shape, entries = case
    t = sparse_tensor(entries, shape, "drawn")
    for doc in (tensor_to_json(t), json.loads(json.dumps(tensor_to_json(t)))):
        back = tensor_from_json(doc, shape)
        assert back == t and list(back.keys()) == list(t.keys())


def _corrupted(doc: dict, path: tuple, value) -> dict:
    """A copy of doc with the entry at path (a key, then list indices)
    replaced by value."""
    out = copy.deepcopy(doc)
    target = out
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return out


# (reader, a valid document, the key of one of its tensors, the path that
# names that tensor in a refusal)
TENSOR_READERS = [
    (algebra_from_json, algebra_to_json(heisenberg3()), "c", "algebra.c"),
    (lambda doc: representation_from_json(l2_algebra(), doc),
     representation_to_json(adjoint_rep(l2_algebra())), "r", "representation.r"),
    (graph_from_json, graph_to_json(graph_for(heisenberg3())), "phi", "graph map.phi"),
]


@pytest.mark.parametrize("index", range(len(TENSOR_READERS)))
def test_malformed_tensors_are_refused_with_their_path_at_every_depth(index):
    # along the last index at every depth: a list one too short, one too
    # long, or no list at all is refused with the path of that list; at the
    # bottom a bad scalar, a JSON true or false, a float or a null with its own
    read, doc, key, where = TENSOR_READERS[index]
    read(doc)  # the document itself is valid
    path, node = (key,), doc[key]
    while True:
        for bad in (node[:-1], node + node[-1:], "0"):
            with pytest.raises(SchemaError) as caught:
                read(_corrupted(doc, path, bad))
            assert str(caught.value) == f"{where}: expected a list of length {len(node)}"
        last = len(node) - 1
        path, where, node = path + (last,), f"{where}[{last}]", node[last]
        if not isinstance(node, list):
            break
    for bad in ("x", "1/0", True, False, 1.5, None):
        with pytest.raises(SchemaError) as caught:
            read(_corrupted(doc, path, bad))
        assert str(caught.value) == f"{where}: expected an integer or 'p/q' string, got {bad!r}"


def test_representation_schema_errors():
    g = l2_algebra()
    with pytest.raises(SchemaError):
        representation_from_json(g, {"schema": SCHEMA, "vdim": 1, "l": []})
    with pytest.raises(SchemaError):
        representation_from_json(g, {"schema": SCHEMA, "vdim": 1,
                                     "l": [[["0"]]], "r": [[["0"]]]})


def test_lie2_document_shape():
    doc = lie2_to_json(build_lie2(l2_algebra()))
    assert doc["schema"] == SCHEMA
    assert doc["dim1"] == 1 and doc["dim0"] == 2
    assert doc["l1"] == [["0"], ["1"]]
    assert len(doc["l2_00"]) == 2
    assert len(doc["l3"]) == 2 and len(doc["l3"][0][0][0]) == 1


def test_betti_document_golden():
    report = betti(trivial_rep(l2_algebra()), 2)
    assert betti_to_json(report) == {
        "schema": SCHEMA,
        "degrees": [
            {"k": 0, "dim_C": 1, "rank_d": 0, "dim_ker": 1, "dim_H": 1},
            {"k": 1, "dim_C": 2, "rank_d": 1, "dim_ker": 1, "dim_H": 1},
            {"k": 2, "dim_C": 4, "rank_d": 2, "dim_ker": 2, "dim_H": 1},
        ],
    }


def test_comparison_document_shape():
    from leibniz_kit import compare_trivial
    doc = comparison_to_json(compare_trivial(l2_algebra(), 2))
    assert doc["schema"] == SCHEMA
    assert doc["degrees"][0]["informational"] is True
    assert "informational" not in doc["degrees"][1]
    assert doc["all_equal_from_degree_1"] is True
    assert doc["side_checks_ok"] is True


def _normalize(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True)


def test_repo_fixture_directory_matches_builders():
    built = corpus()
    fdir = REPO_ROOT / "fixtures"
    names = sorted(p.name for p in fdir.iterdir() if p.name.endswith(".json"))
    assert names == sorted(built)
    for name in names:
        on_disk = json.loads((fdir / name).read_text(encoding="utf-8"))
        assert _normalize(on_disk) == _normalize(built[name]), name


def test_fixture_files_are_the_writer_bytes_and_read_back():
    # write_json is the one writer: each fixture file is its text and a
    # newline, and read_json gives back the built document
    built = corpus()
    for name, doc in built.items():
        raw = (REPO_ROOT / "fixtures" / name).read_bytes()
        assert raw == (write_json(doc) + "\n").encode("utf-8"), name
        assert read_json(raw, name) == doc, name


@pytest.mark.parametrize("raw, message", [
    (b'{"a": 1, "a": 2}', "src: repeated key 'a'"),
    (b"[" * 3000 + b"]" * 3000, "src: not valid JSON (nested too deeply)"),
    (b"\xff", "src: not valid JSON ("),
    (b"{", "src: not valid JSON ("),
    (b"1" * 5000, "src: an integer literal of more than "),
], ids=["repeated-key", "deep", "not-utf8", "truncated", "long-integer"])
def test_read_json_refuses_with_the_label(raw, message):
    with pytest.raises(SchemaError) as info:
        read_json(raw, "src")
    assert str(info.value).startswith(message)
