"""Tests of the benchmark's own code: input generators and span arithmetic.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from leibniz_kit import LeibnizAlgebra, adjoint_rep, betti, check_leibniz  # noqa: E402
from leibniz_kit import fixtures as corpus  # noqa: E402


def _constants(name: str) -> list:
    return [[list(row) for row in plane] for plane in corpus.algebra(name).c]


def _betti(c: list, k_max: int) -> list:
    report = betti(adjoint_rep(LeibnizAlgebra(len(c), c)), k_max)
    return [d.dim_h for d in report.degrees]


def _random_order(n: int, rng: random.Random) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


@pytest.mark.parametrize("name", ["L2", "heis3", "sl2", "omni2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_signed_permutation_gives_leibniz_algebra_with_same_nnz(name, seed):
    c = _constants(name)
    rng = random.Random(seed)
    b = gen.signed_permutation(_random_order(len(c), rng), gen.random_signs(len(c), rng))
    out = gen.transport(c, b)
    assert gen.nnz(out) == gen.nnz(c)
    magnitudes = sorted(abs(x) for plane in c for row in plane for x in row)
    assert sorted(abs(x) for plane in out for row in plane for x in row) == magnitudes
    assert check_leibniz(LeibnizAlgebra(len(out), out)).holds


@pytest.mark.parametrize("name", ["L2", "heis3", "sl2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_transport_gives_dense_leibniz_algebra(name, seed):
    c = _constants(name)
    b = gen.dense_transport(c, random.Random(seed))
    assert all(x in gen.DENSE_ENTRIES for row in b for x in row)
    out = gen.transport(c, b)
    assert gen.is_dense(out) and gen.nnz(out) > gen.nnz(c)
    assert check_leibniz(LeibnizAlgebra(len(out), out)).holds


def test_inverse_is_exact_and_detects_singular():
    b = [[gen.Fraction(2), gen.Fraction(1, 2)], [gen.Fraction(-3, 2), gen.Fraction(1)]]
    inv = gen.inverse(b)
    prod = [[sum(b[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    assert gen.inverse([[gen.Fraction(1), gen.Fraction(2)],
                        [gen.Fraction(2), gen.Fraction(4)]]) is None


@pytest.mark.parametrize("name", ["L2", "heis3"])
def test_transport_preserves_betti_numbers(name):
    c = _constants(name)
    expected = _betti(c, 2)
    rng = random.Random(7)
    perm = gen.signed_permutation(_random_order(len(c), rng), gen.random_signs(len(c), rng))
    assert _betti(gen.transport(c, perm), 2) == expected
    assert _betti(gen.transport(c, gen.dense_transport(c, rng)), 2) == expected


@pytest.mark.parametrize("name", ["sl2", "heis3"])
def test_pinned_betti_numbers_hold_on_the_fixtures(name):
    assert _betti(_constants(name), 3) == run.BETTI_ADJOINT_3[name]


def test_self_times_subtract_direct_children_only():
    # root [0, 10] holds a [1, 5] and b [6, 9]; a holds c [2, 4].
    records = [["cli.main", 0.0, 10.0, None, None],
               ["omni.a", 1.0, 5.0, 0, None],
               ["linalg.c", 2.0, 4.0, 1, None],
               ["cohomology.b", 6.0, 9.0, 0, None]]
    assert spans.self_times(records) == [3.0, 2.0, 2.0, 3.0]


def test_layer_totals_sum_over_commands_and_report_absent_functions():
    commands = [
        {"command": "0.0", "absent": [], "spans": [
            ["cli.main", 0.0, 4.0, None, None],
            ["linalg.rank", 1.0, 3.0, 0, {"nnz_in": 10, "value": 2}],
            ["linalg.rref", 1.5, 2.5, 1, {"nnz_in": 10, "nnz_out": 15}]]},
        {"command": "0.1", "absent": ["omni.naive_coboundary"], "spans": [
            ["cli.main", 0.0, 1.0, None, None],
            ["linalg.rank", 0.25, 0.75, 0, {"nnz_in": 6, "value": 1}]]},
    ]
    totals = spans.layer_totals(commands)
    assert totals["module"] == {"cli": 2.5, "linalg": 2.5}
    assert spans.span_metric(totals, "linalg.s") == 2.5
    assert spans.span_metric(totals, "linalg.rank.calls") == 2
    assert spans.span_metric(totals, "linalg.rank.s") == 1.5
    assert spans.span_metric(totals, "linalg.rank.value") == 3
    assert spans.span_metric(totals, "linalg.rref.fill") == 1.5
    assert spans.span_metric(totals, "lie2.verify_lie2.s") == 0
    assert spans.span_metric(totals, "omni.naive_coboundary.calls") is None
    assert spans.span_metric(totals, "omni.s") == 0.0


def test_every_span_metric_names_a_traced_function():
    for name in spans.SPAN_METRICS:
        parts = name.split(".")
        assert parts[0] in spans.TRACED
        if len(parts) == 3:
            assert parts[1] in spans.TRACED[parts[0]]


def _launch(tmp_path, prelude: str, cli_args: list):
    spans_file = tmp_path / "spans.json"
    code = (f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
            f"import launch, spans\n{prelude}\n"
            f"sys.exit(launch.main([{str(spans_file)!r}, 'c1', '--', *{cli_args!r}]))")
    ran = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         cwd=tmp_path, timeout=120)
    return ran, json.loads(spans_file.read_text())


def test_launcher_records_nested_spans(tmp_path):
    path = tmp_path / "heis3.json"
    path.write_text(json.dumps(corpus.corpus()["heis3.json"]))
    ran, record = _launch(tmp_path, "", ["cohomology", str(path), "--rep", "adjoint",
                                         "--max-degree", "2", "--json"])
    assert ran.returncode == 0
    assert record["command"] == "c1" and record["absent"] == []
    names = [s[0] for s in record["spans"]]
    assert names[0] == "cli.main" and record["spans"][0][3] is None
    assert "serialize.algebra_from_json" in names
    # rank is bound in cohomology as well as in linalg; the cohomology call
    # site must be seen, nested under betti.
    ranks = [s for s in record["spans"] if s[0] == "linalg.rank"]
    assert len(ranks) == 3
    assert all(record["spans"][s[3]][0] == "cohomology.betti" for s in ranks)
    assert all(s[4]["value"] >= 0 for s in ranks)
    for name, start, end, parent, _ in record["spans"]:
        assert start <= end
        if parent is not None:
            assert record["spans"][parent][1] <= start <= end <= record["spans"][parent][2]


def test_launcher_tolerates_absent_functions(tmp_path):
    path = tmp_path / "L2.json"
    path.write_text(json.dumps(corpus.corpus()["L2.json"]))
    prelude = ("spans.TRACED['omni'] = spans.TRACED['omni'] + ('no_such_function',)\n"
               "spans.TRACED['gone'] = ('anything',)")
    ran, record = _launch(tmp_path, prelude, ["check", str(path)])
    assert ran.returncode == 0, ran.stderr
    assert set(record["absent"]) == {"omni.no_such_function", "gone.anything"}


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_METRICS
    assert {m["name"] for m in doc["end_to_end"]} == {"pass_s", "cpu_s", "setup_s",
                                                      "peak_rss_mb"}


def test_output_checks_reject_wrong_answers():
    betti = {"status": "pass", "results": {"betti": {"degrees": [
        {"dim_H": h} for h in run.BETTI_ADJOINT_3["heis3"]]}}}
    assert run.output_ok(run._betti_ok(run.BETTI_ADJOINT_3["heis3"]), 0, json.dumps(betti))
    assert not run.output_ok(run._betti_ok(run.BETTI_ADJOINT_3["sl2"]), 0, json.dumps(betti))
    assert not run.output_ok(run._betti_ok(run.BETTI_ADJOINT_3["heis3"]), 3, json.dumps(betti))
    assert not run.output_ok(run._betti_ok([0]), 0, b"not json")

    rows = [{"k": k, "dim_naive": d, "dim_classical": d, "equal": True}
            for k, d in enumerate(run.COMPARE_OMNI2_2)]
    compare = {"status": "pass", "results": {"comparison": {
        "degrees": rows, "all_equal_from_degree_1": True, "side_checks_ok": True}}}
    assert run.output_ok(run._compare_ok, 0, json.dumps(compare))
    compare["results"]["comparison"]["side_checks_ok"] = False
    assert not run.output_ok(run._compare_ok, 0, json.dumps(compare))

    lie2 = {"status": "pass", "results": {"jacobiator_identities": True,
                                          "axioms": dict.fromkeys("abcde", True),
                                          **run.LIE2_OMNI3}}
    assert run.output_ok(run._lie2_ok, 0, json.dumps(lie2))
    lie2["results"]["axioms"]["e"] = False
    assert not run.output_ok(run._lie2_ok, 0, json.dumps(lie2))

    check = {"status": "pass", "results": {"leibniz": True, **run.CHECK_OMNI4}}
    assert run.output_ok(run._check_omni4_ok, 0, json.dumps(check))
    check["results"]["derived_dim"] = 18
    assert not run.output_ok(run._check_omni4_ok, 0, json.dumps(check))
