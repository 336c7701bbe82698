from __future__ import annotations

import hashlib
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import leibniz_kit.cli as cli
import leibniz_kit.cohomology as cohomology_module
import leibniz_kit.omni as omni_module
from leibniz_kit import fixtures as corpus
from leibniz_kit.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"


def run_cli(*args, stdin: bytes = b"", env_extra=None):
    import os
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "leibniz_kit", *args],
                          input=stdin, capture_output=True, env=env)


def test_check_passes_on_fixture(capsys):
    assert main(["check", str(FIXTURES / "abelian2.json")]) == 0
    out = capsys.readouterr().out
    assert "Leibniz identity: ok" in out
    assert "left center: dim 2" in out
    assert "Lie algebra: yes" in out


def test_check_l2_summary(capsys):
    assert main(["check", str(FIXTURES / "L2.json")]) == 0
    out = capsys.readouterr().out
    assert "left center: dim 1" in out
    assert "derived subalgebra: dim 1" in out
    assert "Lie algebra: no" in out


def test_check_fails_on_negative(capsys):
    assert main(["check", str(FIXTURES / "nonleibniz.json")]) == 1
    out = capsys.readouterr().out
    assert "witness" in out


@pytest.mark.parametrize("argv", [("check", f"fixtures/{name}.json")
                                  for name in corpus.negative_algebra_names()]
                         + [("graph", "fixtures/graph_bad.json")], ids=" ".join)
def test_every_failed_check_is_followed_by_its_first_witnesses(argv, monkeypatch, capsys):
    # the squares check of check once said FAILED with no witness after it
    monkeypatch.chdir(REPO_ROOT)
    assert main(list(argv)) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [i for i, line in enumerate(lines) if line.endswith(": FAILED")]
    assert failed
    witness, more = re.compile(r"  witness \S+ at .+: .+"), re.compile(r"  \.\.\. and [1-9]\d* more")
    for i in failed:
        block = list(itertools.takewhile(lambda line: line.startswith("  "), lines[i + 1:]))
        shown = list(itertools.takewhile(witness.fullmatch, block))
        rest = block[len(shown):]
        assert 1 <= len(shown) <= 5, lines[i]
        assert rest == [] or (len(shown) == 5 and len(rest) == 1 and more.fullmatch(rest[0])), lines[i]


def test_the_witness_tail_counts_the_witnesses_not_shown(tmp_path, capsys):
    # [e_i, e_j] = e_0 + e_1 fails both identities on all 8 triples, with
    # defects -2 (e_0 + e_1) and 4 (e_0 + e_1): 5 witnesses and "... and 3 more"
    doc = tmp_path / "ones.json"
    doc.write_text(json.dumps({"schema": "leibniz-kit/1", "dim": 2, "c": [[[1, 1]] * 2] * 2}),
                   encoding="utf-8")
    assert main(["check", str(doc)]) == 1
    lines = capsys.readouterr().out.splitlines()
    for label, defect in (("leibniz", "(-2, -2)"), ("square-center", "(4, 4)")):
        i = lines.index(f"  witness {label} at (0, 0, 0): {defect}")
        assert lines[i + 4:i + 6] == [f"  witness {label} at (1, 0, 0): {defect}",
                                      "  ... and 3 more"], label


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing)]) == 2


def test_schema_error_exit_code(tmp_path):
    doc = tmp_path / "wrong.json"
    doc.write_text(json.dumps({"schema": "leibniz-kit/1", "dim": 2, "c": []}),
                   encoding="utf-8")
    assert main(["check", str(doc)]) == 2


def test_resource_cap_exit_code():
    result = run_cli("cohomology", str(FIXTURES / "omni2.json"),
                     "--rep", "adjoint", "--max-degree", "3",
                     env_extra={"LEIBNIZ_KIT_CAP": "100"})
    assert result.returncode == 3
    assert b"resource cap" in result.stderr
    assert b"7776" in result.stderr or b"dimension" in result.stderr


def test_over_cap_degree_refused_with_the_same_line():
    # degree 13 of L2 adjoint is over the default cap; the refusal comes
    # before degree 0 is built, with the line it has always had
    import os
    env = {k: v for k, v in os.environ.items() if k != "LEIBNIZ_KIT_CAP"}
    result = subprocess.run([sys.executable, "-m", "leibniz_kit", "cohomology",
                             str(FIXTURES / "L2.json"), "--rep", "adjoint",
                             "--max-degree", "13"], capture_output=True, env=env)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == (b"resource cap: cochain space of dimension 32768 exceeds "
                             b"cap 20000 (override with LEIBNIZ_KIT_CAP)\n")


@pytest.mark.parametrize("mode", ["--naive", "--compare"])
def test_adjoint_naive_is_not_built_past_the_cap(monkeypatch, capsys, mode):
    # heis3 adjoint to degree 2 needs 3^3 * 3 = 81 target rows on both sides;
    # under a cap of 80 both modes refuse before building the naive side
    def refuse(*args):
        raise RuntimeError("the adjoint naive representation was built")

    monkeypatch.setattr(omni_module, "adjoint_naive", refuse)
    monkeypatch.setenv("LEIBNIZ_KIT_CAP", "80")
    assert main(["cohomology", str(FIXTURES / "heis3.json"), "--rep", "adjoint",
                 "--max-degree", "2", mode]) == 3
    assert capsys.readouterr().err == ("resource cap: cochain space of dimension 81 exceeds "
                                       "cap 80 (override with LEIBNIZ_KIT_CAP)\n")


def test_lie2_command(capsys):
    assert main(["lie2", str(FIXTURES / "heis3.json")]) == 0
    out = capsys.readouterr().out
    assert "axiom (e): ok" in out


def test_plain_lie2_builds_no_json(monkeypatch, capsys):
    # the JSON form of the Lie 2-algebra is built only when it is printed
    built = []
    monkeypatch.setattr(cli, "lie2_to_json", lambda L: built.append(L) or {})
    assert main(["lie2", str(FIXTURES / "L2.json")]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok\n") == 6 and out.endswith("\nok\n")
    assert built == []
    assert main(["lie2", str(FIXTURES / "L2.json"), "--json"]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("name, dims", [("L2", [1, 1, 1]), ("heis3", [2, 4, 10]),
                                        ("sl2", [0, 0, 0])])
def test_naive_cohomology_of_a_representation_file(capsys, name, dims):
    # --naive with a file goes through naive_from_rep and conjugation_rep
    assert main(["cohomology", str(FIXTURES / f"{name}.json"),
                 "--rep", str(FIXTURES / f"rep_adjoint_{name}.json"),
                 "--naive", "--max-degree", "2", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert [d["dim_H"] for d in report["results"]["naive_betti"]["degrees"]] == dims


def test_lie2_rejects_non_leibniz(capsys):
    assert main(["lie2", str(FIXTURES / "nonleibniz.json")]) == 1
    assert capsys.readouterr().out == f"FAILED: {REFUSAL}\n"


def test_cohomology_table(capsys):
    assert main(["cohomology", str(FIXTURES / "abelian2.json"),
                 "--rep", "trivial", "--max-degree", "3"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.strip() and
            line.strip()[0].isdigit()]
    assert [r[-1] for r in rows] == ["1", "2", "4", "8"]


def test_cohomology_compare(capsys):
    assert main(["cohomology", str(FIXTURES / "L2.json"),
                 "--rep", "adjoint", "--compare", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "informational" in out
    assert "false" not in out


def test_cohomology_compare_trivial_sl2(capsys):
    assert main(["cohomology", str(FIXTURES / "sl2.json"),
                 "--rep", "trivial", "--compare", "--max-degree", "3"]) == 0


def test_cohomology_naive(capsys):
    assert main(["cohomology", str(FIXTURES / "L2.json"),
                 "--rep", "adjoint", "--naive", "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "naive cohomology" in out


def test_cohomology_rep_file(capsys):
    assert main(["cohomology", str(FIXTURES / "heis3.json"),
                 "--rep", str(FIXTURES / "rep_adjoint_heis3.json"),
                 "--max-degree", "2"]) == 0


def test_cohomology_rejects_bad_rep(capsys):
    assert main(["cohomology", str(FIXTURES / "L2.json"),
                 "--rep", str(FIXTURES / "rep_bad_L2.json"),
                 "--max-degree", "1"]) == 1


def test_mc_command(capsys):
    assert main(["mc", str(FIXTURES / "L2.json"),
                 str(FIXTURES / "rep_adjoint_L2.json")]) == 0
    out = capsys.readouterr().out
    assert "Maurer-Cartan identity: ok" in out


def test_json_booleans_are_refused_exit_2(tmp_path, capsys):
    # true is no 1: [e1, e1] = e1 written with true used to be read and fail
    # the Leibniz check (exit 1), and a representation holding false passed
    algebra = tmp_path / "A.json"
    algebra.write_text('{"schema": "leibniz-kit/1", "dim": 1, "c": [[[true]]]}', encoding="utf-8")
    assert main(["check", str(algebra)]) == 2
    assert capsys.readouterr().err == ("input error: algebra.c[0][0][0]: expected an integer "
                                       "or 'p/q' string, got True\n")
    rep = tmp_path / "R.json"
    rep.write_text(json.dumps({"schema": "leibniz-kit/1", "vdim": 1, "l": [[["0"]], [["0"]]],
                               "r": [[[False]], [["0"]]]}), encoding="utf-8")
    assert main(["mc", str(FIXTURES / "L2.json"), str(rep)]) == 2
    assert capsys.readouterr().err == ("input error: representation.r[0][0][0]: expected an "
                                       "integer or 'p/q' string, got False\n")


@pytest.fixture
def nonleibniz_trivial_rep(tmp_path):
    """The trivial representation of the non-Leibniz fixture, as a file; it
    passes the representation conditions, which never see [e1, e1] = e1."""
    from leibniz_kit import trivial_rep
    from leibniz_kit.fixtures import nonleibniz
    from leibniz_kit.serialize import representation_to_json
    path = tmp_path / "R.json"
    path.write_text(json.dumps(representation_to_json(trivial_rep(nonleibniz()))),
                    encoding="utf-8")
    return path


REFUSAL = "input is not a Leibniz algebra; first witness at (0, 0, 0)"


def _document(tmp_path, text: str) -> str:
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("mode", [[], ["--naive"], ["--compare"]],
                         ids=["classical", "naive", "compare"])
@pytest.mark.parametrize("dim, rep", [(0, "adjoint"), (0, "trivial"), (1, "adjoint"),
                                      (1, "trivial")])
def test_a_degree_count_over_the_cap_exits_3_at_once(tmp_path, monkeypatch, capsys,
                                                     dim, rep, mode):
    # on dim 0 and dim 1 the rows n^(k+1) m never pass the cap, and a run
    # to degree 10^8 went on until a timeout killed it; the degrees
    # themselves weigh max(m, 1) (K+1)(K+2)/2 against the cap, before any
    # is built.  Dim 0 with --rep trivial --naive has the zero complex only.
    def refuse(*args):
        raise RuntimeError("a coboundary was built")

    monkeypatch.setattr(cohomology_module, "coboundary_columns", refuse)
    monkeypatch.delenv("LEIBNIZ_KIT_CAP", raising=False)
    path = _document(tmp_path, json.dumps({"schema": "leibniz-kit/1", "dim": dim,
                                           "c": [[["0"]]] if dim else []}))
    code = main(["cohomology", path, "--rep", rep, "--max-degree", "100000000", *mode])
    out, err = capsys.readouterr()
    if (dim, rep, mode) == (0, "trivial", ["--naive"]):
        assert (code, err) == (0, "")
        assert "the naive complex is zero" in out
        return
    assert (code, out) == (3, "")
    assert err == ("resource cap: the 100000001 degrees 0..100000000, of weight max(m, 1) "
                   "(k_max+1)(k_max+2)/2 = 5000000150000001 exceeds cap 20000 "
                   "(override with LEIBNIZ_KIT_CAP)\n")


@pytest.mark.parametrize("vdim, mode", [(0, []), (0, ["--naive"]), (1, ["--naive"])],
                         ids=["vdim0", "vdim0-naive", "zero-rep-naive"])
def test_a_zero_module_on_l2_finishes_degree_40(tmp_path, vdim, mode):
    # with m = 0 (a vdim-0 module, or the zero image of the zero
    # representation) every degree has no columns, but its 2^k tuples were
    # still walked: degree 40 ran for hours, under a degree weight of 861
    zeros = [[["0"] * vdim for _ in range(vdim)] for _ in range(2)]
    path = _document(tmp_path, json.dumps({"schema": "leibniz-kit/1", "vdim": vdim,
                                           "l": zeros, "r": zeros}))
    result = subprocess.run([sys.executable, "-m", "leibniz_kit", "cohomology",
                             str(FIXTURES / "L2.json"), "--rep", path,
                             "--max-degree", "40", *mode], capture_output=True, timeout=10)
    assert (result.returncode, result.stderr) == (0, b"")
    table = result.stdout.decode().splitlines()[2:-1]
    assert [line.split() for line in table] == [[str(k), "0", "0", "0", "0"] for k in range(41)]


def test_deeply_nested_json_exits_2_naming_its_source(tmp_path, capsys):
    # json.loads raised an uncaught RecursionError: a traceback and exit 1
    path = _document(tmp_path, "[" * 3000 + "]" * 3000)
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"input error: {path}: not valid JSON (nested too deeply)\n"


def test_a_deeply_nested_scalar_exits_2_with_a_short_line(tmp_path, capsys):
    # the whole value was echoed, a line of 1,876 bytes
    deep = "[" * 900 + "]" * 900
    path = _document(tmp_path, '{"schema": "leibniz-kit/1", "dim": 1, "c": [[[' + deep + "]]]}")
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == ("input error: algebra.c[0][0][0]: expected an integer or "
                                       f"'p/q' string, got a list beginning {'[' * 64} ...\n")


def test_a_repeated_key_exits_2_naming_the_key(tmp_path, capsys):
    # the last "dim" was read without a word, and this document passed
    path = _document(tmp_path, '{"schema": "leibniz-kit/1", "dim": 2, "dim": 1, "c": [[["0"]]]}')
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"input error: {path}: repeated key 'dim'\n"


def test_a_long_repeated_key_exits_2_with_a_short_line(tmp_path, monkeypatch, capsys):
    # the whole key was echoed, a line of 5,038 bytes
    key = "k" * 5000
    _document(tmp_path, '{"schema": "leibniz-kit/1", "' + key + '": 1, "' + key + '": 2}')
    monkeypatch.chdir(tmp_path)
    assert main(["check", "doc.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: doc.json: repeated key a str beginning 'kkk")
    assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200


def test_a_long_non_integer_cap_exits_2_with_a_short_line(monkeypatch, capsys):
    # the whole value was echoed, a line of 3,056 bytes
    monkeypatch.setenv("LEIBNIZ_KIT_CAP", "x" * 3000)
    assert main(["cohomology", str(FIXTURES / "L2.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: LEIBNIZ_KIT_CAP must be an integer, got a str beginning 'xxx")
    assert err.count("\n") == 1 and len(err.encode("utf-8")) < 200


@pytest.mark.parametrize("raw", ["0", "-1"])
def test_a_cap_that_is_not_positive_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("LEIBNIZ_KIT_CAP", raw)
    assert main(["cohomology", str(FIXTURES / "L2.json")]) == 2
    assert capsys.readouterr() == ("", "input error: LEIBNIZ_KIT_CAP must be positive\n")


@pytest.mark.parametrize("scalar", ["1" * 5000, "-1/" + "7" * 5000], ids=["integer", "fraction"])
def test_an_oversized_scalar_exits_2_with_its_path(tmp_path, capsys, scalar):
    # Python's "Exceeds the limit (4300 digits)" message came without a path
    path = _document(tmp_path, json.dumps({"schema": "leibniz-kit/1", "dim": 1,
                                           "c": [[[scalar]]]}))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == (
        f"input error: algebra.c[0][0][0]: a scalar of {len(scalar)} characters, with more "
        f"than {sys.get_int_max_str_digits()} digits in a numerator or denominator\n")


@pytest.mark.parametrize("field", ["dim", "c"])
def test_an_oversized_integer_literal_exits_2_naming_its_source(tmp_path, capsys, field):
    literal = "9" * 5000
    doc = {"schema": "leibniz-kit/1", "dim": 1, "c": [[["0"]]]}
    doc[field] = "LITERAL" if field == "dim" else [[["LITERAL"]]]
    path = _document(tmp_path, json.dumps(doc).replace('"LITERAL"', literal))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == (f"input error: {path}: an integer literal of more "
                                       f"than {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("args, code", [
    (("omni", "--dim", "3"), 0),
    (("lie2", str(FIXTURES / "omni2.json"), "--json"), 0),
    (("check", str(FIXTURES / "nonleibniz.json")), 1),
], ids=["omni", "lie2-json", "failed-check"])
def test_a_closed_stdout_keeps_the_exit_code(args, code):
    # a pipe with no reader left: every write fails with EPIPE, which used to
    # end the run with a BrokenPipeError traceback (or an "Exception
    # ignored" line at exit) and exit 1 or 120
    import os
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "leibniz_kit", *args],
                                stdin=subprocess.DEVNULL, stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (code, b"")


@pytest.mark.parametrize("args, code", [
    (("check", str(FIXTURES / "nonexist.json")), 2),
    (("cohomology", str(FIXTURES / "L2.json"), "--rep", "adjoint", "--max-degree", "13"), 3),
    (("graph", str(FIXTURES / "graph_bad.json"), "--emit-algebra"), 1),
], ids=["input-error", "resource-cap", "failed-graph"])
def test_a_closed_stderr_keeps_the_exit_code(args, code):
    # the refusal line on a stderr with no reader used to raise
    # BrokenPipeError out of main, which ended the run with exit 1
    import os
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-m", "leibniz_kit", *args],
                                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stdout) == (code, b"")


def test_omni_into_head_ends_without_a_traceback():
    # omni --dim 6 | head -n 1: the reader goes after one line of 685 kB
    proc = subprocess.Popen([sys.executable, "-m", "leibniz_kit", "omni", "--dim", "6"],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (0, b"")


def test_mc_refuses_non_leibniz_algebra(nonleibniz_trivial_rep, capsys):
    args = ["mc", str(FIXTURES / "nonleibniz.json"), str(nonleibniz_trivial_rep)]
    assert main(args) == 1
    assert capsys.readouterr().out == f"FAILED: {REFUSAL}\n"
    assert main(args + ["--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["failures"], report["results"]) == ("fail", [REFUSAL], {})


def test_a_fault_is_no_input_error(monkeypatch, capsys):
    # main caught every ValueError as malformed input: this run exited 2
    # with "input error: a fault".  Only a SchemaError is an input error
    def fault(*args):
        raise ValueError("a fault")

    monkeypatch.setattr(cli, "betti", fault)
    with pytest.raises(ValueError, match="^a fault$"):
        main(["cohomology", str(FIXTURES / "L2.json"), "--max-degree", "1"])
    assert capsys.readouterr().err == ""


def test_a_refusal_inside_a_library_call_exits_1(nonleibniz_trivial_rep, monkeypatch, capsys):
    # without the handler's own require, maurer_cartan_check refuses the
    # algebra itself; main reports that Refused as any other refusal
    monkeypatch.setattr(cli, "require", lambda *values: None)
    args = ["mc", str(FIXTURES / "nonleibniz.json"), str(nonleibniz_trivial_rep)]
    assert main(args) == 1
    assert capsys.readouterr() == (f"FAILED: {REFUSAL}\n", "")
    assert main(args + ["--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert (report["status"], report["failures"], report["results"]) == ("fail", [REFUSAL], {})


@pytest.mark.parametrize("mode", ["lr", "l0"])
def test_semidirect_refuses_non_leibniz_algebra(nonleibniz_trivial_rep, mode):
    result = run_cli("semidirect", str(FIXTURES / "nonleibniz.json"),
                     str(nonleibniz_trivial_rep), "--mode", mode)
    assert result.returncode == 1, result.stderr
    assert result.stdout == b""
    assert result.stderr.decode() == f"FAILED: {REFUSAL}\n"


def test_graph_command(capsys):
    assert main(["graph", str(FIXTURES / "graph_L2.json")]) == 0
    assert main(["graph", str(FIXTURES / "graph_bad.json")]) == 1


def test_json_report_structure(capsys):
    assert main(["check", str(FIXTURES / "L2.json"), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "leibniz-kit/1"
    assert report["command"] == "check"
    assert report["status"] == "pass"
    assert report["results"]["left_center_dim"] == 1
    assert len(report["inputs"]) == 1
    assert len(report["inputs"][0]["sha256"]) == 64


def _mask_elapsed(out: str) -> str:
    return re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out)


@pytest.mark.parametrize("args", [
    ("omni", "--dim", "2"),
    ("cohomology", str(FIXTURES / "omni2.json"), "--rep", "adjoint", "--compare",
     "--max-degree", "2", "--json"),
    ("check", str(FIXTURES / "nonleibniz.json")),
    ("check", str(FIXTURES / "nonexist.json")),
    ("check", str(FIXTURES / "L2.json"), "--no-such-flag"),
    ("cohomology", str(FIXTURES / "L2.json"), "--rep", "adjoint", "--max-degree", "13"),
], ids=["omni", "compare-json", "failed-check", "missing-file", "unknown-flag", "over-cap"])
def test_the_entry_gives_what_main_gives(args, capsys):
    # python -m leibniz_kit goes through __main__.run, which freezes the
    # objects before the interpreter exits; the streams and the code are main's
    try:
        code = main(list(args))
    except SystemExit as exc:  # argparse refuses the unknown flag
        code = exc.code
    out, err = capsys.readouterr()
    result = run_cli(*args)
    assert (result.returncode, _mask_elapsed(result.stdout.decode()), result.stderr.decode()) \
        == (code, _mask_elapsed(out), err)


def test_the_script_names_the_entry_that_python_m_calls():
    import ast
    script = re.search(r'^leibniz-kit = "(.+)"$',
                       (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)[1]
    tree = ast.parse((REPO_ROOT / "src" / "leibniz_kit" / "__main__.py").read_text(encoding="utf-8"))
    guard = next(node for node in tree.body if isinstance(node, ast.If))
    called = guard.body[0].value.args[0].func.id  # sys.exit(run())
    assert script == f"leibniz_kit.__main__:{called}" == "leibniz_kit.__main__:run"


def test_importing_the_cli_loads_no_openssl():
    import importlib.util
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in SHA-256 module")
    script = "import sys; import leibniz_kit.cli; print('_hashlib' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr


def _report_of(path: Path) -> list[str]:
    """A --json run that reads ``path``: a graph, a representation of the
    algebra its name ends with, or an algebra."""
    name = path.stem
    if name.startswith("graph_"):
        return ["graph", str(path), "--json"]
    if name.startswith("rep_"):
        algebra = FIXTURES / f"{name.rsplit('_', 1)[1]}.json"
        return ["cohomology", str(algebra), "--rep", str(path), "--max-degree", "0", "--json"]
    return ["check", str(path), "--json"]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")), ids=lambda path: path.stem)
def test_the_report_hashes_each_input_as_hashlib_does(path, capsys):
    main(_report_of(path))
    inputs = json.loads(capsys.readouterr().out)["inputs"]
    digest = next(entry["sha256"] for entry in inputs if entry["source"] == str(path))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_pipeline_omni_check():
    emitted = run_cli("omni", "--dim", "2")
    assert emitted.returncode == 0
    checked = run_cli("check", "-", stdin=emitted.stdout)
    assert checked.returncode == 0
    assert b"Leibniz identity: ok" in checked.stdout
    assert b"left center: dim 2" in checked.stdout


def test_pipeline_semidirect_check():
    emitted = run_cli("semidirect", str(FIXTURES / "heis3.json"),
                      str(FIXTURES / "rep_adjoint_heis3.json"), "--mode", "l0")
    assert emitted.returncode == 0
    checked = run_cli("check", "-", stdin=emitted.stdout)
    assert checked.returncode == 0
    assert b"Leibniz identity: ok" in checked.stdout


def test_pipeline_graph_emit():
    emitted = run_cli("graph", str(FIXTURES / "graph_heis3.json"), "--emit-algebra")
    assert emitted.returncode == 0
    checked = run_cli("check", "-", stdin=emitted.stdout)
    assert checked.returncode == 0
    bad = run_cli("graph", str(FIXTURES / "graph_bad.json"), "--emit-algebra")
    assert bad.returncode == 1
    assert bad.stdout == b""
    assert b"input is not a closed graph map" in bad.stderr


def test_emitted_algebras_reparse(tmp_path, capsys):
    # everything the CLI emits must re-parse and pass the checker
    for args in (["omni", "--dim", "1"], ["omni", "--dim", "2"],
                 ["semidirect", str(FIXTURES / "L2.json"),
                  str(FIXTURES / "rep_adjoint_L2.json"), "--mode", "lr"]):
        result = run_cli(*args)
        assert result.returncode == 0
        doc = tmp_path / "emitted.json"
        doc.write_bytes(result.stdout)
        assert main(["check", str(doc)]) == 0
        capsys.readouterr()


def test_semidirect_rejects_bad_rep():
    result = run_cli("semidirect", str(FIXTURES / "L2.json"),
                     str(FIXTURES / "rep_bad_L2.json"), "--mode", "lr")
    assert result.returncode == 1


def test_fixtures_list(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out.split()
    assert "L2.json" in out and "omni2.json" in out


def test_fixtures_export(tmp_path, capsys):
    assert main(["fixtures", "--dest", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "heis3.json").exists()


def test_compare_with_file_rep_is_input_error(capsys):
    assert main(["cohomology", str(FIXTURES / "L2.json"),
                 "--rep", str(FIXTURES / "rep_adjoint_L2.json"),
                 "--compare"]) == 2


@pytest.mark.parametrize("args", [
    ("cohomology", str(FIXTURES / "L2.json"), "--max-degree", "-1"),
    ("cohomology", str(FIXTURES / "L2.json"), "--rep", "adjoint",
     "--compare", "--max-degree", "0"),
    ("omni", "--dim", "-1"),
    # --compare computes the naive complex itself; --naive was ignored
    ("cohomology", str(FIXTURES / "L2.json"), "--naive", "--compare",
     "--max-degree", "1"),
    # --compare takes no representation file; it was read and checked first
    ("cohomology", str(FIXTURES / "L2.json"), "--rep", str(FIXTURES / "rep_bad_L2.json"),
     "--compare", "--max-degree", "1"),
])
def test_nonsensical_arguments_exit_2(args):
    # each of these used to exit 0 with an empty or vacuous result
    result = run_cli(*args)
    assert result.returncode == 2, result.stdout
    assert result.stdout == b""


def test_fixtures_list_with_dest_exit_2(tmp_path):
    # used to print the list, write nothing and exit 0
    dest = tmp_path / "out"
    result = run_cli("fixtures", "--list", "--dest", str(dest))
    assert result.returncode == 2, result.stdout
    assert result.stdout == b""
    assert not dest.exists()


@pytest.mark.parametrize("under", [(), ("sub",)])
def test_fixtures_dest_on_a_file_exit_2(tmp_path, under):
    # used to die with a FileExistsError or NotADirectoryError traceback, exit 1
    taken = tmp_path / "taken"
    taken.write_text("keep\n", encoding="utf-8")
    result = run_cli("fixtures", "--dest", str(taken.joinpath(*under)))
    assert result.returncode == 2, result.stderr
    assert result.stdout == b""
    assert result.stderr.startswith(b"input error: cannot write the corpus to ")
    assert b"Traceback" not in result.stderr
    assert list(tmp_path.iterdir()) == [taken]
    assert taken.read_text(encoding="utf-8") == "keep\n"


def test_benchmark_structure_invariants(tmp_path, capsys):
    # the invariants the structure workload checks, on the untransported algebras
    from leibniz_kit import omni_lie
    from leibniz_kit.serialize import algebra_to_json

    def run(*args):
        assert main([*args, "--json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]

    omni3, omni4 = tmp_path / "omni3.json", tmp_path / "omni4.json"
    omni3.write_text(json.dumps(algebra_to_json(omni_lie(3))), encoding="utf-8")
    omni4.write_text(json.dumps(algebra_to_json(omni_lie(4))), encoding="utf-8")
    lie2 = run("lie2", str(omni3))
    assert (lie2["dim1"], lie2["dim0"]) == (3, 12)
    assert lie2["jacobiator_identities"] is True
    assert lie2["axioms"] == {name: True for name in "abcde"}
    check = run("check", str(omni4))
    assert (check["dim"], check["left_center_dim"], check["derived_dim"]) == (20, 4, 19)
    assert check["leibniz"] is True


def test_cohomology_compare_omni2(capsys):
    # the adjoint comparison on omni2 with its chain-level correspondence
    assert main(["cohomology", str(FIXTURES / "omni2.json"), "--rep", "adjoint",
                 "--compare", "--max-degree", "2", "--json"]) == 0
    comparison = json.loads(capsys.readouterr().out)["results"]["comparison"]
    rows = [(d["dim_naive"], d["dim_classical"]) for d in comparison["degrees"]]
    assert rows == [(2, 2), (0, 0), (0, 0)]
    assert comparison["side_checks_ok"] is True
    assert comparison["notes"] == []


@pytest.mark.parametrize("optimize", [(), ("-O",)])
@pytest.mark.parametrize("degree_args", [
    ("--max-degree", "1"),
    ("--max-degree", "2"),
    ("--compare", "--max-degree", "2"),
])
def test_cohomology_refuses_non_leibniz_algebra(optimize, degree_args):
    # with the trivial representation nothing else looks at the bracket: this
    # used to print Betti numbers and exit 0 at degree 1 and die on an
    # uncaught AssertionError at degree 2
    result = subprocess.run([sys.executable, *optimize, "-m", "leibniz_kit", "cohomology",
                             str(FIXTURES / "nonleibniz.json"), "--rep", "trivial",
                             *degree_args], capture_output=True)
    assert result.returncode == 1, result.stderr
    assert result.stderr == b""
    assert result.stdout == (b"FAILED: input is not a Leibniz algebra; "
                             b"first witness at (0, 0, 0)\n")
