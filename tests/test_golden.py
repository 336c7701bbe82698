"""Golden output: the stdout and exit code of CLI commands whose output is
a whole algebra or a whole report, pinned by sha256.

The digests of ``GOLDEN`` were computed when the structure tensors were
stored densely; a change of storage or of the JSON writer must leave every
byte of these outputs as it was.  ``GOLDEN_STREAMS`` pins stdout and
stderr, for ``check``, ``cohomology``, ``mc`` and ``graph`` on the
fixtures, the negative ones included, so the refusals are pinned with the
results; its digests were computed before each premise was checked once per
value.  Its cases at the top of the cap and one degree past it, of
``semidirect`` on a bad or mismatched representation and of nonsensical
arguments, and the stderr of ``GOLDEN``, were added later and computed on
the code before the library-only second routes were deleted.  The plain
``check`` digests of the two negative fixtures were computed again when the
squares check began to print its witnesses, as every failed check does, and
the stderr of ``graph graph_bad --emit-algebra`` when its refusal came to be
worded by the ``require`` of ``induced_leibniz``, as every refusal is.
``elapsed_s`` is the one field masked, and argparse formats its usage for
a terminal 200 columns wide.  Every case also holds the stdout contract
(``_assert_one_document``): one JSON document, or no line ``{``.
``EMITTED`` keeps the stdout digests of the removed ``lie2 <name> --emit``,
which the plain table and ``--json``'s ``results.lie2`` must still rebuild.
Commands run in process through ``cli.main``, from the repository root, so
the input paths in the ``--json`` reports are the same on every checkout.
``SUBSPACE_CASES``, the cases that build a subspace, run once more with the
dense view of ``linalg.Tensor`` made to raise, and keep their digests.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import sys

import pytest

from leibniz_kit import fixtures as corpus
from leibniz_kit.cli import main
from leibniz_kit.linalg import Tensor
from leibniz_kit.serialize import write_json

from conftest import REPO_ROOT

_ELAPSED = re.compile(r'"elapsed_s": [0-9.e-]+')

_ALGEBRAS = corpus.positive_algebra_names()
_ADJOINT_REPS = ("L2", "heis3", "sl2")
_GRAPHS = ("graph_L2", "graph_heis3", "graph_bad")


def _cases() -> dict:
    """{case id: (argv, name of the algebra read from stdin or None)}."""
    cases = {f"omni --dim {m}": (["omni", "--dim", str(m)], None) for m in range(5)}
    for name in (*_ALGEBRAS, "omni3"):
        source = "-" if name == "omni3" else f"fixtures/{name}.json"
        stdin = "omni3" if name == "omni3" else None
        for flags in ((), ("--json",)):
            cases[" ".join(("lie2", name, *flags))] = (["lie2", source, *flags], stdin)
    for name in _ADJOINT_REPS:
        for mode in ("lr", "l0"):
            cases[f"semidirect {name} --mode {mode}"] = (
                ["semidirect", f"fixtures/{name}.json", f"fixtures/rep_adjoint_{name}.json",
                 "--mode", mode], None)
    for name in _GRAPHS:
        cases[f"graph {name} --emit-algebra"] = (["graph", f"fixtures/{name}.json", "--emit-algebra"], None)
    return cases


CASES = _cases()

_REP_FILES = {"L2": ("rep_adjoint_L2", "rep_bad_L2"), "heis3": ("rep_adjoint_heis3",),
              "sl2": ("rep_adjoint_sl2",)}


def _stream_cases() -> dict:
    """{case id: argv} of the commands whose stdout and stderr are pinned."""
    argvs = []
    for name in (*_ALGEBRAS, *corpus.negative_algebra_names()):
        path = f"fixtures/{name}.json"
        argvs += [["check", path], ["check", path, "--json"]]
        for rep in ("trivial", "adjoint", *(f"fixtures/{r}.json" for r in _REP_FILES.get(name, ()))):
            for mode in ((), ("--naive",), ("--compare",)):
                argvs += [["cohomology", path, "--rep", rep, *mode, "--max-degree", "2", *flags]
                          for flags in ((), ("--json",))]
    for name, rep in [(name, f"rep_adjoint_{name}") for name in _ADJOINT_REPS] + [("L2", "rep_bad_L2")]:
        argvs += [["mc", f"fixtures/{name}.json", f"fixtures/{rep}.json", *flags]
                  for flags in ((), ("--json",))]
    for name in _GRAPHS:
        argvs += [["graph", f"fixtures/{name}.json", *flags] for flags in ((), ("--json",))]
    # the top degree within the default cap, then the first one past it (exit 3)
    for name, top in (("L2", 12), ("omni1", 12), ("heis3", 7), ("sl2", 7)):
        for rep, k in (("adjoint", top), ("trivial", top + 1)):
            argvs += [["cohomology", f"fixtures/{name}.json", "--rep", rep, "--max-degree", str(d)]
                      for d in (k, k + 1)]
    for name, rep in (("L2", "rep_bad_L2"), ("heis3", "rep_adjoint_L2")):
        argvs += [["semidirect", f"fixtures/{name}.json", f"fixtures/{rep}.json", "--mode", mode]
                  for mode in ("lr", "l0")]
    # the arguments of test_cli.test_nonsensical_arguments_exit_2
    argvs += [["cohomology", "fixtures/L2.json", "--max-degree", "-1"],
              ["cohomology", "fixtures/L2.json", "--rep", "adjoint", "--compare", "--max-degree", "0"],
              ["omni", "--dim", "-1"],
              ["cohomology", "fixtures/L2.json", "--naive", "--compare", "--max-degree", "1"],
              ["cohomology", "fixtures/L2.json", "--rep", "fixtures/rep_bad_L2.json",
               "--compare", "--max-degree", "1"]]
    return {" ".join(argv): argv for argv in argvs}


STREAM_CASES = _stream_cases()

# (exit code, sha256 of stdout, sha256 of stderr) per case
GOLDEN = {
    "graph graph_L2 --emit-algebra": (0, "ab7e354f15d9de267590bfefc10c082d7f191a638d70542a52441e5f6311f0f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph graph_bad --emit-algebra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "02d231b2f5d34f48ecb28bbf27b72261d4a06aba64185c6129d3049b5c5f0657"),
    "graph graph_heis3 --emit-algebra": (0, "67f9ad879dae2282fd76aa94e70387843efdc65243edbae2871a62ca4bad7a4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 L2 --json": (0, "2727d60554e1d5307e35f072693099b4ae42af1fe5fef603ee36b756197dec31",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 L2": (0, "ba15bf183327dbb77a74b422ccad2b3faa380506ecde3ef8ace80cd94ad285ee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian1 --json": (0, "1301bc27d418386dd9fdfe3625c73834c65d7c570a4b46561ec7c761658cc327",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian1": (0, "1e74d1b6d94b5f4920e300eb88630916d176cab7eea90da7fecc6cb221cfc9a7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian2 --json": (0, "7b1122c1d35a57ed35f29ca3fb98cb5b64a24e006fed8379eb3e6b94b40a22bc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian2": (0, "03e3fdfe3d6bd6b1572f09591d04369320510d77e965b107bef95326d87ffa1d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian3 --json": (0, "f6a35a0c1190ec10aa4f92a51f913b6c0da398e5c8e6a83df2440d71f7d59956",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 abelian3": (0, "d0409e542310823e206e056bd94fc475de5bd880a2330c799e4316e3be5ebfad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 heis3 --json": (0, "e63e07a7757695a2641cdc3c93aa1a2872c92f9087a4c679ca4ea8f72be3f191",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 heis3": (0, "ec5c9b5df1a8a2ba693d00e7b825d2ddfc9e0ea8a6d2646044ccdd96d423e023",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni1 --json": (0, "de7eae5559caf6807bec84d813970d55b34aefebd6ba1427fb0161f0f967ebc8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni1": (0, "ba15bf183327dbb77a74b422ccad2b3faa380506ecde3ef8ace80cd94ad285ee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni2 --json": (0, "3681ee1cd9a497b48e6f73c5182c5bffe242ca29e793d38c2ce5114505bf2155",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni2": (0, "b4119b075a96e35dfdfa8d0057deae61b5f93723f3e70d63d462b1499d9a4c9f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni3 --json": (0, "b0b888e6fde6cdceb29c4e8a577570a29d593f1b43f57131d2250a4928a7b3f5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 omni3": (0, "c9f3076d542143394d82b54706ab0fb744a5a11c701aabc56579d932c5c421b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 semidirect_L2_l0 --json": (0, "4be5bb76ce8bfbc6d3d980220eaa39c1994560a1a4c8f7e7f9b3a3d0653300b6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 semidirect_L2_l0": (0, "81f8c7f3665ca25dcb11d0627e7970afbcbb1aab59b4f2974d13025d06fe1295",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 semidirect_heis3_lr --json": (0, "4b9a2f56050a47e8a939ea7b637f86bbdea963a3467d5219ff4200497b27b98c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 semidirect_heis3_lr": (0, "b4119b075a96e35dfdfa8d0057deae61b5f93723f3e70d63d462b1499d9a4c9f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 sl2 --json": (0, "b0051daba616fe20b0961c912cb5a86ffd44649223198ae771edd77656220d2c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "lie2 sl2": (0, "57f8a64e455b7ace83d8d66b59491b970f6366c6726b2c71a498130c549630d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim 0": (0, "26ba429262c183015d604a7521038305510928a89ad6d1486df8ec5441bd2e4b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim 1": (0, "628852b06a23ca76c0a8360fb8c8cc59bb8728dc1ce6be6a8166cafbb541644e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim 2": (0, "7074cf555b74351270582fc77bf93ab9ac66bdde71365f6ca84030993c68c1b0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim 3": (0, "a56359c33e8c13b2e03c68a968e7de36e410766b8f6dbad78ac67725e6ddf167",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim 4": (0, "03e5779e121a3e150ddbe9b99972b6175f41f30931e842294da53ab121d47cee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect L2 --mode l0": (0, "3fe302229d802d1f78fe2b4d0859a34ddb957a2fe4454e8b15496d4887a2c227",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect L2 --mode lr": (0, "9b4439b14e5349af19c80beee6c6da6e8df28f426b5bc3cc686a8036e1e0064d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect heis3 --mode l0": (0, "32a30467a37f84b1bea0824a82b4be13b9b04f8f3cadd2fbe0a874389bc7ef98",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect heis3 --mode lr": (0, "8b146570f7a343230f69bfa9f5a89e16ea80930b97c02a6982d5351d7824b580",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect sl2 --mode l0": (0, "e4221cf66ef3bd0ce8d7366bd0e2341e32f4484e31c059d74d2ef1cb74bf9b97",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "semidirect sl2 --mode lr": (0, "41093533db8dc2e76f8f113fcc3455910b5f1548ebc5ac648b2c6ca02763412f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}

# sha256 of the stdout of ``lie2 <name> --emit``, pinned before the option
# was removed in favour of ``--json``'s ``results.lie2``
EMITTED = {
    "L2": "836593407753292fb30a7149d9f2940a0b31b7496686d42c44ac478825abcfd3",
    "abelian1": "f53a52ae81594bb1dc255bfe6f855bcc3a8b6db7267a1d14cd62325ee265fe55",
    "abelian2": "ffc183b940a2142a30ce19728d1aa440e3128e02bef1ad4370fadd2e1b1bde76",
    "abelian3": "b1ee9bb4cb6e9bb67e24c5557b34db077adb0df34efdca90547f9ccd22228e8d",
    "heis3": "1f44ab76395c8b0f9719adc511f1cd9026ce81df106e51b3fa3992efea29360d",
    "omni1": "557a66f01b1cfcfa135cb72c1a21fea7d684b4425f763e1b9e6e4fca32f3cd99",
    "omni2": "bd402d11865574f2a6aa7ae47eab90ff97e4fcbbdc6324ac0177ee1f7a441680",
    "omni3": "52f9069419d7835f51b651370661508c98754f542be13c4d1b6c79cab4afdea0",
    "semidirect_L2_l0": "66c46e681db8fde61d47a48b3dcfed1c790afe08bbac19188c03d1a6cc872f8f",
    "semidirect_heis3_lr": "afb24c554c6ee33ff3dc9978cc79c66a897129ec74c14f686e2b92abc04e6843",
    "sl2": "4a7626ab293e83a5650ec1b7b7edd0e2a626dd44aaf9f8f728f5863eda822aa6",
}


def _run(monkeypatch, capsys, argv, stdin_bytes=b""):
    """(exit code, stdout, stderr) of one command, with ``elapsed_s`` masked;
    an argparse refusal exits through SystemExit."""
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_bytes)))
    monkeypatch.setenv("COLUMNS", "200")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, _ELAPSED.sub('"elapsed_s": 0', out), err


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _assert_one_document(argv, code, out):
    """A run with --json, and an omni, semidirect or graph --emit-algebra
    run, prints exactly one JSON document (nothing when it is refused); any
    other run prints no line that opens a document."""
    if "--json" in argv or argv[0] in ("omni", "semidirect") or "--emit-algebra" in argv:
        if out or code == 0:
            json.loads(out)
    else:
        assert "{" not in out.splitlines()


def _stdin_of(monkeypatch, capsys, stdin):
    """The bytes a case reads on stdin: the omni3 document, or none."""
    if stdin != "omni3":
        return b""
    code, out, _ = _run(monkeypatch, capsys, ["omni", "--dim", "3"])
    assert code == 0
    return out.encode("utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(case, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    argv, stdin = CASES[case]
    stdin_bytes = _stdin_of(monkeypatch, capsys, stdin)
    code, out, err = _run(monkeypatch, capsys, argv, stdin_bytes)
    assert (code, _sha256(out), _sha256(err)) == GOLDEN[case]
    _assert_one_document(argv, code, out)


@pytest.mark.parametrize("name", sorted(EMITTED))
def test_removed_emit_bytes_are_the_plain_table_and_json_results(name, monkeypatch, capsys):
    """``lie2 <name> --emit`` printed the plain table, then the Lie 2-algebra
    document instead of "ok".  The plain run and ``--json``'s
    ``results.lie2`` still give those bytes exactly."""
    monkeypatch.chdir(REPO_ROOT)
    argv, stdin = CASES[f"lie2 {name}"]
    stdin_bytes = _stdin_of(monkeypatch, capsys, stdin)
    code, table, _ = _run(monkeypatch, capsys, argv, stdin_bytes)
    assert code == 0 and table.endswith("\nok\n")
    code, report, _ = _run(monkeypatch, capsys, [*argv, "--json"], stdin_bytes)
    assert code == 0
    emitted = table[:-len("ok\n")] + write_json(json.loads(report)["results"]["lie2"]) + "\n"
    assert _sha256(emitted) == EMITTED[name]


@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_cli_output_and_refusals_are_unchanged(case, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code, out, err = _run(monkeypatch, capsys, STREAM_CASES[case])
    assert (code, _sha256(out), _sha256(err)) == GOLDEN_STREAMS[case]
    _assert_one_document(STREAM_CASES[case], code, out)


# the cases that build a Subspace: the derived subalgebra of ``check``, the
# left center and its coordinates in ``lie2``, the trivial naive space of
# ``--rep trivial --compare``
SUBSPACE_CASES = sorted([case for case in CASES if case.startswith("lie2 ")]
                        + [case for case in STREAM_CASES if case.startswith("check ")
                           or "--rep trivial --compare" in case])


@pytest.mark.parametrize("case", SUBSPACE_CASES)
def test_no_command_reads_the_dense_view_of_a_tensor(case, monkeypatch, capsys):
    """The int index and iteration of ``linalg.Tensor`` serve only the
    benchmark's tests and the test oracles: with both made to raise, every
    command that builds a subspace still gives its pinned output."""
    def dense_view(*args):
        raise AssertionError("the dense view of a Tensor was read")

    def by_key(self, index):
        return dict.__getitem__(self, index) if isinstance(index, tuple) else dense_view()

    monkeypatch.setattr(Tensor, "__iter__", dense_view)
    monkeypatch.setattr(Tensor, "__getitem__", by_key)
    monkeypatch.chdir(REPO_ROOT)
    argv, stdin = CASES.get(case) or (STREAM_CASES[case], None)
    golden = GOLDEN.get(case) or GOLDEN_STREAMS[case]
    code, out, err = _run(monkeypatch, capsys, argv, _stdin_of(monkeypatch, capsys, stdin))
    assert (code, _sha256(out), _sha256(err)) == golden


# (exit code, sha256 of stdout, sha256 of stderr) per case
GOLDEN_STREAMS = {
    "check fixtures/L2.json": (
        0, "48611d797b4e2fdd6affd41c178f6bef0d65258618e36fd90dd36b16b9689ee8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/L2.json --json": (
        0, "495bde538ea7a7fe23029c2481ed73eb65c70f7efd09ada869243837f10e89aa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian1.json": (
        0, "c42f7bf638e0bacff710a0cb3095a33d246a45ae786c1f09202381b78f8acfa3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian1.json --json": (
        0, "6824e3fb7fb791dab201fd3660fc83660143711e665b8afdd3fc987a702ac14c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian2.json": (
        0, "56ded73af574177144e29d252582f246668482f5c295cf3b09f1f7609391fbca",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian2.json --json": (
        0, "05281f526a4994f7b2a2e9e354df42e7593fa695740565f6679c92771a73c4dc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian3.json": (
        0, "c2447405a578c22531ee02ef3b9fd9a1de9206643eb64bbe503fbac624571cc0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/abelian3.json --json": (
        0, "915d76df164e5bc41b05f5f5d7979c0fe0c2461be267ab6f48773edc24583d4c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/heis3.json": (
        0, "30bf93a5960a753180a5ace0748ad17701c63ef219f1b5a860935493987fcffa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/heis3.json --json": (
        0, "d287d99d627ac9c6ea820ce1e889c8c4bed87db7c2748677e848636e69a935d5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/nonleibniz.json": (
        1, "c837c2f562dee1817c48c3ec52daf47a66df33aa598bc0dd9b066a20e344c1d4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/nonleibniz.json --json": (
        1, "f7db795c5b90f97f79725e4ffccfdefbdc3e7de8e829450eb45eed03e04581fa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/nonleibniz2.json": (
        1, "febd9a84245a34cdd87b742470f47a0ed8224e58a767e4c3c1eb57cb5d1b8655",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/nonleibniz2.json --json": (
        1, "e781f661965ac475d609795e6458e7161246f7161959d599ddc92e0ce07fc002",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/omni1.json": (
        0, "48611d797b4e2fdd6affd41c178f6bef0d65258618e36fd90dd36b16b9689ee8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/omni1.json --json": (
        0, "7a15f8f7b570d5e1ca1264a28e448ddbfe651001e2cd7b167a4581befa5b8a17",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/omni2.json": (
        0, "7875e8525c1e1666107a9d40b5554b2fb69a8cb57a0e431da583f8678de10e7d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/omni2.json --json": (
        0, "8b24433d17437b0bc8a9195675f41f1785d0a04bab9fa5415c5f93fd1520c1bb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/semidirect_L2_l0.json": (
        0, "43ab50987ebb8ee9d7e31f5456ae9652e2c7e025e388a11477a13675abf2bc0c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/semidirect_L2_l0.json --json": (
        0, "16c4b267c1129c99459ccd59996d342bc866cd9300b3602c0fa0a177a8ca08e4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/semidirect_heis3_lr.json": (
        0, "88cbc71c2a4d693f10292b353583fbfd5aea9d41c287a7e6be849edb5908467e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/semidirect_heis3_lr.json --json": (
        0, "9a00fdb5d56bb660fca9f39bd588f593e5e923dbed7fda790dcb4e67f2108b52",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/sl2.json": (
        0, "9f58577df1e9190e49dfd8255154f2ac110630e7967087a5129805890dc5d8ab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "check fixtures/sl2.json --json": (
        0, "7303e00de73fe0e490cb912c49cacc1d33b7885a76e9cbc39023bb6aa909c47f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --max-degree -1": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "31e2be17011825616e2e57691aa5c178b32237cfb4797debf5bba7d8f98522ec"),
    "cohomology fixtures/L2.json --naive --compare --max-degree 1": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "a58ed1b4a29f454b9a447b097141cbe70e85a27fef9d72e1f1739137459085ea"),
    "cohomology fixtures/L2.json --rep adjoint --compare --max-degree 0": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0d238d249467773d9e130363dea5c731c31cf149d98dac867f16f21c80f449f0"),
    "cohomology fixtures/L2.json --rep adjoint --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --compare --max-degree 2 --json": (
        0, "8ca704527a21c548b17f12da5e677ccd8177cf9f90979f1a3fb09816910956ef",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --max-degree 12": (
        0, "5aba4e778c2878526c4bb7c37ba9e9c1301b31bc800ce18d00bfe9bf96f09216",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --max-degree 13": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b1e9a71d4e6800c43de6c710865b539f1ef276c04e5899079413e1b824150743"),
    "cohomology fixtures/L2.json --rep adjoint --max-degree 2": (
        0, "19cac5cbcad60ca36d40a0d05ebcf32fb432159e7a43b43bbafe203d1dacd136",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --max-degree 2 --json": (
        0, "ebdd232d5320a3aab2f9f9d4c6b1f9c5d2065071c4c3c24ff38f567b6599faf2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --naive --max-degree 2": (
        0, "555fbc86632a1bfaf2b12e4106846c45b024549f5c91d1c4df6e20d551d6e967",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep adjoint --naive --max-degree 2 --json": (
        0, "bcfe9d0e7349dfd7afd680265b17bbcfb4b81e9cc9e4f92b388331ce3f4db34a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --compare --max-degree 2": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --compare --max-degree 2 --json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --max-degree 2": (
        0, "0a8067ad2a06f1e635f2860738ee7fe83d63910b2f2223a5e351c8746cd72300",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --max-degree 2 --json": (
        0, "e32cf6eeb791cb330e66bee957b013d4c24404afec2f92b904e831af16fc9fcb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --naive --max-degree 2": (
        0, "b4e17358cb0b7b0a5170f316a22f5f8af6c6e580f12937f1e2b4cb414904b25c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_adjoint_L2.json --naive --max-degree 2 --json": (
        0, "f50e17901705a3fc6d92bb32967289920ce286c244eba1a226fc0312ec7ccf51",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --compare --max-degree 1": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --compare --max-degree 2": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --compare --max-degree 2 --json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --max-degree 2": (
        1, "68555a428ce9b86d36390781946c822f095d037fc9f487211aa9762665391e8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --max-degree 2 --json": (
        1, "b4793bb49b6477f122da720a03aabbdc9ed4d1c33b10b2494e46f91d49aa8358",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --naive --max-degree 2": (
        1, "68555a428ce9b86d36390781946c822f095d037fc9f487211aa9762665391e8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep fixtures/rep_bad_L2.json --naive --max-degree 2 --json": (
        1, "b4793bb49b6477f122da720a03aabbdc9ed4d1c33b10b2494e46f91d49aa8358",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --compare --max-degree 2 --json": (
        0, "60e4c519e8683ed09e75cd7721c3636eb162bb4c12d2f256dc2129502c35897f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --max-degree 13": (
        0, "fc7d7f5802e175601cd332ca0821773fd3c08b220c194b4e3e67518f39137c77",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --max-degree 14": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b1e9a71d4e6800c43de6c710865b539f1ef276c04e5899079413e1b824150743"),
    "cohomology fixtures/L2.json --rep trivial --max-degree 2": (
        0, "a94f78f3789ef51804ea7582d082b2b69dc33223e0dc24fa4ad08e6b8172ea39",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --max-degree 2 --json": (
        0, "3dcef8c677a23683d43d8189ce0ae09f319b5e509d4d746e557b4a314dece655",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --naive --max-degree 2": (
        0, "b4e17358cb0b7b0a5170f316a22f5f8af6c6e580f12937f1e2b4cb414904b25c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/L2.json --rep trivial --naive --max-degree 2 --json": (
        0, "3bb1f8911f789aef751fa2aedf0371adf817e88927628014d69d2b969a6bee22",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --compare --max-degree 2 --json": (
        0, "cc036ae3a854ca55096b70edef554c1ff3907c95790b2d497a76b0cc994d8193",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --max-degree 2": (
        0, "c70167953adbaa34eb7859aad2131ac2026544986c1ea4ef2a8b8dceeebb1431",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --max-degree 2 --json": (
        0, "6c8288f1cd32cc69a7d6595b06316f125137746da3a79050cf12f640cd4eb967",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --naive --max-degree 2": (
        0, "ba35a6c332faf6434c7903658c4479237cbadabadebe575a1b1bd71f981ec6ea",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep adjoint --naive --max-degree 2 --json": (
        0, "e72d6572f7d654df192c3c8814b64a0a959e70c235bc88878c334215b1fbac45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --compare --max-degree 2 --json": (
        0, "f89596b6399b4f7a28cbe1f74aa8ca182789c25436cbeb2ff1b445e1a00624ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --max-degree 2": (
        0, "2987e0055b53bf8e9bb1bc0d5121755fa631c0e543930ca58766226964e0e848",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --max-degree 2 --json": (
        0, "da3bc30f909fd95fe77e26cce093afd76bd1d2fcd1b5b8b42516cf9a90077c19",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --naive --max-degree 2": (
        0, "ba35a6c332faf6434c7903658c4479237cbadabadebe575a1b1bd71f981ec6ea",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian1.json --rep trivial --naive --max-degree 2 --json": (
        0, "288a7d1dceac96c6eea835dc33cde8e38c76b40d721e3446fccf368a783103eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --compare --max-degree 2": (
        0, "245e1f00ac3bc32d23b981631fe2990e94e65d08cd99352946588b849735cdf1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --compare --max-degree 2 --json": (
        0, "bbed91aaf97c53e753a4a25f656fbedb053f5b466914e3d1d0e91fa5313c6e0d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --max-degree 2": (
        0, "9ef518b18af7828c2c487d5a87bddd6b03a3d2e190b24bcb9854edaf141cea65",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --max-degree 2 --json": (
        0, "0f82482fcc2f970b808d21afa2cc2d78a1df34f72768ce3e5b0fe0f1f7a049a2",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --naive --max-degree 2": (
        0, "135cfc5dea1ff6dfbe217e92c0e9cb46357049f99d7887adaaff80bb8374c6ed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep adjoint --naive --max-degree 2 --json": (
        0, "ae1f5c50172cce3ae55e2fd540c00104ed043e242f6c237a9029ec189b4b4bc6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --compare --max-degree 2": (
        0, "69ca7fce499eda140b329cdb2b4213e56d1fa8fe7edf30c38ad173e8a7235924",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --compare --max-degree 2 --json": (
        0, "62323eaada415a701d0da69ecd91c67466da5174d0ea37a7fee6cc1a0826a204",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --max-degree 2": (
        0, "ebdd1ddd352f642df687ee5f309c0c0d8fca1a13b4d89e5787747c94d0660cc9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --max-degree 2 --json": (
        0, "4217c9f804d000390af5cc3b4e8ee86823f5593c7e42dace39824cff1aa5c2b8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --naive --max-degree 2": (
        0, "8a64e1d08e9503d7a9e05edf4b607d66c75b5b3859652a8b62947481fe74bacd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian2.json --rep trivial --naive --max-degree 2 --json": (
        0, "114e29fbc082fbe0581b43fd7ec525099a88e786ab56c8f3825c5c22ea5fc332",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --compare --max-degree 2": (
        0, "34cad5d889ffe919603dde9df6aa1e1c9cf5aeaad24a10b8c418788ac8dcbe57",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --compare --max-degree 2 --json": (
        0, "49cf1438ceafc9dbad20f3933c7b50801c6e0498632c2acbd900284b006b6409",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --max-degree 2": (
        0, "e98a083d7d7ce91ba694d2b1fa0dacbaabd281291dc0eb06ffd778f844f16976",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --max-degree 2 --json": (
        0, "b90324a3d5cc59a9b75ea0e962739768477405fe6128adbc6966959d377d4145",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --naive --max-degree 2": (
        0, "c76625ba9449f811d5a0ddc9f95160fd473e526ae6fa50a8693f188aa148d7fb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep adjoint --naive --max-degree 2 --json": (
        0, "43c1884a10ab4ea17068766cb1567d92ec5ada1a18b5721a2765724964083d63",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --compare --max-degree 2": (
        0, "c264b37a02477958bdcd8f4641b7c164a04e9a8068a1ecd92535be7ac582b6df",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --compare --max-degree 2 --json": (
        0, "6f76e048c02c446978012bbbd76dfbf479bf5e546127b90393b7c0abb54c4c03",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --max-degree 2": (
        0, "976f92cadf3eb7b4f04382b3c58bc32cf3383d1d8f734dde9f4d56e7add039f1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --max-degree 2 --json": (
        0, "93681c9e210d16b1a8da10962dc398b9d00418420b95677dd64bee56de407fbc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --naive --max-degree 2": (
        0, "bc7514f721a37b7d6c5fd0caecae7b58e7ee8a72ae732d336f015c732f6ff345",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/abelian3.json --rep trivial --naive --max-degree 2 --json": (
        0, "3806c9d38bac1246101d54147f5c4b7173aed13750061020f4bd5dbd434d39fa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --compare --max-degree 2": (
        0, "6aa4705ff02de9e1a640e7beee8b2f0e37d4738ef48b1d1a3e58e1e0644fe9a7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --compare --max-degree 2 --json": (
        0, "d16533746683b2945ec69ec15c3325ed1feff52905b00d54ecc4b0ac06546470",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --max-degree 2": (
        0, "ac9a7d14f7ccaf9e4ebb544c23068ede489b98ed5121381e7656c38b7de9b614",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --max-degree 2 --json": (
        0, "1c3f92c2de8ee1f530f36f90cf4bac193fa04ac01dd7cc1bf42bc3c9ab4e51a9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --max-degree 7": (
        0, "54a6c15fbfe2448310d7ea2e8c971b4c6b32b655d471aae939e5e2fd3fe28ddc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --max-degree 8": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2bcd8baf36e1e57f88ccb2cb217641186aca030380c2932ca7fea8b7acafde1f"),
    "cohomology fixtures/heis3.json --rep adjoint --naive --max-degree 2": (
        0, "7a1030e977436107fad8ae7e84494abf3ae80055cb80e5f04fcb57a7f76d9850",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep adjoint --naive --max-degree 2 --json": (
        0, "f49afd6fc07525ea71b64e2705e8f5851c17b789b38b662309fc51c523e74a8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --compare --max-degree 2": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --compare --max-degree 2 --json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --max-degree 2": (
        0, "fc23d4c31c6f60004635d43c57c83bed7245d33daa4c72ec291c84c48a00cfbe",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --max-degree 2 --json": (
        0, "f4c3c32733e2c11b14e1cb3187c30e23abe4d1a44ca8a5852d2462c1b5e0b4ce",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --naive --max-degree 2": (
        0, "19d692d26f24ab913c5166f140ed2f6d40bcb4323b515e7b31637f853c86e438",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep fixtures/rep_adjoint_heis3.json --naive --max-degree 2 --json": (
        0, "6346de923a7c80e4008a72424eeb096ff2225e60680fbd463b87b4b0c1468aff",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --compare --max-degree 2": (
        0, "03870cf9459248773e2d7284efee3253327bfb8014766731a83b823938461456",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --compare --max-degree 2 --json": (
        0, "0245f71f6d11fad3ba934a9dc8176b96d03a2a32937e457442f1eafdcf28b56e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --max-degree 2": (
        0, "7bb72ea755fdd3457fcd839181c54630c4c1638ddf58ac3bbc3e23895e8af407",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --max-degree 2 --json": (
        0, "6a6afd02dcb9e27290c8f5452ef20a4333eb1415075680300d22914488506c94",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --max-degree 8": (
        0, "e263c6434c7acbf72bb43cdc33f22fa899746901ff7eddb706b7f84250e0470b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --max-degree 9": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2bcd8baf36e1e57f88ccb2cb217641186aca030380c2932ca7fea8b7acafde1f"),
    "cohomology fixtures/heis3.json --rep trivial --naive --max-degree 2": (
        0, "4d88dc20e5b497805c39adc44bf026df13f1c0b2f3aa550190c10c1575bef5e3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/heis3.json --rep trivial --naive --max-degree 2 --json": (
        0, "9908344cd1ce3271f268dbd12b82d8359d9030bc5f635384a7331b6867531d9f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --compare --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --compare --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --naive --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep adjoint --naive --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --compare --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --compare --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --naive --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz.json --rep trivial --naive --max-degree 2 --json": (
        1, "f2a9a4209f34561ade9b52736b2ad78b8736907125eb28b0eb7e2d82750bc1cc",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --compare --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --compare --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --naive --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep adjoint --naive --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --compare --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --compare --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --naive --max-degree 2": (
        1, "fdd71027665c8d4f17d61ea9f8f54869bc7dd5c53340df0454aca3713e9904eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/nonleibniz2.json --rep trivial --naive --max-degree 2 --json": (
        1, "a271f7c437c70f4b547148f98c357649f6075c419ab5d73fa7232da7ba7c9a00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --compare --max-degree 2": (
        0, "97bdff98cb0c719f9022220bcfe913db0f40cbfad3122eddd95b2a6594effe39",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --compare --max-degree 2 --json": (
        0, "c62568bb8e09a1010108900121e7a85f4ff781e9b411570322f00d5019119bd9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --max-degree 12": (
        0, "3a09edd5a6a49e509ec6861f6ee586a6705a0b58a45e880bc26b887ed04a055d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --max-degree 13": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b1e9a71d4e6800c43de6c710865b539f1ef276c04e5899079413e1b824150743"),
    "cohomology fixtures/omni1.json --rep adjoint --max-degree 2": (
        0, "f542c1dadd1b53cb8a987244486a5ae5dc84955feaac19319f3535625e3f3d4f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --max-degree 2 --json": (
        0, "4c02be9a649417932698c5f3bd75a7bdc279cce3ad2a30441ce42b12d9cf5c19",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --naive --max-degree 2": (
        0, "d0ab24296103ff05e2a3039df26f67d1487124ca1fb58258aa18ae39706459ad",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep adjoint --naive --max-degree 2 --json": (
        0, "c02604c1feb771244e46d209e6dab3a370603f6c5735a49120b15a45c52baf00",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --compare --max-degree 2 --json": (
        0, "99146667271d8f6e6f6f2c1d3ee550d6da0cb7c978308cc75fb349199a6a4862",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --max-degree 13": (
        0, "fc7d7f5802e175601cd332ca0821773fd3c08b220c194b4e3e67518f39137c77",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --max-degree 14": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b1e9a71d4e6800c43de6c710865b539f1ef276c04e5899079413e1b824150743"),
    "cohomology fixtures/omni1.json --rep trivial --max-degree 2": (
        0, "a94f78f3789ef51804ea7582d082b2b69dc33223e0dc24fa4ad08e6b8172ea39",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --max-degree 2 --json": (
        0, "64950e11cd0b29d6e5c85b267974860d712b96a8799a867c4e57afa0e316960e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --naive --max-degree 2": (
        0, "b4e17358cb0b7b0a5170f316a22f5f8af6c6e580f12937f1e2b4cb414904b25c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni1.json --rep trivial --naive --max-degree 2 --json": (
        0, "826d4a85665a23ea8064c0b4faffca63d00a2b5f4bbf221b99f68f2286a31e54",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --compare --max-degree 2": (
        0, "debd84fe1cb1fbd5ac569e25196ae87f06591e1546cd95b498c727c9f910b7ab",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --compare --max-degree 2 --json": (
        0, "74a51d7dbea4e361bf67dbf00610594df0a4881cc6467b4fa30ef0cd297c3575",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --max-degree 2": (
        0, "4a15a9a7fbe8f09fe2593659536f49a820206f4217f5e61de8e3a868f110a595",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --max-degree 2 --json": (
        0, "4e931607922eafe458c137bfa8c01a4e17f5ba3beefb59b4ae7c230439e91049",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --naive --max-degree 2": (
        0, "96990984275e9f3e9fb813f8bea75aea3d72fbe67efe91f2c2e29997856c0da6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep adjoint --naive --max-degree 2 --json": (
        0, "4bc3ef8509a810417dff00b3a57418a0d2e3171b63730e79919ac93ce917b557",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --compare --max-degree 2": (
        0, "b5589e1dc85ec3aaaac9b97871dc73777467d97cc9394cc2a6f15c1dacda8a11",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --compare --max-degree 2 --json": (
        0, "186486c1ce6ec85180be87375e7a611b74a4ba96f5fef80ade75af41acfcb5e1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --max-degree 2": (
        0, "8521b44d149a7e8d15c236607b98e2566dd5629ca5bfdb6887c5f199bbe9de12",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --max-degree 2 --json": (
        0, "f7860fe9212cec9246c4b8322aad16af772a09b53fcffc8a2cafa96fa1638cb3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --naive --max-degree 2": (
        0, "4fbe1900cac32fc11d8a97fe76414058af1f4c3cdd15237aa45a27fdd60ddee3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/omni2.json --rep trivial --naive --max-degree 2 --json": (
        0, "3dc1ecdd038f6dcbe74f8c4d76cbc2608743b742d7e9da65b3a9d4890c80b839",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --compare --max-degree 2": (
        0, "0d8c42a311d73c15e57b1cf00e879aa8d77654f63b47f7d478209a596f475fc9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --compare --max-degree 2 --json": (
        0, "a1cbaaa3c77436f16db72c4084eeb19e6e7edc43aa278f4d5562d8c4afd57db8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --max-degree 2": (
        0, "15b108c38ea163462b8626a4bd27626e0d1b3245b081086c1e807567142802a4",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --max-degree 2 --json": (
        0, "86d3e696107a6582c7658c9a1d6f50da3e6cd8c1a620894c16cdfe8176bdbf72",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --naive --max-degree 2": (
        0, "6e327791f300e227a4ffac7db68c921bfb799fc7edbdcf7f56f856e057f50fe9",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep adjoint --naive --max-degree 2 --json": (
        0, "0f40dc055a9d7160498ad769e54e0594a9e823e4f387f16c5ac9e3dc0c9b206d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --compare --max-degree 2": (
        0, "69ca7fce499eda140b329cdb2b4213e56d1fa8fe7edf30c38ad173e8a7235924",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --compare --max-degree 2 --json": (
        0, "230d875a63a2aad01689a5cf9880128e306b564f4d2901e7698fb264e62d359e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --max-degree 2": (
        0, "b9fe572b6ad4f677d02d372826211de787e678eb0b9bdf2e830c849a916aedcb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --max-degree 2 --json": (
        0, "d2c2f9ff2a3192dc73c1ba00a2857f6792c905aa648c68ad30782117f69c3ecb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --naive --max-degree 2": (
        0, "212f3b139dbeab4303c4b6d118433fc8a2493bb58282bacf90bbbfed8700f7b7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_L2_l0.json --rep trivial --naive --max-degree 2 --json": (
        0, "34c4d4ac6d10075eb268cfb2e63cabe1b465550f594daa1b8bf27dbe5ea1d2c3",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --compare --max-degree 2": (
        0, "13bae91413defdd20c84ea970fb52ce4cf5eb0dc2c7f51c275068148245f1ae6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --compare --max-degree 2 --json": (
        0, "afae07027099aa3d441449d9cc7ffbdbe5450c28ffe1285f8dbc64ee84a34820",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --max-degree 2": (
        0, "bfff4cab8c2b14b101500af74cf3949f50aac376acda2b9be4ed673b9245d98a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --max-degree 2 --json": (
        0, "b5e848bd4eb0c06224f761f603e0e385d6cfdf2a3fd586f5d267ddb32de2b9e7",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --naive --max-degree 2": (
        0, "238efe2758c81e730407e5cb89d09d580fbde9bcd7cb37b4ebdab417dfd4a8e6",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep adjoint --naive --max-degree 2 --json": (
        0, "f29c8219a5d51ab786fd007fba13abe98b5a4dc51341649317f99bf5563f9277",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --compare --max-degree 2": (
        0, "9f389e1df4ff33dae2c3c76bf8ab7a4b43e8ca2339623cfe32602f6a98dabe16",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --compare --max-degree 2 --json": (
        0, "222c57c6f25e379e86a8182e927fff73d848c10b8c9c4f449cf685c547920c34",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --max-degree 2": (
        0, "22074f86e4458f18459cd71f0104f86cf5fdac9c3c7f902f44fa6c2a91daba1b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --max-degree 2 --json": (
        0, "5dccf8b1cb4f75e824da573555203a9c52a3b772b0ad56783a4766695f93c654",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --naive --max-degree 2": (
        0, "86e9ab96a723dc99fb56e8b471e3151fb4f81a2f000b97aa664793a48f608242",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/semidirect_heis3_lr.json --rep trivial --naive --max-degree 2 --json": (
        0, "ec089efd1f81386760c1a66a6340fec981522c161f42e6325d7dada06686c61d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --compare --max-degree 2": (
        0, "23788f5bf61f3c2df2960eee91f480a749ba76bc8026e2460193e66ac14ca312",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --compare --max-degree 2 --json": (
        0, "4028896e1f28d2535b15dcd2753bfadfb1375e57655c9b4895b30aaa2b106e13",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --max-degree 2": (
        0, "c50d4bd5d5345cc87ad6d80aa31ab8f97548c558822b98918222b872e4d04ce1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --max-degree 2 --json": (
        0, "6b6430be02b49f2c7c9d0e97b70a19f2238e84ce603d8ecf44356cdfab858a79",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --max-degree 7": (
        0, "219a6b3a516a28cce1e40e73e10822c358e5f769fb96ede35d3db50bac83c471",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --max-degree 8": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2bcd8baf36e1e57f88ccb2cb217641186aca030380c2932ca7fea8b7acafde1f"),
    "cohomology fixtures/sl2.json --rep adjoint --naive --max-degree 2": (
        0, "85778a1b21a8dbb4e0bc2922e69c06893ae3da9f676c913098dcd5269c406423",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep adjoint --naive --max-degree 2 --json": (
        0, "02ff40229741c6907db2579ad8965f78dae185c5c617bb78a75ad4260f6a0565",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --compare --max-degree 2": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --compare --max-degree 2 --json": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "841e8604029ec0e74028a687b8dd5989e4e229f373e2997fa18559e505a2c41b"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --max-degree 2": (
        0, "df812dbfc28154d44885f373e37f57f17048c249c4c2a5c7d4e2b84935f6165e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --max-degree 2 --json": (
        0, "a144dc56e9049cb583319c306951c40d5a0ae5944c22c49b0af93655cb36462e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --naive --max-degree 2": (
        0, "85778a1b21a8dbb4e0bc2922e69c06893ae3da9f676c913098dcd5269c406423",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep fixtures/rep_adjoint_sl2.json --naive --max-degree 2 --json": (
        0, "553edcdb09af6935062057be76e220fb84f779b595281e5992618b52825653f8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --compare --max-degree 2": (
        0, "c84924e5e290305ef1e2cb5e0225607a067a8e7b126abf793e5398b367effcee",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --compare --max-degree 2 --json": (
        0, "5272d0bfac4414757060d30f3da72eeedf28a64d8fc3ee979cf15e5706e174eb",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --max-degree 2": (
        0, "fc7d33846cc98316955ba83bbb40c5ccf9e5ba3722e387d69b63f7e30028cb08",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --max-degree 2 --json": (
        0, "61cd4210e29ab31d659454bdfab6f8b75d88d78f70eac77ef724bf0cc6897a2e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --max-degree 8": (
        0, "306d4607c1a576063e7d0028616af9920d3c6201ec12e8297b4d94a24fabbb8d",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --max-degree 9": (
        3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "2bcd8baf36e1e57f88ccb2cb217641186aca030380c2932ca7fea8b7acafde1f"),
    "cohomology fixtures/sl2.json --rep trivial --naive --max-degree 2": (
        0, "8d3bd588619034aa0bd2025e3c170af86545346c093d018f25e018ad9c69ce0e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "cohomology fixtures/sl2.json --rep trivial --naive --max-degree 2 --json": (
        0, "3e9e61d60ed93372b5f424531c87be6fd7a2b681b5ed132051cc8587f7c7f489",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_L2.json": (
        0, "21dd784218b7b1952f108e90c9dc7840dda352bdd371d8dfbcf75a1bd3b9f720",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_L2.json --json": (
        0, "935e6e61e707160c66f16df2f78defa3c6c749796572c381db188d7d9e67f473",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_bad.json": (
        1, "e3fbd3ca13fb752636b4045b424245352dd0a60a6768f12e717612e6003d2f72",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_bad.json --json": (
        1, "286f2df44c4c4029ae177e76218df5eae8b40d0f2b6e3c8edd5287c925fcf87e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_heis3.json": (
        0, "21dd784218b7b1952f108e90c9dc7840dda352bdd371d8dfbcf75a1bd3b9f720",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph fixtures/graph_heis3.json --json": (
        0, "198f4d735b886fe47bec0aa6c2aa9e03df1a95a3601884331ec7083d1a5a3832",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/L2.json fixtures/rep_adjoint_L2.json": (
        0, "6a2231d9ec71fc6bdf7a05caf627fd80c89ca1023df4515ef65e94c22cbc8888",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/L2.json fixtures/rep_adjoint_L2.json --json": (
        0, "439d626cb83d5ad56dd90abd817902454bab13b52148650fb940ad9f9110530f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/L2.json fixtures/rep_bad_L2.json": (
        1, "68555a428ce9b86d36390781946c822f095d037fc9f487211aa9762665391e8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/L2.json fixtures/rep_bad_L2.json --json": (
        1, "6bbbbe18f9a5d557dc74305c8d1c9253b6c2235b73d9c757aae78ee8154fe0d0",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/heis3.json fixtures/rep_adjoint_heis3.json": (
        0, "6a2231d9ec71fc6bdf7a05caf627fd80c89ca1023df4515ef65e94c22cbc8888",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/heis3.json fixtures/rep_adjoint_heis3.json --json": (
        0, "1046bf3408a47c1ad95c7baf15ddf3687252ea21531124aa199e10c174761aed",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/sl2.json fixtures/rep_adjoint_sl2.json": (
        0, "6a2231d9ec71fc6bdf7a05caf627fd80c89ca1023df4515ef65e94c22cbc8888",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mc fixtures/sl2.json fixtures/rep_adjoint_sl2.json --json": (
        0, "7111415d741338829d58fb2efe63d9f18b82b046a012ad5060265b159d8ddf65",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "omni --dim -1": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "908d72b9de724858509c2008fd49c8793c03f941ba2df641b1066a3264def7f5"),
    "semidirect fixtures/L2.json fixtures/rep_bad_L2.json --mode l0": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68555a428ce9b86d36390781946c822f095d037fc9f487211aa9762665391e8f"),
    "semidirect fixtures/L2.json fixtures/rep_bad_L2.json --mode lr": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "68555a428ce9b86d36390781946c822f095d037fc9f487211aa9762665391e8f"),
    "semidirect fixtures/heis3.json fixtures/rep_adjoint_L2.json --mode l0": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "79708869aedfb3927962eaf522d10d7deae3d124732277a61c5af3bf783ff61d"),
    "semidirect fixtures/heis3.json fixtures/rep_adjoint_L2.json --mode lr": (
        2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "79708869aedfb3927962eaf522d10d7deae3d124732277a61c5af3bf783ff61d"),
}
