"""Golden output: the stdout and exit code of CLI commands whose output is
a whole algebra or a whole report, pinned by sha256.

The digests were computed when the structure tensors were stored densely;
a change of storage or of the JSON writer must leave every byte of these
outputs as it was.  ``elapsed_s`` is the one field masked.  Commands run in
process through ``cli.main``, from the repository root, so the input paths
in the ``--json`` reports are the same on every checkout.
"""

from __future__ import annotations

import hashlib
import io
import re
import sys

import pytest

from leibniz_kit import fixtures as corpus
from leibniz_kit.cli import main

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
        for flags in ((), ("--emit",), ("--json",)):
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

# (exit code, sha256 of stdout) per case
GOLDEN = {
    "graph graph_L2 --emit-algebra": (0, "ab7e354f15d9de267590bfefc10c082d7f191a638d70542a52441e5f6311f0f1"),
    "graph graph_bad --emit-algebra": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "graph graph_heis3 --emit-algebra": (0, "67f9ad879dae2282fd76aa94e70387843efdc65243edbae2871a62ca4bad7a4f"),
    "lie2 L2 --emit": (0, "836593407753292fb30a7149d9f2940a0b31b7496686d42c44ac478825abcfd3"),
    "lie2 L2 --json": (0, "2727d60554e1d5307e35f072693099b4ae42af1fe5fef603ee36b756197dec31"),
    "lie2 L2": (0, "ba15bf183327dbb77a74b422ccad2b3faa380506ecde3ef8ace80cd94ad285ee"),
    "lie2 abelian1 --emit": (0, "f53a52ae81594bb1dc255bfe6f855bcc3a8b6db7267a1d14cd62325ee265fe55"),
    "lie2 abelian1 --json": (0, "1301bc27d418386dd9fdfe3625c73834c65d7c570a4b46561ec7c761658cc327"),
    "lie2 abelian1": (0, "1e74d1b6d94b5f4920e300eb88630916d176cab7eea90da7fecc6cb221cfc9a7"),
    "lie2 abelian2 --emit": (0, "ffc183b940a2142a30ce19728d1aa440e3128e02bef1ad4370fadd2e1b1bde76"),
    "lie2 abelian2 --json": (0, "7b1122c1d35a57ed35f29ca3fb98cb5b64a24e006fed8379eb3e6b94b40a22bc"),
    "lie2 abelian2": (0, "03e3fdfe3d6bd6b1572f09591d04369320510d77e965b107bef95326d87ffa1d"),
    "lie2 abelian3 --emit": (0, "b1ee9bb4cb6e9bb67e24c5557b34db077adb0df34efdca90547f9ccd22228e8d"),
    "lie2 abelian3 --json": (0, "f6a35a0c1190ec10aa4f92a51f913b6c0da398e5c8e6a83df2440d71f7d59956"),
    "lie2 abelian3": (0, "d0409e542310823e206e056bd94fc475de5bd880a2330c799e4316e3be5ebfad"),
    "lie2 heis3 --emit": (0, "1f44ab76395c8b0f9719adc511f1cd9026ce81df106e51b3fa3992efea29360d"),
    "lie2 heis3 --json": (0, "e63e07a7757695a2641cdc3c93aa1a2872c92f9087a4c679ca4ea8f72be3f191"),
    "lie2 heis3": (0, "ec5c9b5df1a8a2ba693d00e7b825d2ddfc9e0ea8a6d2646044ccdd96d423e023"),
    "lie2 omni1 --emit": (0, "557a66f01b1cfcfa135cb72c1a21fea7d684b4425f763e1b9e6e4fca32f3cd99"),
    "lie2 omni1 --json": (0, "de7eae5559caf6807bec84d813970d55b34aefebd6ba1427fb0161f0f967ebc8"),
    "lie2 omni1": (0, "ba15bf183327dbb77a74b422ccad2b3faa380506ecde3ef8ace80cd94ad285ee"),
    "lie2 omni2 --emit": (0, "bd402d11865574f2a6aa7ae47eab90ff97e4fcbbdc6324ac0177ee1f7a441680"),
    "lie2 omni2 --json": (0, "3681ee1cd9a497b48e6f73c5182c5bffe242ca29e793d38c2ce5114505bf2155"),
    "lie2 omni2": (0, "b4119b075a96e35dfdfa8d0057deae61b5f93723f3e70d63d462b1499d9a4c9f"),
    "lie2 omni3 --emit": (0, "52f9069419d7835f51b651370661508c98754f542be13c4d1b6c79cab4afdea0"),
    "lie2 omni3 --json": (0, "b0b888e6fde6cdceb29c4e8a577570a29d593f1b43f57131d2250a4928a7b3f5"),
    "lie2 omni3": (0, "c9f3076d542143394d82b54706ab0fb744a5a11c701aabc56579d932c5c421b1"),
    "lie2 semidirect_L2_l0 --emit": (0, "66c46e681db8fde61d47a48b3dcfed1c790afe08bbac19188c03d1a6cc872f8f"),
    "lie2 semidirect_L2_l0 --json": (0, "4be5bb76ce8bfbc6d3d980220eaa39c1994560a1a4c8f7e7f9b3a3d0653300b6"),
    "lie2 semidirect_L2_l0": (0, "81f8c7f3665ca25dcb11d0627e7970afbcbb1aab59b4f2974d13025d06fe1295"),
    "lie2 semidirect_heis3_lr --emit": (0, "afb24c554c6ee33ff3dc9978cc79c66a897129ec74c14f686e2b92abc04e6843"),
    "lie2 semidirect_heis3_lr --json": (0, "4b9a2f56050a47e8a939ea7b637f86bbdea963a3467d5219ff4200497b27b98c"),
    "lie2 semidirect_heis3_lr": (0, "b4119b075a96e35dfdfa8d0057deae61b5f93723f3e70d63d462b1499d9a4c9f"),
    "lie2 sl2 --emit": (0, "4a7626ab293e83a5650ec1b7b7edd0e2a626dd44aaf9f8f728f5863eda822aa6"),
    "lie2 sl2 --json": (0, "b0051daba616fe20b0961c912cb5a86ffd44649223198ae771edd77656220d2c"),
    "lie2 sl2": (0, "57f8a64e455b7ace83d8d66b59491b970f6366c6726b2c71a498130c549630d4"),
    "omni --dim 0": (0, "26ba429262c183015d604a7521038305510928a89ad6d1486df8ec5441bd2e4b"),
    "omni --dim 1": (0, "628852b06a23ca76c0a8360fb8c8cc59bb8728dc1ce6be6a8166cafbb541644e"),
    "omni --dim 2": (0, "7074cf555b74351270582fc77bf93ab9ac66bdde71365f6ca84030993c68c1b0"),
    "omni --dim 3": (0, "a56359c33e8c13b2e03c68a968e7de36e410766b8f6dbad78ac67725e6ddf167"),
    "omni --dim 4": (0, "03e5779e121a3e150ddbe9b99972b6175f41f30931e842294da53ab121d47cee"),
    "semidirect L2 --mode l0": (0, "3fe302229d802d1f78fe2b4d0859a34ddb957a2fe4454e8b15496d4887a2c227"),
    "semidirect L2 --mode lr": (0, "9b4439b14e5349af19c80beee6c6da6e8df28f426b5bc3cc686a8036e1e0064d"),
    "semidirect heis3 --mode l0": (0, "32a30467a37f84b1bea0824a82b4be13b9b04f8f3cadd2fbe0a874389bc7ef98"),
    "semidirect heis3 --mode lr": (0, "8b146570f7a343230f69bfa9f5a89e16ea80930b97c02a6982d5351d7824b580"),
    "semidirect sl2 --mode l0": (0, "e4221cf66ef3bd0ce8d7366bd0e2341e32f4484e31c059d74d2ef1cb74bf9b97"),
    "semidirect sl2 --mode lr": (0, "41093533db8dc2e76f8f113fcc3455910b5f1548ebc5ac648b2c6ca02763412f"),
}


def _run(monkeypatch, capsys, argv, stdin_bytes=b""):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin_bytes)))
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_is_unchanged(case, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    argv, stdin = CASES[case]
    stdin_bytes = b""
    if stdin == "omni3":
        code, out = _run(monkeypatch, capsys, ["omni", "--dim", "3"])
        assert code == 0
        stdin_bytes = out.encode("utf-8")
    code, out = _run(monkeypatch, capsys, argv, stdin_bytes)
    digest = hashlib.sha256(_ELAPSED.sub('"elapsed_s": 0', out).encode("utf-8")).hexdigest()
    assert (code, digest) == GOLDEN[case]
