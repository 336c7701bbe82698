"""Command-line front end.

Commands read algebra/representation/graph JSON from files or stdin ("-")
with ``serialize.read_json``, and print either human-readable summaries or
one JSON document and nothing else (``serialize.write_json``): the run
report with --json, or the algebra where the result is itself one, so
commands compose in pipelines:

    leibniz-kit omni --dim 2 | leibniz-kit check -

Each identity check is stated by ``_Run.verdict``; a failed one prints up to five witnesses.

``main`` is the one run boundary.  It builds the ``_Run``, calls the
command's handler, and turns the outcome into the exit code, every one
through ``_Run.finish``; a handler prints no verdict of its own and returns
no code.  Exit codes: 0 all checks passed; 1 a mathematical check failed, or
a premise was refused (``algebra.Refused``), by the handler or inside any
library call; 2 malformed input (``serialize.SchemaError``, or argparse);
3 resource cap exceeded.  Any other exception is a fault of the program and
ends the run with its traceback.  A closed stdout or stderr does not change
the code.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import fixtures as fixture_corpus
from .algebra import (
    Refused,
    derived_subalgebra,
    is_lie,
    left_center,
    require,
    square_in_center_check,
)
from .cohomology import (
    DEFAULT_CAP,
    ResourceCapExceeded,
    adjoint_rep,
    betti,
    maurer_cartan_check,
    semidirect,
    trivial_rep,
)
from .lie2 import build_lie2, check_jacobiator_identities, verify_lie2
from .omni import (
    compare_adjoint,
    compare_trivial,
    induced_leibniz,
    matching_naive_image,
    omni_lie,
)
from .serialize import (
    SCHEMA,
    SchemaError,
    _echo,
    algebra_from_json,
    algebra_to_json,
    betti_to_json,
    comparison_to_json,
    graph_from_json,
    lie2_to_json,
    read_json,
    representation_from_json,
    scalar_to_str,
    tensor_to_json,
    write_json,
)

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3

CAP_ENV_VAR = "LEIBNIZ_KIT_CAP"


def _cap() -> int:
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_CAP
    try:
        value = int(raw)
    except ValueError:
        raise SchemaError(f"{CAP_ENV_VAR} must be an integer, got {_echo(raw)}")
    if value <= 0:
        raise SchemaError(f"{CAP_ENV_VAR} must be positive")
    return value


def _out(text: str, stream=None) -> None:
    """Print a line on stdout, or on ``stream``: every line on stderr comes
    here too.  A reader that closes the pipe early, as ``| head`` does, does
    not end the run: the rest of that stream goes to os.devnull, and the run
    exits with the code its checks give."""
    stream = stream or sys.stdout
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


class _Run:
    """Collects inputs, results and timing for the final report.  A command
    that prints a document or lines instead (``emits``, without --json) puts
    them in ``emitted``: stdout holds them alone, or nothing when it fails."""

    def __init__(self, args):
        self.command = args.command
        self.json_mode = getattr(args, "json", False)
        self.emits = getattr(args, "emits", False) and not self.json_mode
        self.emitted: list[str] = []
        self.inputs: list[dict] = []
        self.results: dict = {}
        self.started = time.perf_counter()
        self.failures: list[str] = []

    def read_document(self, source: str, what: str) -> dict:
        label = "<stdin>" if source == "-" else source
        try:
            raw = sys.stdin.buffer.read() if source == "-" else Path(source).read_bytes()
        except OSError as exc:
            raise SchemaError(f"cannot read {what} from {source}: {exc}")
        self.inputs.append({"source": label,
                            "sha256": sha256(raw).hexdigest()})
        return read_json(raw, label)

    def say(self, line: str) -> None:
        if not self.json_mode:
            _out(line)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def verdict(self, key: str, label: str, report) -> bool:
        """Record whether an ``IdentityReport`` holds as ``results[key]``, say
        ``label: ok``, or ``label: FAILED`` and up to five witnesses, and
        return whether it holds; the caller words its own failure."""
        self.results[key] = report.holds
        self.say(f"{label}: {'ok' if report.holds else 'FAILED'}")
        if not report.holds:
            for line in _witness_lines(report):
                self.say(line)
        return report.holds

    def finish(self, code: Optional[int] = None, line: str = "") -> int:
        """End the run and give its exit code.  An input error or the cap
        gives its ``code`` with ``line`` on stderr.  Otherwise print the
        emitted lines, or the run report, or without --json each failure or
        "ok"; an emitting run prints its failures on stderr."""
        if code is not None:
            _out(line, sys.stderr)
            return code
        failed = [f"FAILED: {message}" for message in self.failures]
        if self.emits:
            for text in failed or self.emitted:
                _out(text, sys.stderr if failed else None)
        elif self.json_mode:
            _out(write_json({
                "schema": SCHEMA,
                "command": self.command,
                "inputs": self.inputs,
                "results": self.results,
                "failures": self.failures,
                "elapsed_s": round(time.perf_counter() - self.started, 6),
                "status": "fail" if self.failures else "pass",
            }))
        else:
            for text in failed or ["ok"]:
                _out(text)
        return EXIT_CHECK_FAILED if self.failures else EXIT_OK


def _format_defect(defect) -> str:
    if defect and isinstance(defect[0], tuple):
        return "[" + "; ".join(_format_defect(row) for row in defect) + "]"
    return "(" + ", ".join(scalar_to_str(x) for x in defect) + ")"


def _witness_lines(report) -> list[str]:
    shown = report.witnesses[:5]
    lines = [f"  witness {w.label or 'defect'} at {w.where}: {_format_defect(w.defect)}"
             for w in shown]
    if len(report.witnesses) > len(shown):
        lines.append(f"  ... and {len(report.witnesses) - len(shown)} more")
    return lines


def cmd_check(run, args) -> None:
    g = algebra_from_json(run.read_document(args.algebra, "algebra"))
    leib = g.verdict
    run.results["dim"] = g.dim
    run.say(f"dimension: {g.dim}")
    if not run.verdict("leibniz", "Leibniz identity", leib):
        run.fail(f"Leibniz identity fails on {len(leib.witnesses)} basis triples; "
                 f"first witness at {leib.witnesses[0].where}")
    z = left_center(g)
    basis = tensor_to_json(z.basis)
    run.results["left_center_dim"] = z.dim
    run.results["left_center_basis"] = basis
    basis_note = ""
    if z.dim:
        basis_note = ", basis " + " ".join("(" + ", ".join(v) + ")" for v in basis)
    run.say(f"left center: dim {z.dim}{basis_note}")
    der = derived_subalgebra(g)
    run.results["derived_dim"] = der.dim
    run.say(f"derived subalgebra: dim {der.dim}")
    if not run.verdict("squares_in_left_center", "squares in left center",
                       square_in_center_check(g)):
        run.fail("some square [x,x] acts nontrivially on the left")
    lie = is_lie(g)
    run.results["lie"] = lie
    run.say(f"Lie algebra: {'yes' if lie else 'no'}")


def cmd_lie2(run, args) -> None:
    g = algebra_from_json(run.read_document(args.algebra, "algebra"))
    require(g)
    if not run.verdict("jacobiator_identities", "Jacobiator identities",
                       check_jacobiator_identities(g)):
        run.fail("Jacobiator identities failed")
    L = build_lie2(g)
    broken = {w.label for w in verify_lie2(L).witnesses}
    run.results["dim1"] = L.dim1
    run.results["dim0"] = L.dim0
    run.results["axioms"] = {name: name not in broken for name in "abcde"}
    if run.json_mode:  # plain runs print no JSON, so none is built
        run.results["lie2"] = lie2_to_json(L)
    run.say(f"graded pieces: degree 1 of dim {L.dim1}, degree 0 of dim {L.dim0}")
    for name in "abcde":
        run.say(f"axiom ({name}): {'FAILED' if name in broken else 'ok'}")
    if broken:
        run.fail(f"axioms failed: {', '.join(sorted(broken))}")


def _resolve_representation(run, args, g):
    if args.rep == "trivial":
        return trivial_rep(g), "trivial"
    if args.rep == "adjoint":
        return adjoint_rep(g), "adjoint"
    doc = run.read_document(args.rep, "representation")
    return representation_from_json(g, doc), args.rep


def _betti_table(run, label, report):
    run.say(f"{label}:")
    run.say("  k  dim_C  rank_d  dim_ker  dim_H")
    for d in report.degrees:
        run.say(f"  {d.k}  {d.dim_cochains:5d}  {d.rank_d:6d}  "
                f"{d.dim_ker:7d}  {d.dim_h:5d}")


def cmd_cohomology(run, args) -> None:
    if args.compare and args.max_degree < 1:
        raise SchemaError("--compare needs --max-degree >= 1: the comparison "
                          "starts at degree 1")
    if args.compare and args.rep not in ("trivial", "adjoint"):
        raise SchemaError("--compare supports only --rep trivial or adjoint")
    cap = _cap()
    g = algebra_from_json(run.read_document(args.algebra, "algebra"))
    rep, rep_label = _resolve_representation(run, args, g)
    builtin = rep_label in ("trivial", "adjoint")
    # betti checks a built-in representation, or the one it ranks instead
    require(g, None if builtin else rep)
    k_max = args.max_degree
    run.results["rep"] = rep_label
    run.results["max_degree"] = k_max

    if args.compare:
        if rep_label == "trivial":
            comparison = compare_trivial(g, k_max, cap)
        else:
            comparison = compare_adjoint(g, k_max, cap)
        run.results["comparison"] = comparison_to_json(comparison)
        run.say("naive vs classical cohomology:")
        run.say("  k  naive  classical  equal")
        for row in comparison.rows:
            marker = " (informational)" if row.k == 0 else ""
            run.say(f"  {row.k}  {row.dim_naive:5d}  {row.dim_classical:9d}  "
                    f"{str(row.equal).lower()}{marker}")
        for note in comparison.notes:
            run.say(f"  note: {note}")
        if not comparison.all_equal:
            run.fail("dimensions differ in some degree >= 1")
        if not comparison.side_checks_ok:
            run.fail("chain-level correspondence check failed")
        return

    if args.naive:  # the naive complex is that of the image representation
        rep = matching_naive_image(g, rep_label if builtin else rep, k_max, cap)
        if rep is None:
            run.results["naive"] = {"zero_complex": True}
            run.say("derived subalgebra is all of g: the naive complex is zero")
            return
    report = betti(rep, k_max, cap)
    run.results["naive_betti" if args.naive else "betti"] = betti_to_json(report)
    _betti_table(run, "naive cohomology" if args.naive else f"cohomology ({rep_label})", report)


def cmd_mc(run, args) -> None:
    g = algebra_from_json(run.read_document(args.algebra, "algebra"))
    rep = representation_from_json(g, run.read_document(args.representation,
                                                        "representation"))
    require(g, rep)
    if not run.verdict("maurer_cartan", "Maurer-Cartan identity",
                       maurer_cartan_check(g, rep)):
        run.fail("Maurer-Cartan identity failed")


def cmd_semidirect(run, args) -> None:
    g = algebra_from_json(run.read_document(args.algebra, "algebra"))
    rep = representation_from_json(g, run.read_document(args.representation,
                                                        "representation"))
    run.emitted = [write_json(algebra_to_json(semidirect(g, rep, args.mode)))]


def cmd_omni(run, args) -> None:
    run.emitted = [write_json(algebra_to_json(omni_lie(args.dim)))]


def cmd_graph(run, args) -> None:
    phi = graph_from_json(run.read_document(args.graph, "graph map"))
    if run.emits:  # without --json, stdout holds the induced algebra alone
        run.emitted = [write_json(algebra_to_json(induced_leibniz(phi)))]
    elif not run.verdict("closes", "graph closure [phi(u), phi(v)] = phi(phi(u) v)",
                         phi.verdict):
        run.fail("graph map does not close")
    elif args.emits:
        run.results["induced_algebra"] = algebra_to_json(induced_leibniz(phi))


def cmd_fixtures(run, args) -> None:
    if not args.dest:
        run.emitted = sorted(fixture_corpus.corpus())
        return
    try:
        run.emitted = fixture_corpus.write_corpus(args.dest)
    except OSError as exc:
        raise SchemaError(f"cannot write the corpus to {args.dest}: {exc}")


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-kit",
        description="Exact calculator for Leibniz algebras: structure checks, "
                    "two-term graded algebras, cohomology, omni algebras and "
                    "naive representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true",
                       help="print a machine-readable run report")

    p = sub.add_parser("check", help="validate an algebra file")
    p.add_argument("algebra", help="algebra JSON file, or - for stdin")
    add_json(p)
    p.set_defaults(handler=cmd_check)

    p = sub.add_parser("lie2", help="build and verify the two-term graded algebra")
    p.add_argument("algebra")
    add_json(p)
    p.set_defaults(handler=cmd_lie2)

    p = sub.add_parser("cohomology", help="Betti numbers and theorem comparisons")
    p.add_argument("algebra")
    p.add_argument("--rep", default="trivial",
                   help="'trivial', 'adjoint', or a representation JSON file")
    p.add_argument("--max-degree", type=_nonnegative_int, default=3)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--naive", action="store_true",
                      help="compute the naive complex instead of the classical one")
    mode.add_argument("--compare", action="store_true",
                      help="compare naive and classical dimensions degree by degree")
    add_json(p)
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("mc", help="check the Maurer-Cartan identity for the right action")
    p.add_argument("algebra")
    p.add_argument("representation")
    add_json(p)
    p.set_defaults(handler=cmd_mc)

    p = sub.add_parser("semidirect", help="emit a semidirect product algebra")
    p.add_argument("algebra")
    p.add_argument("representation")
    p.add_argument("--mode", choices=("lr", "l0"), default="lr")
    p.set_defaults(handler=cmd_semidirect, emits=True)

    p = sub.add_parser("omni", help="emit the omni algebra of Q^m")
    p.add_argument("--dim", type=_nonnegative_int, required=True)
    p.set_defaults(handler=cmd_omni, emits=True)

    p = sub.add_parser("graph", help="check closure of a map V -> gl(V)")
    p.add_argument("graph")
    p.add_argument("--emit-algebra", dest="emits", action="store_true",
                   help="print the induced algebra when the graph closes")
    add_json(p)
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("fixtures", help="list or export the built-in corpus")
    p.add_argument("--dest", help="directory to write the corpus into")
    p.set_defaults(handler=cmd_fixtures, emits=True)

    return parser


def main(argv=None) -> int:
    """Run one command and give its exit code: the one run boundary."""
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        args.handler(run, args)
    except Refused as exc:
        run.fail(str(exc))
    except SchemaError as exc:
        return run.finish(EXIT_INPUT_ERROR, f"input error: {exc}")
    except ResourceCapExceeded as exc:
        return run.finish(EXIT_RESOURCE_CAP, f"resource cap: {exc} (override with {CAP_ENV_VAR})")
    return run.finish()
