"""Benchmark of the leibniz-kit command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is taken from the
checkout's ``src`` directory and every command is a fresh
``python -m leibniz_kit`` process.  One benchmark process is the only client
and runs one command at a time, waiting for each to exit (a closed loop with
one client).  A pass is one run of the workload's list of commands; passes
repeat until the next one would end after S seconds, and at least one runs.

Inputs are fixture algebras moved into a new basis (see gen.py) and written
as JSON files under perfbench/_work, which is removed at exit.  The program
only sees those files.  Every output is checked against values pinned on the
untransported fixtures; a command with a nonzero exit (3, the resource cap,
included) or a wrong output counts as failed.

With --trace 0 the last line carries the end-to-end metrics: pass_s (median
wall time of a pass), cpu_s (median user+sys CPU of a pass's processes),
setup_s (median time for a fresh interpreter to import leibniz_kit.cli) and
peak_rss_mb (median over passes of the largest resident set of any command).
Set-up time is sampled five times before the passes and once before each
command of an untraced pass.  Successive processes alternate between the
CPUs the benchmark may use (see Context).

With --trace 1 untraced and traced passes alternate; traced commands go
through launch.py, and the last line carries LAYER_METRICS: the span
metrics of spans.SPAN_METRICS plus the bytes read and written, the tracing
overhead and the share of compute spent in the workload's focus layers.  A
function the program no longer defines is reported with value null.

The line before the last is a JSON report with the environment, each
metric's sample count, the pass_s tail percentile when a run has enough
passes for one, and the failure ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
# No command of a healthy program comes near this; past it a run is cut so
# that the benchmark always exits within its time limit.
RUN_LIMIT_S = 160.0

# Values computed on the untransported fixtures.  None of them depends on the
# basis, so every transported input must reproduce them.
BETTI_ADJOINT_3 = {"omni2": [2, 0, 0, 0], "sl2": [0, 0, 0, 0],
                   "heis3": [1, 4, 8, 17]}
COMPARE_OMNI2_2 = [2, 0, 0]
LIE2_OMNI3 = {"dim1": 3, "dim0": 12}
CHECK_OMNI4 = {"dim": 20, "left_center_dim": 4, "derived_dim": 19}


class SetupError(Exception):
    """The benchmark cannot run here: no program, or a generated input is wrong."""


@dataclass
class Command:
    argv: list                                # arguments after `python -m leibniz_kit`
    check: Optional[Callable[[dict], bool]]   # applied to the parsed --json report
    reads: list = field(default_factory=list)
    writes: Optional[Path] = None             # stdout goes to this file


@dataclass
class Workload:
    focus: tuple          # modules expected to hold the compute
    build: Callable       # (Context, seed rng) -> list[Command]


# ---------------------------------------------------------------------------
# output checks

def _betti_ok(expected):
    def check(report):
        degrees = report["results"]["betti"]["degrees"]
        return report["status"] == "pass" and [d["dim_H"] for d in degrees] == expected
    return check


def _compare_ok(report):
    comp = report["results"]["comparison"]
    rows = comp["degrees"]
    return (report["status"] == "pass" and comp["side_checks_ok"] is True
            and comp["all_equal_from_degree_1"] is True
            and all(r["equal"] for r in rows)
            and [r["dim_classical"] for r in rows] == COMPARE_OMNI2_2)


def _lie2_ok(report):
    res = report["results"]
    return (report["status"] == "pass" and res["jacobiator_identities"] is True
            and all(res["axioms"][a] is True for a in "abcde")
            and {k: res[k] for k in LIE2_OMNI3} == LIE2_OMNI3)


def _check_omni4_ok(report):
    res = report["results"]
    return (report["status"] == "pass" and res["leibniz"] is True
            and {k: res[k] for k in CHECK_OMNI4} == CHECK_OMNI4)


def _algebra_ok(report):
    return report["status"] == "pass" and report["results"]["leibniz"] is True


def output_ok(check, code: int, stdout: bytes) -> bool:
    """Exit code 0 and, when there is a check, a --json report that passes it."""
    if code != 0:
        return False
    if check is None:
        return True
    try:
        return bool(check(json.loads(stdout)))
    except (ValueError, KeyError, TypeError, IndexError):
        return False


# ---------------------------------------------------------------------------
# processes

@dataclass
class Outcome:
    code: int
    stdout: bytes
    wall: float
    cpu: float
    rss_mb: float


class Context:
    """Where a run keeps its files, and how it starts the program."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # An installed program has its bytecode compiled once; let the first
        # (untimed) commands write it so that set-up time never includes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.corpus = work / "corpus"
        # Other tenants slow each CPU of a shared machine independently, for
        # seconds at a time.  Successive processes of one kind (set-up
        # samples, other commands) alternate between the CPUs this benchmark
        # may use, so that a slow CPU costs every run alike instead of
        # deciding whole runs.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turns = {"setup": 0, "command": 0}

    def spawn(self, argv: list, stdout_path: Optional[Path] = None,
              kind: str = "command") -> Outcome:
        """Run one process to completion and return its exit code and usage."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise SetupError(f"run exceeded {RUN_LIMIT_S:.0f} s")
        # The child inherits the affinity, and this process only waits for it.
        os.sched_setaffinity(0, {self.cpus[self.turns[kind] % len(self.cpus)]})
        self.turns[kind] += 1
        out = open(stdout_path, "wb") if stdout_path else None
        try:
            with open(self.work / "stderr.txt", "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stderr=err,
                                        stdout=out or subprocess.PIPE)
                timer = threading.Timer(remaining, proc.kill)
                timer.start()
                try:
                    data = b"" if out else proc.stdout.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    timer.cancel()
                    if proc.stdout:
                        proc.stdout.close()
                wall = time.perf_counter() - start
        finally:
            if out:
                out.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Outcome(proc.returncode, data, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_maxrss / 1024.0)

    def cli(self, *args, stdout_path: Optional[Path] = None) -> Outcome:
        return self.spawn([sys.executable, "-m", "leibniz_kit", *map(str, args)],
                          stdout_path)

    def stderr_tail(self) -> str:
        return (self.work / "stderr.txt").read_text(errors="replace")[-2000:]


# ---------------------------------------------------------------------------
# inputs

def _fixture(ctx: Context, name: str) -> list:
    path = ctx.corpus / f"{name}.json"
    if not path.exists():
        ctx.corpus.mkdir(exist_ok=True)
        if name == "omni3":
            ran = ctx.cli("omni", "--dim", "3", stdout_path=path)
        else:
            ran = ctx.cli("fixtures", "--dest", ctx.corpus)
        if ran.code != 0 or not path.exists():
            raise SetupError(f"cannot produce fixture {name}: {ctx.stderr_tail()}")
    return gen.read_algebra(path)


def _write_input(ctx: Context, label: str, source: list, b: list, dense: bool) -> Path:
    """Transport, write and validate one algebra; generation is not timed."""
    c = gen.transport(source, b)
    if dense:
        if not (gen.is_dense(c) and gen.nnz(c) > gen.nnz(source)):
            raise SetupError(f"{label}: transported algebra is not dense")
    elif gen.nnz(c) != gen.nnz(source):
        raise SetupError(f"{label}: signed permutation changed nnz "
                         f"{gen.nnz(source)} -> {gen.nnz(c)}")
    path = ctx.work / f"{label}.json"
    gen.write_algebra(path, c)
    ran = ctx.cli("check", path, "--json")
    if not output_ok(_algebra_ok, ran.code, ran.stdout):
        raise SetupError(f"{label}: generated algebra fails check: {ctx.stderr_tail()}")
    return path


def _permuted(ctx, label, name, order, signs) -> Path:
    source = _fixture(ctx, name)
    return _write_input(ctx, label, source, gen.signed_permutation(order, signs),
                        dense=False)


def _seeded_order(n: int, rng: random.Random) -> list:
    order = list(range(n))
    rng.shuffle(order)
    return order


# The two betti workloads run a fixed panel of inputs, and the seed only sets
# the order in which its commands run.  Exact elimination is so sensitive to
# the basis that seeded inputs would swamp any change of the program: one
# seeded basis order of omni2 took 2.1 to 5.8 s, and a pass of six fixed
# orders with seeded signs 19.7 to 25.9 s.  The compare and structure
# workloads do not eliminate large matrices, so their inputs follow the seed.

def build_betti_sparse(ctx: Context, rng: random.Random) -> list:
    # Six basis orders forming a Latin square: every fixture basis vector
    # stands once in every position.
    panel = random.Random("betti-sparse/panel")
    base = _seeded_order(6, panel)
    commands = []
    for r in range(6):
        order = [base[(col + r) % 6] for col in range(6)]
        path = _permuted(ctx, f"omni2_p{r}", "omni2", order, gen.random_signs(6, panel))
        commands.append(Command(["cohomology", path, "--rep", "adjoint",
                                 "--max-degree", "3", "--json"],
                                _betti_ok(BETTI_ADJOINT_3["omni2"]), [path]))
    rng.shuffle(commands)
    return commands


DENSE_COPIES = 3


def build_betti_dense_q(ctx: Context, rng: random.Random) -> list:
    panel = random.Random("betti-dense-q/panel")
    commands = []
    for copy in range(DENSE_COPIES):
        for name in ("sl2", "heis3"):
            source = _fixture(ctx, name)
            path = _write_input(ctx, f"{name}_q{copy}", source,
                                gen.dense_transport(source, panel), dense=True)
            commands.append(Command(["cohomology", path, "--rep", "adjoint",
                                     "--max-degree", "3", "--json"],
                                    _betti_ok(BETTI_ADJOINT_3[name]), [path]))
    rng.shuffle(commands)
    return commands


def build_compare_omni2(ctx: Context, rng: random.Random) -> list:
    path = _permuted(ctx, "omni2_p", "omni2", _seeded_order(6, rng),
                     gen.random_signs(6, rng))
    return [Command(["cohomology", path, "--rep", "adjoint", "--compare",
                     "--max-degree", "2", "--json"], _compare_ok, [path])]


def build_structure_omni(ctx: Context, rng: random.Random) -> list:
    omni3 = _permuted(ctx, "omni3_p", "omni3", _seeded_order(12, rng),
                      gen.random_signs(12, rng))
    omni4 = ctx.work / "omni4.json"
    return [Command(["omni", "--dim", "4"], None, [], omni4),
            Command(["check", omni4, "--json"], _check_omni4_ok, [omni4]),
            Command(["lie2", omni3, "--json"], _lie2_ok, [omni3])]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "betti-sparse": Workload(("linalg",), build_betti_sparse),
    "betti-dense-q": Workload(("linalg",), build_betti_dense_q),
    "compare-omni2": Workload(("omni", "cohomology"), build_compare_omni2),
    "structure-omni": Workload(("lie2", "algebra"), build_structure_omni),
}


# ---------------------------------------------------------------------------
# measuring

@dataclass
class Pass:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    span_records: list = field(default_factory=list)


def run_pass(ctx: Context, commands: list, index: int, traced: bool,
             setup_samples: list) -> Pass:
    """Run every command once.  Untraced passes also add one set-up sample
    before each command, so that set-up time is sampled across the run."""
    result = Pass()
    for i, cmd in enumerate(commands):
        if not traced:
            setup_samples.append(measure_setup(ctx))
        if traced:
            spans_file = ctx.work / f"spans_{index}_{i}.json"
            argv = [sys.executable, str(HERE / "launch.py"), str(spans_file),
                    f"{index}.{i}", "--", *map(str, cmd.argv)]
            ran = ctx.spawn(argv, cmd.writes)
        else:
            ran = ctx.cli(*cmd.argv, stdout_path=cmd.writes)
        result.wall += ran.wall
        result.cpu += ran.cpu
        result.rss_mb = max(result.rss_mb, ran.rss_mb)
        result.attempted += 1
        stdout = cmd.writes.read_bytes() if cmd.writes else ran.stdout
        if not output_ok(cmd.check, ran.code, stdout):
            result.failed += 1
            print(f"FAILED {' '.join(map(str, cmd.argv))}: exit {ran.code}; "
                  f"{ctx.stderr_tail()}", file=sys.stderr)
        result.bytes_in += sum(Path(p).stat().st_size for p in cmd.reads)
        result.bytes_out += len(stdout)
        if traced and spans_file.exists():
            result.span_records.append(json.loads(spans_file.read_text()))
    return result


def measure_setup(ctx: Context) -> float:
    return ctx.spawn([sys.executable, "-c", "import leibniz_kit.cli"], kind="setup").wall


def tail_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    q = 100.0 * (n - 10) / n
    return {"percentile": round(q, 2), "value": sorted(values)[n - 11]}


def environment() -> dict:
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu_model, "load_1min": os.getloadavg()[0],
            "git_commit": _git_commit(), "src_sha256": digest.hexdigest()}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


# Per-layer metrics measured by the benchmark itself rather than by spans.
RUN_METRICS = {
    "serialize.bytes_in": "B",       # size of the files the commands read
    "serialize.bytes_out": "B",      # size of what the commands print
    "trace.overhead_s": "s",         # traced pass wall time minus untraced
    "trace.focus_share": "ratio",    # focus layers' self time over compute
}
LAYER_METRICS = {**spans.SPAN_METRICS, **RUN_METRICS}


def layer_metrics(traced: list, untraced: list, setup_s: float, focus: tuple) -> dict:
    """LAYER_METRICS of a traced run, each the median over its traced passes.

    Compute is a traced pass's wall time minus setup_s for each command.
    """
    per_pass = []
    for p in traced:
        totals = spans.layer_totals(p.span_records)
        values = {name: spans.span_metric(totals, name) for name in spans.SPAN_METRICS}
        values["serialize.bytes_in"] = p.bytes_in
        values["serialize.bytes_out"] = p.bytes_out
        values["trace.focus_share"] = (sum(totals["module"].get(m, 0.0) for m in focus)
                                       / (p.wall - setup_s * p.attempted))
        per_pass.append(values)
    per_pass[0]["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(p.wall for p in untraced))
    out = {}
    for name, unit in LAYER_METRICS.items():
        samples = [v[name] for v in per_pass if name in v]
        value = None if None in samples else statistics.median(samples)
        out[name] = {"value": value, "unit": unit}
    return out


def run(workload_name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "leibniz_kit" / "__main__.py").is_file():
        raise SetupError(f"no leibniz_kit sources under {SRC}")
    env_record = environment()
    workload = WORKLOADS[workload_name]
    work = HERE / "_work" / f"{workload_name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = Context(work, time.monotonic() + RUN_LIMIT_S)
        commands = workload.build(ctx, random.Random(f"{workload_name}/{seed}"))
        setup_samples = [measure_setup(ctx) for _ in range(SETUP_REPEATS)]

        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(ctx, commands, len(untraced), False, setup_samples))
            last = untraced[-1].wall
            if trace:
                traced.append(run_pass(ctx, commands, len(traced), True, setup_samples))
                last += traced[-1].wall
            if time.perf_counter() - start + last > seconds:
                break
        setup_s = statistics.median(setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [p.wall for p in untraced]
    samples = {"pass_s": len(untraced), "cpu_s": len(untraced),
               "setup_s": len(setup_samples), "peak_rss_mb": len(untraced)}
    if trace:
        metrics = layer_metrics(traced, untraced, setup_s, workload.focus)
        samples = {name: len(traced) for name in metrics}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(p.cpu for p in untraced), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.rss_mb for p in untraced),
                            "unit": "MB"},
        }
    report = {"workload": workload_name, "seed": seed, "seconds": seconds,
              "trace": int(trace),
              "commands_per_pass": len(commands), "environment": env_record,
              "samples": samples, "pass_walls_s": walls,
              "pass_s_tail": tail_percentile(walls),
              "fail_ratio": failed / attempted}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
