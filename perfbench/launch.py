"""Run one leibniz-kit CLI command with spans around its layers.

    python perfbench/launch.py SPANS_FILE COMMAND_ID -- CLI_ARGS...

Imports leibniz_kit.cli, replaces each function named in spans.TRACED on
every leibniz_kit module that binds it (``rank`` is bound in both linalg and
cohomology, for instance) with a wrapper that records a span, then calls
``leibniz_kit.cli.main``.  Spans stay in memory and are written to
SPANS_FILE once, when the command exits; the exit code is the command's.
A traced function that this version of the program does not define is
listed as absent instead of failing the command.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

from spans import TRACED


# Sizes recorded per call: (args, result) -> counts.
COUNTERS = {
    "linalg.rank": lambda args, result: {"nnz_in": args[0].nnz(), "value": int(result)},
    "linalg.rref": lambda args, result: {"nnz_in": args[0].nnz(),
                                         "nnz_out": result.matrix.nnz()},
    "cohomology.coboundary_matrix": lambda args, result: {"nnz_out": result.nnz()},
}


class Recorder:
    """Spans of one command, in call order."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [name, start, end, parent, None]
            if count is not None:
                try:
                    spans[index][4] = count(args, result)
                except (AttributeError, TypeError, ValueError, IndexError):
                    pass  # a later version changed the value's shape
            return result

        return traced


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function; return the names that could not be found."""
    importlib.import_module("leibniz_kit.cli")
    homes = {}
    for module_name in TRACED:
        try:
            homes[module_name] = importlib.import_module(f"leibniz_kit.{module_name}")
        except ImportError:
            homes[module_name] = None
    modules = [m for name, m in list(sys.modules.items())
               if name == "leibniz_kit" or name.startswith("leibniz_kit.")]
    absent = []
    for module_name, functions in TRACED.items():
        home = homes[module_name]
        for fn_name in functions:
            name = f"{module_name}.{fn_name}"
            original = getattr(home, fn_name, None)
            if not callable(original):
                absent.append(name)
                continue
            wrapped = recorder.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: launch.py SPANS_FILE COMMAND_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_file, command_id, cli_args = argv[0], argv[1], argv[3:]
    recorder = Recorder()
    absent = install(recorder)
    cli = sys.modules["leibniz_kit.cli"]
    code = 1
    try:
        code = cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        Path(spans_file).write_text(json.dumps(
            {"command": command_id, "absent": absent, "spans": recorder.spans}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
