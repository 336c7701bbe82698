"""Spans of traced CLI commands and the per-layer numbers drawn from them.

A span is one call of a traced function: ``[name, start, end, parent,
counts]``, with ``parent`` the index of the enclosing span in the same
command (or None) and ``counts`` a dict of sizes measured at the call.  A
traced command writes ``{"command": id, "absent": [...], "spans": [...]}``
once, when it exits.

Self time is a span's duration minus the durations of its direct children.
Calls within one command run on one thread and nest strictly, so the
children never overlap and their durations can simply be summed.
"""

from __future__ import annotations

# Functions the traced launcher wraps, by module of leibniz_kit.  Besides the
# functions reported by name, the coarse entry points that call them
# (compare_adjoint, naive_betti, adjoint_naive) are wrapped so that their own
# loops count as omni time rather than as time of the CLI that called them.
TRACED = {
    "linalg": ("rank", "rref", "solve", "kernel_basis"),
    "cohomology": ("coboundary_matrix", "coboundary", "betti",
                   "check_representation"),
    "omni": ("naive_coboundary", "to_naive_cochain", "image_representation",
             "naive_check", "omni_lie", "compare_adjoint", "naive_betti",
             "adjoint_naive"),
    "lie2": ("check_jacobiator_identities", "verify_lie2", "build_lie2"),
    "algebra": ("check_leibniz", "left_center", "derived_subalgebra"),
    "serialize": ("algebra_from_json", "algebra_to_json"),
    "cli": ("main",),
}

# Per-layer metrics computed from spans, with their units.  A name
# <module>.s is the module's self time; <module>.<function>.<stat> is a
# function's call count, self time, or a size summed over its calls.
SPAN_METRICS = {
    "linalg.s": "s",
    "linalg.rank.calls": "count",
    "linalg.rank.s": "s",
    "linalg.rank.nnz_in": "count",
    "linalg.rank.value": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.s": "s",
    "linalg.rref.nnz_in": "count",
    "linalg.rref.fill": "ratio",
    "linalg.solve.calls": "count",
    "linalg.solve.s": "s",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.s": "s",
    "cohomology.s": "s",
    "cohomology.coboundary_matrix.calls": "count",
    "cohomology.coboundary_matrix.s": "s",
    "cohomology.coboundary_matrix.nnz_out": "count",
    "cohomology.coboundary.calls": "count",
    "cohomology.coboundary.s": "s",
    "cohomology.betti.s": "s",
    "cohomology.check_representation.s": "s",
    "omni.s": "s",
    "omni.naive_coboundary.calls": "count",
    "omni.naive_coboundary.s": "s",
    "omni.to_naive_cochain.calls": "count",
    "omni.to_naive_cochain.s": "s",
    "omni.image_representation.s": "s",
    "omni.naive_check.s": "s",
    "omni.omni_lie.s": "s",
    "lie2.s": "s",
    "lie2.check_jacobiator_identities.s": "s",
    "lie2.verify_lie2.s": "s",
    "lie2.build_lie2.s": "s",
    "algebra.s": "s",
    "algebra.check_leibniz.calls": "count",
    "algebra.check_leibniz.s": "s",
    "algebra.left_center.s": "s",
    "algebra.derived_subalgebra.s": "s",
    "serialize.s": "s",
    "serialize.algebra_from_json.s": "s",
    "serialize.algebra_to_json.s": "s",
    "cli.s": "s",
}


def self_times(spans: list) -> list[float]:
    """Self time of each span of one command, in the order given."""
    own = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_totals(commands: list[dict]) -> dict:
    """Per-layer sums over the span files of a pass.

    Returns {"module": {mod: self_s}, "function": {"mod.fn": {"calls", "s",
    <count>...}}, "absent": set of "mod.fn"}.
    """
    modules: dict[str, float] = {}
    functions: dict[str, dict] = {}
    absent: set[str] = set()
    for record in commands:
        absent.update(record["absent"])
        spans = record["spans"]
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + own
            stats = functions.setdefault(name, {"calls": 0, "s": 0.0})
            stats["calls"] += 1
            stats["s"] += own
            counts = span[4] if len(span) > 4 else None
            for key, value in (counts or {}).items():
                stats[key] = stats.get(key, 0) + value
    return {"module": modules, "function": functions, "absent": absent}


def span_metric(totals: dict, name: str):
    """Value of one SPAN_METRICS name, or None when its function is absent."""
    parts = name.split(".")
    if len(parts) == 2:
        module = parts[0]
        if all(f"{module}.{fn}" in totals["absent"] for fn in TRACED[module]):
            return None
        return totals["module"].get(module, 0.0)
    function, stat = ".".join(parts[:2]), parts[2]
    if function in totals["absent"]:
        return None
    stats = totals["function"].get(function, {})
    if stat == "fill":
        base = stats.get("nnz_in", 0)
        return stats.get("nnz_out", 0) / base if base else 0.0
    return stats.get(stat, 0)
