"""JSON encoding of every value the tool reads or writes.

All scalars are strings "p/q" (or just "p" for integers); matrices and
tensors are row-major nested arrays of such strings.  Every document
carries a "schema": "leibniz-kit/1" marker, and every one is read by
``read_json`` and written by ``write_json``.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import Any, Optional

from .algebra import LeibnizAlgebra
from .cohomology import BettiReport, Representation
from .lie2 import Lie2Algebra
from .omni import ComparisonReport, GraphMap

SCHEMA = "leibniz-kit/1"

_SCALAR_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class SchemaError(ValueError):
    """Input document does not match the expected schema."""


def scalar_to_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _scalar(x: Any, parsed: dict) -> Optional[Fraction]:
    """x as a Fraction, or None if it is no scalar (a JSON true or false is
    none, and so is a string of more digits than the interpreter converts);
    strings go through the memo."""
    if not isinstance(x, str):
        return Fraction(x) if isinstance(x, int) and not isinstance(x, bool) else None
    if x not in parsed and _SCALAR_RE.match(x):
        try:
            parsed[x] = Fraction(x)
        except ValueError:
            return None
    return parsed.get(x)


def _echo(x: Any) -> str:
    """repr(x), or its type and the first 64 characters of it if longer."""
    text = repr(x)
    return text if len(text) <= 64 else f"a {type(x).__name__} beginning {text[:64]} ..."


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key that it repeats."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise SchemaError(f"repeated key {_echo(key)}")
        out[key] = value
    return out


def read_json(raw: bytes, label: str) -> Any:
    """The document in raw, the bytes read from label; refuses invalid UTF-8 or
    JSON, deep nesting, a repeated key and an over-long integer literal."""
    try:
        return json.loads(raw.decode("utf-8"), object_pairs_hook=_unique_keys)
    except SchemaError as exc:
        raise SchemaError(f"{label}: {exc}")
    except RecursionError:
        raise SchemaError(f"{label}: not valid JSON (nested too deeply)")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{label}: not valid JSON ({exc})")
    except ValueError:  # the one other: int() refuses a literal over its digit limit
        raise SchemaError(f"{label}: an integer literal of more than "
                          f"{sys.get_int_max_str_digits()} digits")


def write_json(doc: Any) -> str:
    """A document's text; stdout and the corpus files add one newline."""
    return json.dumps(doc, indent=1)


def str_to_scalar(s: Any, where: str = "scalar") -> Fraction:
    q = _scalar(s, {})
    if q is None and isinstance(s, str) and _SCALAR_RE.match(s):
        raise SchemaError(f"{where}: a scalar of {len(s)} characters, with more than "
                          f"{sys.get_int_max_str_digits()} digits in a numerator or denominator")
    if q is None:
        raise SchemaError(f"{where}: expected an integer or 'p/q' string, got {_echo(s)}")
    return q


def _expect(data: Any, key: str, where: str) -> Any:
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in data:
        raise SchemaError(f"{where}: missing key {key!r}")
    return data[key]


def _expect_schema(data: Any, where: str) -> None:
    found = _expect(data, "schema", where)
    if found != SCHEMA:
        raise SchemaError(f"{where}: unsupported schema {_echo(found)} (expected {SCHEMA!r})")


def _expect_dim(data: Any, key: str, where: str) -> int:
    v = _expect(data, key, where)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise SchemaError(f"{where}: {key} must be a nonnegative integer")
    return v


def _expect_list(v: Any, length: int, where: str) -> list:
    if not isinstance(v, list) or len(v) != length:
        raise SchemaError(f"{where}: expected a list of length {length}")
    return v


def tensor_from_json(data: Any, shape: tuple, where: str = "tensor",
                     parsed: Optional[dict] = None) -> dict:
    """The sparse tensor {index tuple: nonzero Fraction} that nested lists of
    the given shape hold, keys in lexicographic order: the mirror of
    ``tensor_to_json``.  Scalars are memoized in ``parsed``.  A list of the
    wrong length is refused with its path, ``where`` followed by one [i] per
    axis above it, and a bad scalar (``str_to_scalar``) with its own path."""
    parsed = {} if parsed is None else parsed
    out: dict = {}

    def walk(v, key, where):
        v = _expect_list(v, shape[len(key)], where)
        if len(key) + 1 < len(shape):
            for i, sub in enumerate(v):
                walk(sub, key + (i,), f"{where}[{i}]")
            return
        for i, x in enumerate(v):
            q = _scalar(x, parsed)
            if q is None:
                str_to_scalar(x, f"{where}[{i}]")  # refuses x with its path
            if q:
                out[key + (i,)] = q

    walk(data, (), where)
    return out


def tensor_to_json(t) -> list:
    """The nested lists of ``t.shape`` holding a ``linalg.Tensor``, "0" where
    it has no entry; every matrix and tensor is written from its sparse form."""
    def zeros(axes):
        return [zeros(axes[1:]) for _ in range(axes[0])] if len(axes) > 1 else ["0"] * axes[0]
    out = zeros(t.shape)
    for key, v in t.items():
        row = out
        for i in key[:-1]:
            row = row[i]
        row[key[-1]] = scalar_to_str(v)
    return out


# ---------------------------------------------------------------------------
# algebras

def algebra_to_json(g: LeibnizAlgebra) -> dict:
    return {"schema": SCHEMA, "dim": g.dim, "c": tensor_to_json(g.c)}


def algebra_from_json(data: Any) -> LeibnizAlgebra:
    where = "algebra"
    _expect_schema(data, where)
    n = _expect_dim(data, "dim", where)
    return LeibnizAlgebra(n, tensor_from_json(_expect(data, "c", where), (n,) * 3, f"{where}.c"))


# ---------------------------------------------------------------------------
# representations

def representation_to_json(rep: Representation) -> dict:
    return {"schema": SCHEMA, "vdim": rep.vdim,
            "l": tensor_to_json(rep.l), "r": tensor_to_json(rep.r)}


def representation_from_json(g: LeibnizAlgebra, data: Any) -> Representation:
    where = "representation"
    _expect_schema(data, where)
    m, parsed = _expect_dim(data, "vdim", where), {}
    ls, rs = (tensor_from_json(_expect(data, key, where), (g.dim, m, m), f"{where}.{key}", parsed)
              for key in ("l", "r"))
    return Representation(g, m, ls, rs)


# ---------------------------------------------------------------------------
# graph maps

def graph_to_json(phi: GraphMap) -> dict:
    return {"schema": SCHEMA, "vdim": phi.vdim, "phi": tensor_to_json(phi.phi)}


def graph_from_json(data: Any) -> GraphMap:
    where = "graph map"
    _expect_schema(data, where)
    m = _expect_dim(data, "vdim", where)
    return GraphMap(m, tensor_from_json(_expect(data, "phi", where), (m,) * 3, f"{where}.phi"))


# ---------------------------------------------------------------------------
# two-term algebras and reports

def lie2_to_json(L: Lie2Algebra) -> dict:
    return {
        "schema": SCHEMA,
        "dim1": L.dim1,
        "dim0": L.dim0,
        "l1": tensor_to_json(L.l1),
        "l2_00": tensor_to_json(L.l2_00),
        "l2_01": tensor_to_json(L.l2_01),
        "l3": tensor_to_json(L.l3),
    }


def betti_to_json(report: BettiReport) -> dict:
    return {"schema": SCHEMA,
            "degrees": [{"k": d.k, "dim_C": d.dim_cochains, "rank_d": d.rank_d,
                         "dim_ker": d.dim_ker, "dim_H": d.dim_h}
                        for d in report.degrees]}


def comparison_to_json(report: ComparisonReport) -> dict:
    return {"schema": SCHEMA,
            "degrees": [{"k": r.k, "dim_naive": r.dim_naive,
                         "dim_classical": r.dim_classical, "equal": r.equal,
                         **({"informational": True} if r.k == 0 else {})}
                        for r in report.rows],
            "all_equal_from_degree_1": report.all_equal,
            "side_checks_ok": report.side_checks_ok,
            "notes": list(report.notes)}
