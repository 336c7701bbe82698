"""Benchmark inputs: fixture algebras moved into a new basis drawn from a
seeded random generator.

A change of basis leaves every invariant the CLI reports unchanged (Betti
numbers, comparison rows, axiom outcomes, center and derived dimensions), so
outputs can be checked against the untransported fixture, while the work the
program does depends on the basis:

* a signed permutation keeps every entry in {0, 1, -1} and the number of
  nonzero structure constants, but reorders the basis, which changes the
  pivot order of exact elimination;
* an all-nonzero rational basis makes rows dense and brings in non-unit
  denominators, which stresses coefficient growth instead of fill-in.

Only the standard library is used: the benchmark process never imports the
program it measures.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

SCHEMA = "leibniz-kit/1"

# Entries of the dense change of basis: all nonzero, small, two of them with
# denominator 2.
DENSE_ENTRIES = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2),
                 Fraction(1, 2), Fraction(-3, 2))


def _scalar(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def read_algebra(path: Path) -> list:
    """Structure constants c[i][j][k] of an algebra JSON document, as Fractions."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return [[[Fraction(x) for x in row] for row in plane] for plane in doc["c"]]


def write_algebra(path: Path, c: list) -> None:
    doc = {"schema": SCHEMA, "dim": len(c),
           "c": [[[_scalar(x) for x in row] for row in plane] for plane in c]}
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def nnz(c: list) -> int:
    return sum(1 for plane in c for row in plane for x in row if x)


def signed_permutation(order: list, signs: list) -> list:
    """Basis change f_col = signs[col] * e_order[col], as a matrix."""
    n = len(order)
    b = [[Fraction(0)] * n for _ in range(n)]
    for col, row in enumerate(order):
        b[row][col] = Fraction(signs[col])
    return b


def random_signs(n: int, rng: random.Random) -> list:
    return [rng.choice((1, -1)) for _ in range(n)]


def dense_basis(n: int, rng: random.Random) -> list:
    """Invertible n x n matrix whose entries are all drawn from DENSE_ENTRIES."""
    while True:
        b = [[rng.choice(DENSE_ENTRIES) for _ in range(n)] for _ in range(n)]
        if inverse(b) is not None:
            return b


def inverse(b: list):
    """Exact inverse by Gauss-Jordan elimination, or None when b is singular."""
    n = len(b)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def transport(c: list, b: list) -> list:
    """Structure constants in the basis f_i = sum_a b[a][i] e_a.

    [f_i, f_j] = sum_{a,b} b[a][i] b[b][j] [e_a, e_b], re-expressed in the
    f basis by the inverse of b.
    """
    n = len(c)
    binv = inverse(b)
    if binv is None:
        raise ValueError("change of basis is singular")
    cols = [[(a, b[a][i]) for a in range(n) if b[a][i]] for i in range(n)]
    out = []
    for i in range(n):
        plane = []
        for j in range(n):
            v = [Fraction(0)] * n
            for a, x in cols[i]:
                for bb, y in cols[j]:
                    xy = x * y
                    for k, w in enumerate(c[a][bb]):
                        if w:
                            v[k] += xy * w
            plane.append([sum((binv[l][k] * v[k] for k in range(n) if v[k]), Fraction(0))
                          for l in range(n)])
        out.append(plane)
    return out


def is_dense(c: list) -> bool:
    """Every nonzero bracket [f_i, f_j] has all of its coordinates nonzero."""
    return all(all(row) for plane in c for row in plane if any(row))


def dense_transport(c: list, rng: random.Random) -> list:
    """A dense basis b under which c becomes dense with more nonzeros than c."""
    while True:
        b = dense_basis(len(c), rng)
        out = transport(c, b)
        if is_dense(out) and nnz(out) > nnz(c):
            return b
