from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_kit import fixtures as corpus
from leibniz_kit.algebra import LeibnizAlgebra
from leibniz_kit.linalg import solve, sparse
from oracles import bracket, from_rows

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def positive_algebras():
    """All shipped algebras that satisfy the Leibniz identity, by name."""
    return {name: corpus.algebra(name) for name in corpus.positive_algebra_names()}


@pytest.fixture(scope="session")
def negative_algebras():
    return {name: corpus.algebra(name) for name in corpus.negative_algebra_names()}


@pytest.fixture(scope="session")
def small_algebras(positive_algebras):
    """The positive fixtures of dimension at most 3 (cheap enough for
    exhaustive higher-degree complexes)."""
    return {name: g for name, g in positive_algebras.items() if g.dim <= 3}


# An invertible 3x3 change of basis with every entry nonzero and half of them
# non-integral: it turns 0/1 structure constants into dense rational ones.
DENSE_BASIS_3 = tuple(tuple(Fraction(x) for x in row) for row in (
    ("1", "2", "-1/2"),
    ("-1", "1/3", "3/2"),
    ("2", "-3/2", "1"),
))


def change_basis(g: LeibnizAlgebra, b) -> LeibnizAlgebra:
    """g in the basis f_i = sum_a b[a][i] e_a, for an invertible matrix b."""
    bm = from_rows(b)
    f = [[bm.entry(a, i) for a in range(g.dim)] for i in range(g.dim)]
    c = [[solve(bm, bracket(g, f[i], f[j])) for j in range(g.dim)]
         for i in range(g.dim)]
    return LeibnizAlgebra(g.dim, sparse(c, 3))


@pytest.fixture(scope="session")
def dense_rational_algebras():
    """sl2 and heis3 moved by DENSE_BASIS_3."""
    return {name: change_basis(corpus.algebra(name), DENSE_BASIS_3)
            for name in ("sl2", "heis3")}
