from __future__ import annotations

import random
from fractions import Fraction
from heapq import heappop
from math import gcd, isqrt, lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leibniz_kit.linalg as linalg_module
from oracles import (basis_matrix, basis_rows, contains, from_rows, identity, matmul, mv, tensor,
                     to_rows, transpose, zeros)
from leibniz_kit.algebra import dense
from leibniz_kit.cohomology import adjoint_rep, betti
from leibniz_kit.linalg import (
    Matrix,
    Subspace,
    Tensor,
    contract,
    integer_rank,
    kernel_basis,
    rank,
    reduced_rows,
    rref,
    solve,
    span_of_rows,
    sparse,
    sparse_tensor,
)

F = Fraction


def test_rref_identity():
    m = identity(2)
    ech = rref(m)
    assert ech.matrix == m
    assert ech.rank == 2
    assert ech.pivot_columns == (0, 1)


def test_rref_zero():
    m = zeros(3, 3)
    ech = rref(m)
    assert ech.matrix == m
    assert ech.rank == 0
    assert ech.pivot_columns == ()


def test_rref_rank_one():
    # second row is twice the first, so elimination leaves a single pivot row
    m = from_rows([[1, 2], [2, 4]])
    ech = rref(m)
    assert ech.matrix == from_rows([[1, 2], [0, 0]])
    assert ech.rank == 1
    assert ech.pivot_columns == (0,)


def test_rref_normalizes_pivots():
    m = from_rows([[0, 2, 4], [3, 3, 3]])
    ech = rref(m)
    assert ech.matrix == from_rows([[1, 0, -1], [0, 1, 2]])
    assert ech.pivot_columns == (0, 1)


def test_rref_of_int_matrix_stays_exact():
    # pivots 2 and 5/2: dividing ints by them must give Fractions, not floats
    ech = rref(Matrix(2, 3, [{0: 2, 1: 1}, {0: 1, 1: 3, 2: 1}]))
    assert to_rows(ech.matrix) == [[1, 0, F(-1, 5)], [0, 1, F(2, 5)]]
    assert all(isinstance(v, (int, F)) for row in to_rows(ech.matrix) for v in row)


def test_kernel_of_int_matrix_with_pivot_three():
    # a hand-built tensor of ints: the pivot 3 must divide to Fractions
    ker = kernel_basis(Tensor((1, 3), {(0, 0): 3, (0, 1): 1, (0, 2): 1}))
    assert dense(ker.basis, ker.basis.shape) == ((F(-1, 3), 1, 0), (F(-1, 3), 0, 1))
    assert ker.basis == {(0, 0): F(-1, 3), (0, 1): 1, (1, 0): F(-1, 3), (1, 2): 1}


def test_kernel_of_zero_map():
    assert kernel_basis(sparse_tensor({}, (2, 3), "matrix")).dim == 3


def test_kernel_of_identity():
    assert kernel_basis(tensor(identity(2))).dim == 0


def test_kernel_contains_hand_solution():
    # x + y = 0 with z free: kernel is spanned by (1,-1,0) and (0,0,1)
    ker = kernel_basis(sparse_tensor([[1, 1, 0]], (1, 3), "matrix"))
    assert ker.dim == 2
    assert contains(ker, [F(1), F(-1), F(0)])


def test_kernel_check_is_not_vacuous(monkeypatch):
    # x + y = 0 again: a wrong reduced row (1, 2, 0) in place of (1, 1, 0)
    # gives the kernel vector (-2, 1, 0), which the check t K^T = 0 catches
    true_rref = linalg_module.rref

    def wrong_rref(m):
        ech = true_rref(m)
        assert to_rows(ech.matrix) == [[1, 1, 0]]
        return ech._replace(matrix=from_rows([[1, 2, 0]]))

    monkeypatch.setattr(linalg_module, "rref", wrong_rref)
    with pytest.raises(AssertionError, match="^kernel vector failed verification$"):
        kernel_basis(sparse_tensor([[1, 1, 0]], (1, 3), "matrix"))


def test_rank_examples():
    assert rank(identity(4)) == 4
    assert rank(zeros(2, 5)) == 0
    assert rank(from_rows([[1, 2], [2, 4], [3, 6]])) == 1
    # tall, with mixed denominators and a zero row: the rows are cleared of
    # denominators and divided by their content
    assert rank(from_rows([[F(1, 2), F(1, 3)], [F(3, 7), F(2, 7)],
                           [1, F(2, 3)], [0, 0], [F(-1, 6), F(1, 6)]])) == 2


def test_solve_identity():
    b = [F(3), F(-7)]
    assert solve(identity(2), b) == b


def test_solve_inconsistent():
    assert solve(zeros(2, 2), [F(1), F(0)]) is None


def test_solve_diagonal():
    m = from_rows([[2, 0], [0, 4]])
    assert solve(m, [F(1), F(1)]) == [F(1, 2), F(1, 4)]


def test_solve_rejects_wrong_length():
    with pytest.raises(ValueError):
        solve(identity(2), [F(1)])


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(2, ((F(1), F(0)), (F(2), F(0))))
    with pytest.raises(ValueError):
        Subspace(2, [{(0,): 1}, {(0,): 2}])


def test_subspace_coordinates():
    s = Subspace(3, ((F(1), F(0), F(1)), (F(0), F(1), F(0))))
    assert s.coordinates_of({(0,): F(2), (1,): F(3), (2,): F(2)}) == {(0,): F(2), (1,): F(3)}
    assert s.coordinates_of({(2,): F(1)}) is None
    assert Subspace(0, ()).coordinates_of({}) == {}
    assert Subspace(2, ()).coordinates_of({}) == {}
    assert Subspace(2, ()).coordinates_of({(1,): F(1)}) is None
    # coordinates are read at the key columns, here 2 and 0
    keyed = Subspace(3, [{(1,): 3, (2,): 1}, {(0,): 1, (1,): F(-1, 2)}])
    assert keyed._keys == (2, 0)
    assert keyed.coordinates_of({(0,): 4, (1,): 4, (2,): 2}) == {(0,): F(2), (1,): F(4)}
    assert keyed.coordinates_of({(0,): 4, (1,): 3, (2,): 2}) is None
    # a dense vector is taken too
    assert keyed.coordinates_of([F(4), F(4), F(2)]) == {(0,): F(2), (1,): F(4)}


def test_subspace_refuses_a_basis_without_key_columns():
    # independent, but no vector is 1 where the other is 0: the basis must
    # be in reduced form, as span_of_rows gives it
    rows = [{(0,): F(1, 2), (1,): 1}, {(0,): 1, (1,): 3}]
    with pytest.raises(ValueError, match="^basis vector 0 has no key column"):
        Subspace(2, rows)
    with pytest.raises(ValueError, match="^basis vector 0 has no key column"):
        Subspace(1, [{(0,): 2}])
    assert span_of_rows(2, rows).coordinates_of({(0,): 1, (1,): 1}) == {(0,): 1, (1,): 1}


def test_matrix_product_shapes():
    a = from_rows([[1, 2], [3, 4], [5, 6]])
    b = from_rows([[1, 0, 0], [0, 1, 1]])
    assert matmul(a, b) == from_rows([[1, 2, 2], [3, 4, 4], [5, 6, 6]])
    with pytest.raises(ValueError):
        matmul(b, b)


scalars = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    data = draw(st.lists(st.lists(scalars, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return from_rows(data) if rows else zeros(0, cols)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(tensor(m)).dim == m.cols


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_rref_idempotent(m):
    once = rref(m).matrix
    assert rref(once).matrix == once


@given(matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_roundtrip(m, data):
    x = data.draw(st.lists(scalars, min_size=m.cols, max_size=m.cols))
    b = mv(m, x)
    y = solve(m, b)
    assert y is not None
    assert mv(m, y) == b


def _has_key_columns(rows) -> bool:
    """Whether each dense row is 1 in some column where the others are 0."""
    return all(any(x == 1 and all(other[j] == 0 for b, other in enumerate(rows) if b != a)
                   for j, x in enumerate(row)) for a, row in enumerate(rows))


@st.composite
def subspaces(draw):
    """A subspace with an RREF basis (``span_of_rows``) or a ``kernel_basis``
    basis, or the span of a dense rational basis: the rows of L U [I | C]
    with permuted columns, L unit lower and U upper triangular with a
    nonzero diagonal.  ``Subspace`` refuses that basis unless it happens to
    have key columns."""
    kind = draw(st.sampled_from(["rref", "kernel", "dense"]))
    if kind != "dense":
        m = draw(matrices())
        return span_of_rows(m.cols, to_rows(m)) if kind == "rref" else kernel_basis(tensor(m))
    n = draw(st.integers(0, 4))
    d = draw(st.integers(0, n))
    if d == 0:
        return Subspace(n, ())
    unit = identity(d)
    lower = from_rows([[draw(scalars) if b < a else unit.entry(a, b) for b in range(d)]
                       for a in range(d)])
    upper = from_rows([[draw(scalars) if b > a else F(0) if b < a else
                        draw(scalars.filter(bool)) for b in range(d)] for a in range(d)])
    echelon = from_rows([to_rows(unit)[a] + [draw(scalars) for _ in range(n - d)]
                         for a in range(d)])
    order = draw(st.permutations(range(n)))
    rows = [[row[j] for j in order] for row in to_rows(matmul(matmul(lower, upper), echelon))]
    vectors = [sparse(row, 1) for row in rows]
    if _has_key_columns(rows):
        assert Subspace(n, vectors).dim == d
    else:
        with pytest.raises(ValueError, match="no key column"):
            Subspace(n, vectors)
    return span_of_rows(n, vectors)


@given(subspaces(), st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_coordinates_match_solve(s, data):
    # coordinates read at the pivots against a fresh elimination, for a
    # vector inside the span and for an arbitrary one (mostly outside it)
    x = data.draw(st.lists(scalars, min_size=s.dim, max_size=s.dim))
    to_ambient = basis_matrix(s)
    inside = mv(to_ambient, x)
    assert s.coordinates_of(sparse(inside, 1)) == sparse(x, 1)
    assert x == solve(to_ambient, inside)
    v = data.draw(st.lists(scalars, min_size=s.ambient_dim, max_size=s.ambient_dim))
    y = solve(to_ambient, v)
    assert s.coordinates_of(sparse(v, 1)) == (None if y is None else sparse(y, 1))


@st.composite
def matrices_with_zero_rows(draw):
    """The rows of a drawn matrix with up to three zero rows put in, and its
    number of columns."""
    m = draw(matrices())
    rows = to_rows(m) if m.rows else []
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * m.cols)
    return rows, m.cols


@given(matrices_with_zero_rows())
@example(([], 3))
@example(([[F(0)] * 2] * 3, 2))
@example(([[0, 0, 0], [0, 2, 4], [0, 0, 0]], 3))
@settings(max_examples=100, deadline=None)
def test_reduced_rows_project_onto_the_quotient_by_the_kernel(rows_and_cols):
    # R is in RREF, the identity on its pivot columns J, kills the kernel of
    # t and has its rank; zero rows, the zero matrix and no rows at all
    rows, cols = rows_and_cols
    t = sparse_tensor(rows, (len(rows), cols), "matrix")
    R, J = reduced_rows(t)
    assert R.shape == (len(J), cols)
    assert len(J) == rank(from_rows(rows) if rows else zeros(0, cols))
    assert list(J) == sorted(set(J))
    assert [min(j for a, j in R.keys() if a == b) for b in range(len(J))] == list(J)
    assert {(a, J.index(j)): x for (a, j), x in R.items() if j in J} == {
        (a, a): F(1) for a in range(len(J))}
    assert not contract([(1, "aj,uj->au", R, kernel_basis(t).basis)])


@given(matrices())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    ker = kernel_basis(tensor(m))
    for v in basis_rows(ker):
        assert all(not c for c in mv(m, v))


rank_scalars = st.builds(F, st.integers(-9, 9), st.integers(1, 7))


def matrices_of(rows, cols):
    return st.lists(st.lists(rank_scalars, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix(rows, cols, [dict(enumerate(r)) for r in data]))


@st.composite
def rank_matrices(draw, max_side=12):
    """Tall, wide, sparse, dense and low-rank matrices with zero rows and
    columns and denominators up to 7."""
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    shape = draw(st.sampled_from(("dense", "sparse", "low-rank")))
    if shape == "low-rank":
        inner = draw(st.integers(0, 4))
        a = draw(matrices_of(rows, inner))
        b = draw(matrices_of(inner, cols))
        m = matmul(a, b)
    elif shape == "sparse":
        data = [{} for _ in range(rows)]
        if rows and cols:
            for i, j, v in draw(st.lists(st.tuples(st.integers(0, rows - 1),
                                                   st.integers(0, cols - 1),
                                                   rank_scalars),
                                         max_size=rows + cols)):
                data[i][j] = v
        m = Matrix(rows, cols, data)
    else:
        m = draw(matrices_of(rows, cols))
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return Matrix(rows, cols, [
        {} if i in zero_rows else
        {j: v for j, v in m.row_items(i) if j not in zero_cols}
        for i in range(rows)])


@given(rank_matrices())
@settings(max_examples=200, deadline=None)
def test_rank_agrees_with_rref(m):
    assert rank(m) == rref(m).rank == rank(transpose(m))


def test_adjoint_betti_in_dense_rational_basis(dense_rational_algebras):
    # a change of basis leaves cohomology unchanged, while the coboundary
    # matrices get dense rational entries that grow under elimination
    expected = {"sl2": [0, 0, 0, 0], "heis3": [1, 4, 8, 17]}
    for name, g in dense_rational_algebras.items():
        assert any(x.denominator > 1 for x in g.c.values())
        report = betti(adjoint_rep(g), 3)
        assert [d.dim_h for d in report.degrees] == expected[name]


@given(rank_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_rank_invariant_under_row_operations(m, data):
    # permuting rows, scaling them by nonzero rationals and inserting zero
    # rows leave the rank unchanged, and it still agrees with rref
    rows = [dict(m.row_items(i)) for i in range(m.rows)]
    order = data.draw(st.permutations(range(m.rows)))
    factors = data.draw(st.lists(rank_scalars.filter(bool), min_size=m.rows,
                                 max_size=m.rows))
    rows = [{j: factors[i] * v for j, v in rows[i].items()} for i in order]
    for at in data.draw(st.lists(st.integers(0, len(rows)), max_size=3)):
        rows.insert(at, {})
    moved = Matrix(len(rows), m.cols, rows)
    assert rank(moved) == rank(m) == rref(moved).rank == rref(m).rank


@given(rank_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_integer_rank_of_integer_rows(m, data):
    # integer rows in any order; the rows handed in are left alone
    rows = []
    for i in range(m.rows):
        row = dict(m.row_items(i))
        den = lcm(*[v.denominator for v in row.values()])
        rows.append({j: int(v * den) for j, v in row.items()})
    rows = data.draw(st.permutations(rows))
    before = [dict(r) for r in rows]
    assert integer_rank(rows) == rref(m).rank
    assert rows == before
    assert rank(Matrix(len(rows), m.cols, rows)) == rref(m).rank


@given(rank_matrices(), st.data())
@settings(max_examples=150, deadline=None)
def test_integer_rank_reports_pivot_columns(m, data):
    # one pivot column per step, all distinct, and the input restricted to
    # them keeps its rank: the isomorphism the clearing in betti relies on
    rows = []
    for i in range(m.rows):
        row = dict(m.row_items(i))
        den = lcm(*[v.denominator for v in row.values()])
        rows.append({j: int(v * den) for j, v in row.items()})
    rows = data.draw(st.permutations(rows))
    pivots = []
    r = integer_rank(rows, pivots)
    assert r == integer_rank(rows) == rref(m).rank == len(pivots)
    assert len(set(pivots)) == len(pivots)
    assert all(0 <= j < m.cols for j in pivots)
    restricted = [{j: v for j, v in row.items() if j in pivots} for row in rows]
    assert rref_rank_of_ints(m.cols, restricted) == r
    # rank eliminates the rows as given, wide or tall, and forwards the list
    mat = Matrix(len(rows), m.cols, rows)
    forwarded = []
    assert rank(mat, forwarded) == r
    assert forwarded == pivots


def test_integer_rank_examples():
    assert integer_rank([]) == 0
    assert integer_rank([{}, {}]) == 0
    assert integer_rank([{0: 2, 1: 4}, {0: 3, 1: 6}, {2: -5}]) == 2
    # a sparse row sorted ahead of a dense one that shares its leading column
    assert integer_rank([{0: 1, 1: 1, 2: 1}, {0: 1}, {1: 7}, {2: 7}]) == 3


nonzero_ints = st.integers(-9, 9).filter(bool)


@st.composite
def filling_rows(draw, max_side=14):
    """(cols, rows) of a sparse integer matrix whose elimination fills in and
    cancels: at most three entries per row, optionally an arrow (a dense row
    plus an entry in column 0 of every other row, so that any pivot on it
    fills every row), and rows that are integer combinations of two others."""
    cols = draw(st.integers(1, max_side))
    rows = []
    for _ in range(draw(st.integers(0, max_side))):
        support = draw(st.sets(st.integers(0, cols - 1), max_size=3))
        rows.append({j: draw(nonzero_ints) for j in sorted(support)})
    if draw(st.booleans()):
        for row in rows:
            row[0] = draw(nonzero_ints)
        rows.append({j: draw(nonzero_ints) for j in range(cols)})
    for _ in range(draw(st.integers(0, 3)) if len(rows) >= 2 else 0):
        i, k = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                             unique=True))
        x, y = draw(nonzero_ints), draw(nonzero_ints)
        combined = {j: x * rows[i].get(j, 0) + y * rows[k].get(j, 0)
                    for j in rows[i].keys() | rows[k].keys()}
        rows.append({j: v for j, v in combined.items() if v})
    return cols, rows


def rref_rank_of_ints(cols, rows):
    return rref(Matrix(len(rows), cols, [{j: F(v) for j, v in row.items()}
                                         for row in rows])).rank


@given(filling_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_rank_invariant_under_column_permutations(case, data):
    # relabelling the columns changes which pivots the kernel picks and where
    # it fills in, never the rank; it agrees with rref either way
    cols, rows = case
    perm = data.draw(st.permutations(range(cols)))
    moved = [{perm[j]: v for j, v in row.items()} for row in rows]
    expected = rref_rank_of_ints(cols, rows)
    assert integer_rank(rows) == integer_rank(moved) == expected
    assert rank(Matrix(len(moved), cols, moved)) == rref_rank_of_ints(cols, moved) == expected


def test_integer_rank_entries_stay_within_hadamard_bound(monkeypatch):
    # every reduced row goes through gcd to lose its content, so the entries
    # seen there are at most 2 H^2, with H the Hadamard bound on the minors;
    # fraction-free elimination without content removal outgrows it at once
    rng = random.Random(5)
    rows = [{j: rng.choice((-9, -7, -4, -1, 2, 3, 5, 8)) for j in range(10)}
            for _ in range(10)]
    seen = []

    def recording_gcd(*args):
        seen.extend(args)
        return gcd(*args)

    monkeypatch.setattr(linalg_module, "gcd", recording_gcd)
    assert integer_rank(rows) == rref_rank_of_ints(10, rows)
    hadamard = prod(isqrt(sum(v * v for v in row.values())) + 1 for row in rows)
    assert seen and max(map(abs, seen)) <= 2 * hadamard ** 2


@st.composite
def peeling_rows(draw, max_side=12):
    """(cols, rows) of a sparse integer matrix shaped for the peel: columns
    that hold one row, a staircase whose columns fall to one row only as the
    rows before them are peeled, scaled copies of rows, and empty rows, in
    any order."""
    cols = draw(st.integers(1, max_side))
    rows = []
    for _ in range(draw(st.integers(0, max_side))):
        support = draw(st.sets(st.integers(0, cols - 1), max_size=3))
        rows.append({j: draw(nonzero_ints) for j in support})
    steps = draw(st.integers(0, cols - 1))
    first = draw(st.integers(0, cols - 1 - steps))
    for j in range(first, first + steps):
        rows.append({j: draw(nonzero_ints), j + 1: draw(nonzero_ints)})
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row, x = draw(st.sampled_from(rows)), draw(nonzero_ints)
        rows.append({j: x * v for j, v in row.items()})
    rows += [{}] * draw(st.integers(0, 2))
    return cols, draw(st.permutations(rows))


@given(peeling_rows(), st.data())
@settings(max_examples=200, deadline=None)
def test_peeled_rank_agrees_with_rref(case, data):
    # the peel and the Markowitz loop together: the rank of rref, distinct
    # pivots on which the input keeps its rank, and the rows left alone;
    # rank agrees on the same rows as ints and as Fractions
    cols, rows = case
    expected = rref_rank_of_ints(cols, rows)
    before = [dict(row) for row in rows]
    pivots = []
    assert integer_rank(rows, pivots) == expected == len(pivots)
    assert rows == before
    assert len(set(pivots)) == len(pivots)
    restricted = [{j: v for j, v in row.items() if j in pivots} for row in rows]
    assert rref_rank_of_ints(cols, restricted) == expected
    dens = data.draw(st.lists(st.integers(1, 7), min_size=len(rows), max_size=len(rows)))
    fractional = [{j: F(v, d) for j, v in row.items()} for row, d in zip(rows, dens)]
    assert rank(Matrix(len(rows), cols, rows)) == expected
    assert rank(Matrix(len(rows), cols, fractional)) == expected


def test_a_staircase_resolves_in_the_peel(monkeypatch):
    # only column 0 holds a single row; each peeled row leaves the next
    # column with a single row, so no row reaches the Markowitz heap
    rows = [{j: j + 1, j + 1: -1} for j in range(5)] + [{5: 3}]
    popped = []
    monkeypatch.setattr(linalg_module, "heappop", lambda heap: popped.append(heap) or heappop(heap))
    for order in (rows, rows[::-1]):
        pivots = []
        assert integer_rank(order, pivots) == 6
        assert pivots == [0, 1, 2, 3, 4, 5]
    assert popped == []


def test_integer_rank_leaves_its_rows_alone_in_both_stages(monkeypatch):
    # betti hands rank the coboundary columns uncopied: neither the peel nor
    # the Markowitz loop may change them
    staircase = [{0: 2, 1: 3}, {1: 5, 2: -1}, {2: 4, 5: 1}]
    block = [{5: 1, 6: 2, 7: 3}, {5: 4, 6: 5, 7: 6}, {5: 7, 6: 8, 7: 10}]
    rows = [block[0], staircase[2], block[1], staircase[0], block[2], staircase[1]]
    before = [dict(row) for row in rows]
    popped = []
    monkeypatch.setattr(linalg_module, "heappop", lambda heap: popped.append(heap) or heappop(heap))
    pivots = []
    assert integer_rank(rows, pivots) == 6
    assert pivots[:3] == [0, 1, 2] and popped  # the staircase peels, the block is eliminated
    assert rows == before
    mat = Matrix(len(rows), 8, rows)
    assert rank(mat) == 6
    assert [dict(mat.row_items(i)) for i in range(mat.rows)] == before


def test_integer_rank_refuses_a_negative_column():
    with pytest.raises(ValueError, match="negative"):
        integer_rank([{0: 1}, {-1: 2}])
