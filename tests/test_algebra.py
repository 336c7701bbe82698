from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import change_basis
from leibniz_kit import (
    LeibnizAlgebra,
    check_leibniz,
    derived_subalgebra,
    is_lie,
    left_center,
    quotient_by_left_center,
    square_in_center_check,
)
from leibniz_kit.fixtures import heisenberg3, l2_algebra, nonleibniz, nonleibniz2, sl2
from leibniz_kit.algebra import dense, leibniz_residual, residual_witnesses
from leibniz_kit.linalg import contract, rref
from leibniz_kit.omni import omni_lie
from oracles import basis_rows, bracket, contains, from_rows, matmul, to_rows

F = Fraction
E = lambda n, i: [F(j == i) for j in range(n)]


def test_bracket_abelian():
    g = LeibnizAlgebra.abelian(3)
    assert bracket(g, [F(1), F(2), F(3)], [F(4), F(5), F(6)]) == [F(0)] * 3


def test_bracket_reads_structure_constants():
    g = l2_algebra()
    assert bracket(g, E(2, 0), E(2, 0)) == E(2, 1)          # [e1, e1] = e2
    assert bracket(g, E(2, 0), E(2, 1)) == [F(0), F(0)]
    h = heisenberg3()
    assert bracket(h, E(3, 1), E(3, 0)) == [F(0), F(0), F(-1)]   # [e2, e1] = -e3


def test_bracket_is_bilinear():
    g = heisenberg3()
    x, y = [F(2), F(1), F(0)], [F(-1), F(3), F(5)]
    lhs = bracket(g, x, y)
    expected = [F(0)] * 3
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            for k, c in enumerate(dense(g.c, (3,) * 3)[i][j]):
                expected[k] += xi * yj * c
    assert lhs == expected


def test_bracket_rejects_wrong_length():
    with pytest.raises(ValueError):
        bracket(l2_algebra(), [F(1)], [F(1), F(0)])


def test_check_leibniz_positive(positive_algebras):
    for name, g in positive_algebras.items():
        report = check_leibniz(g)
        assert report.holds, f"{name} unexpectedly fails: {report.witnesses[:3]}"


def test_check_leibniz_negative_witness():
    report = check_leibniz(nonleibniz())
    assert not report.holds
    w = report.witnesses[0]
    # defect of [e1,[e1,e1]] - [[e1,e1],e1] - [e1,[e1,e1]] with [e1,e1] = e1
    assert w.where == (0, 0, 0)
    assert w.defect == (F(-1),)


def test_zero_dimensional_algebra_is_fine():
    g = LeibnizAlgebra.abelian(0)
    assert check_leibniz(g).holds
    assert left_center(g).dim == 0
    assert derived_subalgebra(g).dim == 0
    assert is_lie(g)
    q, proj = quotient_by_left_center(g)
    assert q.dim == 0 and proj.shape == (0, 0)


def test_left_center_abelian_is_everything():
    for n in (1, 2, 3):
        assert left_center(LeibnizAlgebra.abelian(n)).dim == n


def test_left_center_l2_is_span_e2():
    z = left_center(l2_algebra())
    assert z.dim == 1
    assert contains(z, E(2, 1))
    assert not contains(z, E(2, 0))


def test_left_center_sl2_is_zero():
    assert left_center(sl2()).dim == 0


def test_left_center_is_an_ideal(positive_algebras):
    # [z, x] = 0 by definition; [x, z] must land back in the center
    for name, g in positive_algebras.items():
        z = left_center(g)
        for zv in basis_rows(z):
            for i in range(g.dim):
                assert all(not c for c in bracket(g, zv, E(g.dim, i)))
                assert contains(z, bracket(g, E(g.dim, i), zv)), name


def test_derived_subalgebra():
    assert derived_subalgebra(LeibnizAlgebra.abelian(2)).dim == 0
    d = derived_subalgebra(l2_algebra())
    assert d.dim == 1 and contains(d, E(2, 1))
    assert derived_subalgebra(sl2()).dim == 3


def test_is_lie():
    assert is_lie(heisenberg3())
    assert is_lie(sl2())
    assert not is_lie(l2_algebra())
    assert is_lie(LeibnizAlgebra.abelian(2))


def test_square_in_center(positive_algebras):
    for name, g in positive_algebras.items():
        assert square_in_center_check(g).holds, name


def test_square_in_center_negative():
    assert not square_in_center_check(nonleibniz()).holds


def test_the_squares_residual_is_the_leibniz_residual_symmetrized(positive_algebras,
                                                                    negative_algebras):
    # [[e_i,e_j] + [e_j,e_i], e_k] = -(L(i,j,k) + L(j,i,k)) for L the Leibniz
    # residual, the [e_i,[e_j,e_k]] and [e_j,[e_i,e_k]] terms cancelling, so
    # the squares check fails only where the Leibniz identity fails
    for name, g in {**positive_algebras, **negative_algebras}.items():
        L = leibniz_residual(g.c)
        symmetrized = contract([(-1, "ijkt->ijkt", L), (-1, "jikt->ijkt", L)])
        expected = residual_witnesses(symmetrized, g.dim, "square-center")
        assert square_in_center_check(g).witnesses == tuple(expected), name
    assert not square_in_center_check(nonleibniz()).holds


def test_quotient_abelian():
    q, proj = quotient_by_left_center(LeibnizAlgebra.abelian(3))
    assert q.dim == 0
    # the projection onto the 0-dimensional quotient still has 3 columns
    assert proj.shape == (0, 3) and proj == {}


def test_quotient_l2():
    q, proj = quotient_by_left_center(l2_algebra())
    assert q.dim == 1
    assert is_lie(q)
    assert not q.c  # abelian
    # the projection kills the center and is the identity on the complement
    assert proj.shape == (1, 2) and proj == {(0, 0): F(1)}


def test_quotient_sl2_is_itself():
    q, proj = quotient_by_left_center(sl2())
    assert q.dim == 3
    assert q.c == sl2().c
    assert proj.shape == (3, 3) and proj == {(a, a): F(1) for a in range(3)}


def test_quotient_heis3():
    q, _ = quotient_by_left_center(heisenberg3())
    assert q.dim == 2
    assert is_lie(q)
    assert not q.c


def test_quotient_refuses_an_algebra_that_is_not_leibniz():
    # [e0,e1] = -e1, [e0,e2] = -e2, [e1,e2] = e0 is antisymmetric but fails the
    # Jacobi identity, and so does its quotient: only a check of the input
    # itself refuses it, in the words of every other refusal
    skew = LeibnizAlgebra.from_brackets(3, {(0, 1): {1: -1}, (1, 0): {1: 1}, (0, 2): {2: -1},
                                            (2, 0): {2: 1}, (1, 2): {0: 1}, (2, 1): {0: -1}})
    assert is_lie(skew)
    for g in (skew, nonleibniz(), nonleibniz2()):
        where = check_leibniz(g).witnesses[0].where
        message = f"input is not a Leibniz algebra; first witness at {where}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            quotient_by_left_center(g)


def test_quotient_is_fixed_by_its_defining_properties(positive_algebras,
                                                      dense_rational_algebras):
    # the projection kills Z(g), sends e_(J_a) to e_a for the pivot columns J
    # of the RREF of left multiplication, and carries brackets to brackets;
    # these determine the quotient and its projection
    algebras = {**positive_algebras, "omni3": omni_lie(3),
                **{f"{name} (dense)": g for name, g in dense_rational_algebras.items()}}
    for name, g in algebras.items():
        n, z = g.dim, left_center(g)
        q, proj = quotient_by_left_center(g)
        c = dense(g.c, (n,) * 3)
        pivots = rref(from_rows([[c[i][j][k] for i in range(n)]
                                 for j in range(n) for k in range(n)])).pivot_columns
        kept = {i: a for a, i in enumerate(pivots)}
        assert q.dim == len(kept) and proj.shape == (q.dim, n), name
        assert not contract([(1, "ka,ua->uk", proj, z.basis)]), name
        assert {(k, kept[i]): x for (k, i), x in proj.items() if i in kept} == {
            (a, a): F(1) for a in range(q.dim)}, name
        assert not contract([(1, "ijt,kt->ijk", g.c, proj),
                             (-1, "bj,ibk->ijk", proj,
                              contract([(1, "ai,abk->ibk", proj, q.c)]))]), name
        assert is_lie(q) and check_leibniz(q).holds, name


@st.composite
def invertible_matrices(draw, n):
    """P L U with L unit lower and U upper triangular with a nonzero
    diagonal, and P a permutation of the rows: every invertible matrix has
    this form."""
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    lower = from_rows([[draw(entries) if b < a else F(a == b) for b in range(n)]
                       for a in range(n)])
    upper = from_rows([[draw(entries) if b > a else draw(entries.filter(bool)) if b == a
                        else F(0) for b in range(n)] for a in range(n)])
    rows = to_rows(matmul(lower, upper))
    return [rows[i] for i in draw(st.permutations(range(n)))]


def _invariants(g):
    q = quotient_by_left_center(g)[0]
    return (check_leibniz(g).holds, is_lie(g), left_center(g).dim, derived_subalgebra(g).dim,
            q.dim, is_lie(q))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_invariants_survive_change_of_basis(positive_algebras, dense_rational_algebras, data):
    # a random invertible rational change of basis gives the centers, spans
    # and quotients below coefficients other than 0 and +-1
    algebras = {**positive_algebras,
                **{f"{name} (dense)": g for name, g in dense_rational_algebras.items()}}
    name = data.draw(st.sampled_from(sorted(algebras)))
    g = algebras[name]
    b = data.draw(invertible_matrices(g.dim))
    assert _invariants(change_basis(g, b)) == _invariants(g), (name, b)
