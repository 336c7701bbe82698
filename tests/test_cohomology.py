from __future__ import annotations

import itertools
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import leibniz_kit.algebra as algebra_module
import leibniz_kit.cohomology as cohomology_module
import oracles
from conftest import change_basis
from oracles import (
    Cochain,
    bracket,
    circle_product,
    cochain_tensor,
    column,
    graded_bracket,
    matrices,
    scaled,
    shuffles,
    structure_cochain,
    zeros,
)
from leibniz_kit import (
    LeibnizAlgebra,
    Matrix,
    Representation,
    ResourceCapExceeded,
    adjoint_naive,
    adjoint_rep,
    betti,
    check_leibniz,
    check_representation,
    coboundary,
    coboundary_columns,
    coboundary_matrix,
    cocycle_check,
    compare_adjoint,
    compare_trivial,
    conjugation_rep,
    dual_rep,
    image_representation,
    kernel_basis,
    left_center,
    maurer_cartan_check,
    naive_from_rep,
    omni_lie,
    rank,
    rbar,
    right_action_cochain,
    rref,
    semidirect,
    trivial_naive_rep,
    trivial_naive_space,
    trivial_rep,
)
from leibniz_kit import fixtures as corpus
from leibniz_kit.fixtures import (
    bad_representation,
    heisenberg3,
    l2_algebra,
    nonleibniz,
    nonleibniz2,
    sl2,
)
from leibniz_kit.algebra import leibniz_residual
from leibniz_kit.cohomology import maurer_cartan_residual
from leibniz_kit.linalg import Tensor, contract, sparse_tensor

F = Fraction
E = lambda n, i: [F(j == i) for j in range(n)]


def left_only(rep: Representation) -> Representation:
    return Representation(rep.algebra, rep.vdim, rep.l, {})


# ---------------------------------------------------------------------------
# representations

def test_trivial_and_adjoint_are_representations(positive_algebras):
    for name, g in positive_algebras.items():
        assert check_representation(trivial_rep(g)).holds, name
        assert check_representation(adjoint_rep(g)).holds, name


def test_adjoint_matrices_read_off_structure_constants():
    g = l2_algebra()
    ad = adjoint_rep(g)
    assert matrices(ad.l)[0] == oracles.from_rows([[0, 0], [1, 0]])   # e1 -> e2
    assert matrices(ad.l)[1] == zeros(2, 2)
    assert matrices(ad.r)[0] == oracles.from_rows([[0, 0], [1, 0]])
    assert matrices(ad.r)[1] == zeros(2, 2)
    h = heisenberg3()
    adh = adjoint_rep(h)
    assert column(matrices(adh.l)[0], 1) == [F(0), F(0), F(1)]        # [e1, e2] = e3
    assert column(matrices(adh.r)[0], 1) == [F(0), F(0), F(-1)]       # [e2, e1] = -e3


def test_bad_representation_fails():
    report = check_representation(bad_representation())
    assert not report.holds
    assert {w.label for w in report.witnesses} & {"r-of-bracket", "r-absorbs-l"}


def test_negated_right_action_fails_where_products_survive():
    # flipping the sign of r only breaks the third condition when some
    # product r_y r_x is nonzero: true for sl2, vacuous for the nilpotent L2
    g = sl2()
    ad = adjoint_rep(g)
    flipped = Representation(g, 3, ad.l, scaled(ad.r, -1))
    report = check_representation(flipped)
    assert not report.holds
    assert any(w.label == "r-absorbs-l" for w in report.witnesses)

    g2 = l2_algebra()
    ad2 = adjoint_rep(g2)
    flipped2 = Representation(g2, 2, ad2.l, scaled(ad2.r, -1))
    assert check_representation(flipped2).holds  # all r-products vanish here


def test_representation_witnesses_grouped_by_label():
    # doubling the left action of sl2 breaks all three conditions; the
    # witnesses list every l-of-bracket failure first, then r-of-bracket,
    # then r-absorbs-l, each in lexicographic order of (i, j)
    g = sl2()
    ad = adjoint_rep(g)
    report = check_representation(Representation(g, 3, scaled(ad.l, 2), ad.r))
    labels = [w.label for w in report.witnesses]
    order = ["l-of-bracket", "r-of-bracket", "r-absorbs-l"]
    assert labels == sorted(labels, key=order.index)
    assert set(labels) == set(order)
    for label in order:
        where = [w.where for w in report.witnesses if w.label == label]
        assert where == sorted(where), label
    first = report.witnesses[0]
    assert (first.where, first.label) == ((0, 1), "l-of-bracket")
    # [l_h, l_e] = 2 l_e, so doubling gives 2*2 l_e - 4*2 l_e = -4 l_e
    assert first.defect == tuple(tuple(-4 * x for x in row)
                                 for row in oracles.to_rows(matrices(ad.l)[1]))


def test_dual_rep_is_negative_transpose():
    g = l2_algebra()
    rep = left_only(adjoint_rep(g))
    dual = dual_rep(rep)
    assert matrices(dual.l)[0] == oracles.from_rows([[0, -1], [0, 0]])
    assert all(oracles.is_zero(m) for m in matrices(dual.r))
    assert check_representation(dual).holds
    # dualizing twice restores the original matrices
    assert dual_rep(dual).l == rep.l


def test_dual_rep_rejects_right_action():
    with pytest.raises(ValueError):
        dual_rep(adjoint_rep(l2_algebra()))


def test_conjugation_rep_values():
    g = l2_algebra()
    rep = left_only(adjoint_rep(g))
    conj = conjugation_rep(rep)
    assert check_representation(conj).holds
    # [l, I] = 0 for any l
    identity_flat = [F(1), F(0), F(0), F(1)]
    assert all(not c for c in oracles.mv(matrices(conj.l)[0], identity_flat))
    # with l = E21: [E21, E12] = E22 - E11 (flattened row-major)
    e12_flat = [F(0), F(1), F(0), F(0)]
    assert oracles.mv(matrices(conj.l)[0], e12_flat) == [F(-1), F(0), F(0), F(1)]


def test_conjugation_of_zero_is_zero():
    g = LeibnizAlgebra.abelian(2)
    conj = conjugation_rep(trivial_rep(g))
    assert all(oracles.is_zero(m) for m in matrices(conj.l))


def test_dual_and_conjugation_valid_for_all_fixtures(positive_algebras):
    for name, g in positive_algebras.items():
        rep = left_only(adjoint_rep(g))
        assert check_representation(dual_rep(rep)).holds, name
        assert check_representation(conjugation_rep(rep)).holds, name


# ---------------------------------------------------------------------------
# the coboundary

def test_coboundary_trivial_rep_vanishes_on_abelian():
    g = LeibnizAlgebra.abelian(2)
    rep = trivial_rep(g)
    d = coboundary(rep, sparse_tensor({(0, 0): 1, (1, 0): 2}, (2, 1), "cochain"))
    assert d == {} and d.shape == (2, 2, 1)
    assert oracles.is_zero(coboundary_matrix(rep, 0))
    assert oracles.is_zero(coboundary_matrix(rep, 2))


def test_coboundary_degree1_trivial_l2():
    # d xi (x, y) = -xi([x, y]); with xi = e2* only (e1, e1) survives
    g = l2_algebra()
    d = coboundary(trivial_rep(g), sparse_tensor({(1, 0): 1}, (2, 1), "cochain"))
    assert d == {(0, 0, 0): -1} and d.shape == (2, 2, 1)


def test_coboundary_degree0_kernel_is_left_center(positive_algebras):
    # d v (x) = -r_x v = -[v, x] for the adjoint action
    for name, g in positive_algebras.items():
        m0 = coboundary_matrix(adjoint_rep(g), 0)
        ker = kernel_basis(oracles.tensor(m0))
        z = left_center(g)
        assert ker.dim == z.dim, name
        for v in oracles.basis_rows(ker):
            assert oracles.contains(z, v), name


def test_coboundary_matrix_l2_adjoint_degree0():
    m0 = coboundary_matrix(adjoint_rep(l2_algebra()), 0)
    assert m0.shape == (4, 2)
    from leibniz_kit import rank
    assert rank(m0) == 1


def _random_cochain(rng, degree, n, m) -> Cochain:
    values = [[F(rng.randint(-3, 3)) for _ in range(m)] for _ in range(n ** degree)]
    return Cochain(degree, n, m, tuple(tuple(v) for v in values))


def _flat(c: Cochain) -> list[Fraction]:
    out = []
    for v in c.values:
        out.extend(v)
    return out


def _fractional_rep() -> Representation:
    """Two commuting left actions with denominators 2 and 3 on Q^2, over the
    abelian plane; the right action is zero."""
    a = oracles.from_rows([[F(1, 2), F(1, 3)], [0, F(-1, 2)]])
    b = oracles.matmul(a, a)
    return Representation(LeibnizAlgebra.abelian(2), 2, oracles.action_tensor((a, b)), {})


def _zero_module() -> Representation:
    return Representation(sl2(), 0, {}, {})


def _reps_for_kernel_checks(small_algebras, dense_rational_algebras):
    for name, g in {**small_algebras, **dense_rational_algebras}.items():
        yield name + "/trivial", trivial_rep(g)
        yield name + "/adjoint", adjoint_rep(g)
    yield "fractional", _fractional_rep()
    yield "vdim0", _zero_module()


def _random_sparse_cochain(rng, k, n, m) -> Tensor:
    """A few random Fraction entries of a k-cochain on Q^n with values in Q^m."""
    shape = (n,) * k + (m,)
    if not m:
        return sparse_tensor({}, shape, "cochain")
    return sparse_tensor({tuple(rng.randrange(d) for d in shape):
                          F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                          for _ in range(rng.randint(1, 4))}, shape, "cochain")


def test_coboundary_matrix_matches_direct_evaluation(positive_algebras, dense_rational_algebras):
    # the literal formula on random sparse cochains against the coboundary
    # and against the coboundary matrix; the coboundary squares to zero
    rng = random.Random(7)
    for name, rep in _reps_for_kernel_checks(positive_algebras, dense_rational_algebras):
        g, m = rep.algebra, rep.vdim
        ls, rs = matrices(rep.l), matrices(rep.r)
        for k in range(3):
            f = _random_sparse_cochain(rng, k, g.dim, m)
            c = oracles.dense_cochain(f, g.dim)
            literal = oracles.coboundary(g, lambda s, v: oracles.mv(ls[s], v),
                                         lambda s, v: oracles.mv(rs[s], v), c.values, k, m)
            expected = Cochain(k + 1, g.dim, m, literal)
            d = coboundary(rep, f)
            assert d == cochain_tensor(expected), (name, k)
            assert d.shape == (g.dim,) * (k + 1) + (m,) and isinstance(d, Tensor), (name, k)
            assert oracles.mv(coboundary_matrix(rep, k), _flat(c)) == _flat(expected), (name, k)
            assert coboundary(rep, d) == {}, (name, k)


def test_coboundary_refuses_a_cochain_of_another_shape():
    rep = adjoint_rep(l2_algebra())
    for shape in ((), (3,), (2, 3), (3, 2), (2, 2, 1), (1, 2, 2)):
        f = sparse_tensor({}, shape, "cochain")
        for check in (coboundary, cocycle_check):
            with pytest.raises(ValueError, match="cochain does not match the representation"):
                check(rep, f)


def test_the_maurer_cartan_residual_reads_its_cochain_like_any_tensor():
    # r goes through sparse_tensor, as every mapping a constructor takes: a
    # key that is no index of shape (n, n, n) is refused, and a dict is read
    g = l2_algebra()
    for key in ((0, 0, 2), (0, 0), (0, 0, 0, 0), (True, 0, 0)):
        with pytest.raises(ValueError) as caught:
            maurer_cartan_residual(g, {key: 1})
        assert str(caught.value) == f"cochain: key {key!r} is no index of shape (2, 2, 2)"
    r = {(0, 1, 1): 1, (1, 0, 0): F(1, 2)}
    assert maurer_cartan_residual(g, r) == maurer_cartan_residual(g, sparse_tensor(r, (2, 2, 2), "r"))
    assert maurer_cartan_residual(g, r)


def _counting_columns(monkeypatch) -> list:
    """Record the number of columns each ``coboundary_columns`` call builds."""
    true_build = cohomology_module.coboundary_columns
    built = []

    def counting_build(*args, **kwargs):
        den, columns = true_build(*args, **kwargs)
        built.append(len(columns))
        return den, columns

    monkeypatch.setattr(cohomology_module, "coboundary_columns", counting_build)
    return built


def test_coboundary_builds_only_the_columns_of_its_cochain(monkeypatch, positive_algebras):
    # one column per entry of f, so a one-entry cochain of degree 4 on omni2
    # adjoint builds 1 of its 7776 columns, and the result is the literal
    # formula on random sparse cochains of every fixture
    built = _counting_columns(monkeypatch)
    rep = adjoint_rep(omni_lie(2))
    d = coboundary(rep, sparse_tensor({(1, 0, 5, 2, 3): 1}, (6,) * 5, "cochain"))
    assert built == [1] and d
    rng = random.Random(31)
    for name, g in positive_algebras.items():
        for rep in (trivial_rep(g), adjoint_rep(g)):
            m = rep.vdim
            ls, rs = matrices(rep.l), matrices(rep.r)
            for k in range(4):
                f = _random_sparse_cochain(rng, k, g.dim, m)
                del built[:]
                d = coboundary(rep, f)
                assert built == [len(f)], (name, m, k)
                literal = oracles.coboundary(g, lambda s, v: oracles.mv(ls[s], v),
                                             lambda s, v: oracles.mv(rs[s], v),
                                             oracles.dense_cochain(f, g.dim).values, k, m)
                assert d == cochain_tensor(Cochain(k + 1, g.dim, m, literal)), (name, m, k)


def _kernel_cochains(rep: Representation, k: int) -> list[Tensor]:
    """A basis of ker d_k, each vector a k-cochain tensor: coordinate j of
    the kernel of the coboundary matrix is the value e_(j % m) on the
    k-tuple of rank j // m."""
    n, m = rep.algebra.dim, rep.vdim
    tuples = list(itertools.product(range(n), repeat=k))
    kernel = kernel_basis(oracles.tensor(coboundary_matrix(rep, k)))
    return [sparse_tensor({(*tuples[j // m], j % m): x
                           for (j,), x in kernel.basis[u].items()}, (n,) * k + (m,), "cochain")
            for u in range(kernel.dim)]


def _extension(rep: Representation, omega: Tensor) -> LeibnizAlgebra:
    """g (+) V with [x+u, y+v] = [x,y] + l_x v + r_y u + omega(x,y)."""
    g = rep.algebra
    c = {**semidirect(g, rep, "lr").c,
         **{(i, j, g.dim + w): x for (i, j, w), x in omega.items()}}
    return LeibnizAlgebra(g.dim + rep.vdim, c)


def test_one_cocycles_of_the_adjoint_representation_are_derivations(positive_algebras):
    # d f(x, y) = [x, f(y)] + [f(x), y] - f([x, y]), so Z^1(g, g) is Der(g):
    # D[x, y] - [Dx, y] - [x, Dy] vanishes on every basis pair
    for name, g in positive_algebras.items():
        kernel = _kernel_cochains(adjoint_rep(g), 1)
        assert len(kernel) >= g.dim - left_center(g).dim, name  # the inner ones at least
        for D in kernel:
            assert not contract([(1, "ija,at->ijt", g.c, D), (-1, "ia,ajt->ijt", D, g.c),
                                 (-1, "ja,iat->ijt", D, g.c)]), name


def test_two_cochains_extend_exactly_when_they_are_cocycles(positive_algebras):
    # g (+) V bracketed through omega is Leibniz iff d omega = 0, for the
    # trivial and the adjoint module (Loday-Pirashvili, Math. Ann. 1993):
    # every basis cocycle extends, and a random cochain extends iff it is one
    rng = random.Random(22)
    for name, g in positive_algebras.items():
        for rep in (trivial_rep(g), adjoint_rep(g)):
            for omega in _kernel_cochains(rep, 2):
                assert check_leibniz(_extension(rep, omega)).holds, (name, rep.vdim)
            refused = 0
            for _ in range(8):
                omega = _random_sparse_cochain(rng, 2, g.dim, rep.vdim)
                closed = not coboundary(rep, omega)
                assert check_leibniz(_extension(rep, omega)).holds == closed, (name, rep.vdim)
                refused += not closed
            assert refused or coboundary_matrix(rep, 2).nnz() == 0, (name, rep.vdim)


def test_cohomologous_two_cocycles_give_isomorphic_extensions(positive_algebras):
    # omega + d phi extends g by V isomorphically to omega: the map
    # x + u -> x + u + phi(x), the identity plus phi off the diagonal and so
    # invertible, carries the bracket of the first extension to that of the
    # second, which one contraction checks on every basis pair
    rng = random.Random(23)
    for name, g in positive_algebras.items():
        n = g.dim
        for rep in (trivial_rep(g), adjoint_rep(g)):
            m = rep.vdim
            moved = 0
            for omega, _ in itertools.product(_kernel_cochains(rep, 2), range(3)):
                phi = _random_sparse_cochain(rng, 1, n, m)
                d_phi = coboundary(rep, phi)
                moved += bool(d_phi)
                shifted = _extension(rep, contract([(1, "ijv->ijv", omega),
                                                    (1, "ijv->ijv", d_phi)]))
                P = {**{(a, a): F(1) for a in range(n + m)},
                     **{(t, n + v): x for (t, v), x in phi.items()}}
                carried = contract([(1, "ia,abt->ibt", P, _extension(rep, omega).c)])
                assert not contract([(1, "ijk,kt->ijt", shifted.c, P),
                                     (-1, "jb,ibt->ijt", P, carried)]), (name, m)
            assert moved or coboundary_matrix(rep, 1).nnz() == 0, (name, m)


def test_the_adjoint_coboundary_of_a_two_cochain_is_the_cross_term_of_the_leibniz_residual(
        positive_algebras, negative_algebras):
    # Leib(c + r) = Leib(c) + d r + Leib(r) as polynomials in c and r, for
    # d the coboundary of the adjoint representation of c, Leibniz or not:
    # d r is the part of the Leibniz residual of c + r linear in r, which is
    # what lets the Maurer-Cartan residual build no coboundary
    rng = random.Random(25)
    for name, g in {**positive_algebras, **negative_algebras}.items():
        rep = adjoint_rep(g)
        moved = 0
        for _ in range(6):
            r = _random_sparse_cochain(rng, 2, g.dim, g.dim)
            deformed = contract([(1, "ijt->ijt", g.c), (1, "ijt->ijt", r)])
            cross = contract([(1, "ijkt->ijkt", leibniz_residual(deformed)),
                              (-1, "ijkt->ijkt", leibniz_residual(g.c)),
                              (-1, "ijkt->ijkt", leibniz_residual(r))])
            d = coboundary(rep, r)
            assert d == cross, name
            moved += bool(d)
        assert moved or coboundary_matrix(rep, 2).nnz() == 0, name


def test_the_leibniz_residual_of_a_two_cocycle_is_a_three_cocycle(positive_algebras):
    # for omega in ker d_2 (adjoint), c + t omega is Leibniz up to t^2 J,
    # J the Leibniz residual of omega alone, and J is a 3-cocycle: the first
    # obstruction to extending the deformation (Gerstenhaber, Ann. of Math.
    # 79, 1964); this checks d_3 without a rank
    nonzero = 0
    for name, g in positive_algebras.items():
        n, rep = g.dim, adjoint_rep(g)
        for omega in _kernel_cochains(rep, 2):
            J = sparse_tensor(leibniz_residual(omega), (n,) * 4, "cochain")
            assert coboundary(rep, J) == {}, name
            nonzero += bool(J)
    assert nonzero


def test_coboundary_matrix_is_columns_over_common_denominator(small_algebras,
                                                              dense_rational_algebras):
    # column j of d_k, over the common denominator, is column j of the
    # coboundary matrix and the coboundary of the basis cochain j: the tuple
    # of rank j // m with value e_(j % m)
    for name, rep in _reps_for_kernel_checks(small_algebras, dense_rational_algebras):
        g, m = rep.algebra, rep.vdim
        entries = [v for mat in (*matrices(rep.l), *matrices(rep.r)) for i in range(mat.rows)
                   for _, v in mat.row_items(i)]
        entries += list(g.c.values())
        expected_den = lcm(*[x.denominator for x in entries])
        for k in range(3):
            den, columns = coboundary_columns(rep, k)
            assert den == expected_den, name
            out_dim = g.dim ** (k + 1) * m
            assert len(columns) == g.dim ** k * m, (name, k)
            assert all(type(x) is int and x and 0 <= row < out_dim
                       for col in columns for row, x in col.items()), (name, k)
            transposed = oracles.transpose(Matrix(len(columns), out_dim, columns))
            assert coboundary_matrix(rep, k) == oracles.linear_combination(
                (F(1, den),), (transposed,), transposed.shape), (name, k)
            for j, col in enumerate(columns):
                values = [[0] * m for _ in range(g.dim ** k)]
                values[j // m][j % m] = 1
                d = coboundary(rep, cochain_tensor(Cochain(k, g.dim, m, values)))
                assert (_flat(oracles.dense_cochain(d, g.dim))
                        == [F(col.get(row, 0), den) for row in range(out_dim)]), (name, k, j)
    assert check_representation(_fractional_rep()).holds
    assert coboundary_columns(_fractional_rep(), 0)[0] == 12  # a has 2, 3; a^2 has 4


def test_betti_of_zero_module_and_fractional_actions():
    assert coboundary_columns(_zero_module(), 2) == (1, [])
    degrees = betti(_zero_module(), 2).degrees
    assert [(d.dim_cochains, d.rank_d, d.dim_h) for d in degrees] == [(0, 0, 0)] * 3
    rep = _fractional_rep()
    ranks = [d.rank_d for d in betti(rep, 2).degrees]
    assert ranks == [rref(coboundary_matrix(rep, k)).rank for k in range(3)]
    assert ranks[0] == 0  # degree 0 sees only r = 0


def test_coboundary_squares_to_zero_spot(small_algebras):
    # d_(k+1) d_k = 0 by the oracle product, for the classical complexes and
    # for the image representations whose complexes are the naive ones:
    # betti clears all of them alike, on the strength of the identities its
    # refusal checks
    for name, g in small_algebras.items():
        ad = adjoint_rep(g)
        naive = [adjoint_naive(g), naive_from_rep(ad)]
        space = trivial_naive_space(g)
        if space.dim:
            naive.append(trivial_naive_rep(g, space.basis[0]))
        images = [image_representation(rho) for rho in naive]
        assert all(check_representation(rep).holds for rep in images), name
        for rep in (trivial_rep(g), ad, *images):
            for k in range(2):
                prod = oracles.matmul(coboundary_matrix(rep, k + 1), coboundary_matrix(rep, k))
                assert oracles.is_zero(prod), (name, k)


def test_resource_cap():
    g = heisenberg3()
    with pytest.raises(ResourceCapExceeded):
        coboundary_matrix(adjoint_rep(g), 2, cap=10)
    with pytest.raises(ResourceCapExceeded):
        betti(adjoint_rep(g), 4, cap=100)


def test_the_cap_weighs_the_degrees_in_closed_form():
    # n^(k+1) m stays at m (n = 1) or 0 (n = 0, or m = 0), so the rows alone
    # admitted any number of degrees; the weight max(m, 1) (K+1)(K+2)/2 is
    # checked without a loop over them
    for n, m in ((1, 1), (0, 1), (0, 0), (1, 3)):
        with pytest.raises(ResourceCapExceeded) as caught:
            cohomology_module._require_within_cap(n, m, 10 ** 8, 20000)
        weight = max(m, 1) * (10 ** 8 + 1) * (10 ** 8 + 2) // 2
        assert (caught.value.required, caught.value.cap) == (weight, 20000)
        assert str(caught.value) == (f"the 100000001 degrees 0..100000000, of weight max(m, 1) "
                                     f"(k_max+1)(k_max+2)/2 = {weight} exceeds cap 20000")
    cohomology_module._require_within_cap(1, 1, 198, 20000)  # 199 * 200 / 2 = 19900
    with pytest.raises(ResourceCapExceeded):
        cohomology_module._require_within_cap(1, 1, 199, 20000)  # 200 * 201 / 2 = 20100
    cohomology_module._require_within_cap(1, 1, 10 ** 8, None)


def test_a_degree_weight_at_the_cap_is_admitted():
    # the cap bounds the weight from above: exactly at it is within it
    cohomology_module._require_within_cap(1, 1, 198, 19900)  # 199 * 200 / 2 = 19900
    cohomology_module._require_within_cap(0, 2, 3, 20)  # 2 * 4 * 5 / 2 = 20
    assert betti(trivial_rep(LeibnizAlgebra.abelian(1)), 3, cap=10).dim_h(3) == 1
    for n, m, k_max, cap in ((1, 1, 198, 19899), (0, 2, 3, 19), (1, 1, 3, 9)):
        with pytest.raises(ResourceCapExceeded) as caught:
            cohomology_module._require_within_cap(n, m, k_max, cap)
        assert (caught.value.required, caught.value.cap) == (cap + 1, cap)


def test_the_degree_weight_refuses_nothing_the_rows_admit():
    # for n >= 2 and m >= 1, 2^(K+1) >= (K+1)(K+2)/2 makes the weight follow
    # from the rows: the outcome and its message are those of the row rule,
    # checked degree by degree
    def rows_refusal(n, m, k_max, cap):
        return next((n ** (k + 1) * m for k in range(k_max + 1) if n ** (k + 1) * m > cap), None)

    for n, m, k_max, cap in itertools.product((2, 3), (1, 2, 5), range(25), (1, 7, 80, 20000)):
        try:
            cohomology_module._require_within_cap(n, m, k_max, cap)
            refused = None
        except ResourceCapExceeded as exc:
            assert str(exc) == f"cochain space of dimension {exc.required} exceeds cap {cap}"
            refused = exc.required
        assert refused == rows_refusal(n, m, k_max, cap), (n, m, k_max, cap)


# ---------------------------------------------------------------------------
# shuffles and the graded bracket

@pytest.mark.parametrize("k,q", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_shuffle_generator_matches_filter(k, q):
    fast = sorted(shuffles(k, q))
    slow = sorted(oracles.shuffles_by_filter(k, q))
    assert fast == slow
    assert len(fast) == comb(k + q, k)


@pytest.mark.parametrize("k,q", [(0, 0), (0, 2), (3, 0)])
def test_shuffle_degenerate_cases(k, q):
    assert shuffles(k, q) == oracles.shuffles_by_filter(k, q)
    assert len(shuffles(k, q)) == comb(k + q, k)


def _circle_oracle(alpha: Cochain, beta: Cochain) -> Cochain:
    """Independent evaluation of the insertion product: reference shuffles
    and full multilinear evaluation instead of index expansion."""
    n = alpha.n
    p, q = alpha.degree - 1, beta.degree - 1
    deg = p + q + 1
    values = []
    for X in itertools.product(range(n), repeat=deg):
        args = [E(n, x) for x in X]
        acc = [F(0)] * n
        for k in range(p + 1):
            for sigma, sgn in oracles.shuffles_by_filter(k, q):
                coeff = F((-1) ** (k * q) * sgn)
                beta_args = [args[s - 1] for s in sigma[k:]] + [args[k + q]]
                beta_val = oracles.evaluate(beta, beta_args)
                alpha_args = [args[s - 1] for s in sigma[:k]] + [beta_val] + args[k + q + 1:]
                term = oracles.evaluate(alpha, alpha_args)
                for t in range(n):
                    acc[t] += coeff * term[t]
        values.append(tuple(acc))
    return Cochain(deg, n, n, tuple(values))


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])
def test_circle_product_matches_oracle(p, q):
    rng = random.Random(p * 10 + q)
    n = 2
    alpha = _random_cochain(rng, p + 1, n, n)
    beta = _random_cochain(rng, q + 1, n, n)
    assert circle_product(alpha, beta) == _circle_oracle(alpha, beta)


def test_circle_product_of_one_cochains_is_composition():
    rng = random.Random(3)
    n = 3
    alpha = _random_cochain(rng, 1, n, n)
    beta = _random_cochain(rng, 1, n, n)
    got = circle_product(alpha, beta)
    a = oracles.from_cols(n, [alpha.value_at((j,)) for j in range(n)])
    b = oracles.from_cols(n, [beta.value_at((j,)) for j in range(n)])
    composed = oracles.matmul(a, b)
    for j in range(n):
        assert list(got.value_at((j,))) == column(composed, j)


def test_circle_with_identity_insert():
    # inserting the identity one-cochain into a 2-cochain; pinned by the
    # reference-shuffle oracle rather than a hand formula
    rng = random.Random(11)
    n = 2
    alpha = _random_cochain(rng, 2, n, n)
    ident = Cochain(1, n, n, tuple(tuple(E(n, i)) for i in range(n)))
    assert circle_product(alpha, ident) == _circle_oracle(alpha, ident)


def test_graded_bracket_antisymmetry():
    rng = random.Random(5)
    n = 2
    for p, q in [(0, 0), (1, 1), (1, 2), (2, 2)]:
        alpha = _random_cochain(rng, p + 1, n, n)
        beta = _random_cochain(rng, q + 1, n, n)
        lhs = graded_bracket(alpha, beta)
        rhs = oracles.scale((-1) ** (p * q), graded_bracket(beta, alpha))
        assert oracles.add(lhs, rhs).is_zero()


def test_self_bracket_vanishes_iff_leibniz(positive_algebras):
    for name, g in positive_algebras.items():
        alpha = structure_cochain(g)
        assert graded_bracket(alpha, alpha).is_zero(), name
    for g in (nonleibniz(), nonleibniz2()):
        alpha = structure_cochain(g)
        assert not graded_bracket(alpha, alpha).is_zero()


def test_self_bracket_matches_trilinear_expansion(positive_algebras):
    # [a,a](x,y,z) = 2( a(a(x,y),z) - a(x,a(y,z)) + a(y,a(x,z)) ), computed
    # here through the algebra bracket as an independent route
    cases = dict(positive_algebras)
    cases["nonleibniz"] = nonleibniz()
    cases["nonleibniz2"] = nonleibniz2()
    for name, g in cases.items():
        n = g.dim
        alpha = structure_cochain(g)
        self_bracket = graded_bracket(alpha, alpha)
        for i in range(n):
            x = E(n, i)
            for j in range(n):
                y = E(n, j)
                for k in range(n):
                    z = E(n, k)
                    expected = [
                        2 * (a - b + c)
                        for a, b, c in zip(
                            bracket(g, bracket(g, x, y), z),
                            bracket(g, x, bracket(g, y, z)),
                            bracket(g, y, bracket(g, x, z)),
                        )
                    ]
                    assert list(self_bracket.value_at((i, j, k))) == expected, name


def test_nonleibniz_self_bracket_pinned_value():
    # [a,a](e1,e1,e1) = 2 a(a(e1,e1),e1) - 2 a(e1,a(e1,e1)) + 2 a(e1,a(e1,e1)) = 2 e1
    alpha = structure_cochain(nonleibniz())
    assert graded_bracket(alpha, alpha).value_at((0, 0, 0)) == (F(2),)


# ---------------------------------------------------------------------------
# semidirect products, rbar, Maurer-Cartan

def test_semidirect_with_trivial_rep_is_direct_sum():
    g = heisenberg3()
    out = semidirect(g, trivial_rep(g), "lr")
    assert out.dim == 4
    # the same brackets on g, and the added line is central on both sides
    assert out.c == g.c


def _gl(n: int) -> LeibnizAlgebra:
    """gl(n) as a Leibniz algebra via matrix commutators of elementary
    matrices, built independently of the omni construction."""
    dim = n * n
    c = {}
    for a in range(n):
        for b in range(n):
            for p in range(n):
                for q in range(n):
                    # [E_ab, E_pq] = delta_bp E_aq - delta_qa E_pb
                    if b == p:
                        key = (a * n + b, p * n + q, a * n + q)
                        c[key] = c.get(key, 0) + 1
                    if q == a:
                        key = (a * n + b, p * n + q, p * n + b)
                        c[key] = c.get(key, 0) - 1
    return LeibnizAlgebra(dim, c)


def test_omni_is_semidirect_of_gl_with_natural_rep():
    n = 2
    gl = _gl(n)
    assert check_leibniz(gl).holds
    basis_action = tuple(
        oracles.from_rows([[F(1) if (a, b) == (row, col) else F(0)
                            for col in range(n)] for row in range(n)])
        for a in range(n) for b in range(n))
    natural = Representation(gl, n, oracles.action_tensor(basis_action), {})
    assert check_representation(natural).holds
    assert semidirect(gl, natural, "l0").c == omni_lie(n).c


def test_semidirect_adjoint_fixtures_are_leibniz():
    for g in (l2_algebra(), heisenberg3(), sl2()):
        for mode in ("lr", "l0"):
            out = semidirect(g, adjoint_rep(g), mode)
            assert out.dim == 2 * g.dim
            assert check_leibniz(out).holds


def test_rbar_zero_when_no_right_action():
    g = heisenberg3()
    rb = rbar(g, left_only(adjoint_rep(g)))
    assert rb == {} and rb.shape == (6, 6, 6)


def test_rbar_values_on_basis_pairs():
    # on g x| g with the adjoint actions: rbar(x+u, y+v) = [u, y]
    g = l2_algebra()
    rb = rbar(g, adjoint_rep(g))
    n = 2
    expected = {(n + a, j, n + w): x for a in range(n) for j in range(n)
                for w, x in enumerate(bracket(g, E(n, a), E(n, j))) if x}
    assert expected and rb == expected and rb.shape == (2 * n,) * 3


def test_rbar_and_right_action_cochain_match_the_oracle(positive_algebras,
                                                         dense_rational_algebras):
    for name, g in {**positive_algebras, **dense_rational_algebras}.items():
        for rep in (adjoint_rep(g), trivial_rep(g)):
            assert rbar(g, rep) == cochain_tensor(oracles.rbar(g, rep)), name
            assert rbar(g, rep).shape == (g.dim + rep.vdim,) * 3, name
            got = right_action_cochain(rep)
            assert got == cochain_tensor(oracles.right_action_cochain(rep)), name
            assert got.shape == (g.dim, rep.vdim ** 2), name


def test_maurer_cartan_trivially_zero_without_right_action():
    g = heisenberg3()
    assert maurer_cartan_check(g, left_only(adjoint_rep(g))).holds


def test_maurer_cartan_adjoint_fixtures():
    for g in (l2_algebra(), heisenberg3(), sl2()):
        assert maurer_cartan_check(g, adjoint_rep(g)).holds


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["sl2", "heis3", "L2"]), st.data())
def test_maurer_cartan_survives_change_of_basis(name, data):
    g = corpus.algebra(name)
    n = g.dim
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    b = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
                  .filter(lambda rows: rank(oracles.from_rows(rows)) == n))
    moved = change_basis(g, b)
    report = maurer_cartan_check(moved, adjoint_rep(moved))
    assert report.holds, (name, b, report.witnesses[:1])


# ---------------------------------------------------------------------------
# cocycles

def test_right_action_is_conjugation_cocycle(positive_algebras):
    for name, g in positive_algebras.items():
        ad = adjoint_rep(g)
        conj = conjugation_rep(left_only(ad))
        assert cocycle_check(conj, right_action_cochain(ad)), name


def test_zero_cochain_is_cocycle():
    g = l2_algebra()
    assert cocycle_check(adjoint_rep(g), sparse_tensor({}, (2, 2), "cochain"))


def test_identity_cochain_is_not_a_cocycle_for_l2_adjoint():
    # d c(x,y) = [x, c(y)] + [c(x), y] - c([x,y]); with c = id this is [x,y]
    g = l2_algebra()
    ident = sparse_tensor({(0, 0): 1, (1, 1): 1}, (2, 2), "cochain")
    assert not cocycle_check(adjoint_rep(g), ident)
    d = coboundary(adjoint_rep(g), ident)
    assert [d.get((0, 0, w), 0) for w in range(2)] == bracket(g, E(2, 0), E(2, 0))


# ---------------------------------------------------------------------------
# Betti numbers

def test_betti_abelian_trivial():
    report = betti(trivial_rep(LeibnizAlgebra.abelian(2)), 3)
    assert [d.dim_h for d in report.degrees] == [1, 2, 4, 8]


def test_betti_l2_trivial_degree1():
    report = betti(trivial_rep(l2_algebra()), 1)
    assert report.dim_h(1) == 1


def test_betti_l2_adjoint_degree0():
    report = betti(adjoint_rep(l2_algebra()), 0)
    assert report.dim_h(0) == 1


def test_betti_sl2_trivial_vanishes_positively():
    report = betti(trivial_rep(sl2()), 3)
    assert report.dim_h(0) == 1
    assert [report.dim_h(k) for k in (1, 2, 3)] == [0, 0, 0]


def test_betti_sl2_vanishes_in_higher_degrees():
    # the Leibniz cohomology of a simple Lie algebra vanishes in positive
    # degrees with trivial coefficients, and in every degree with adjoint ones
    # (Ntolo, C. R. Acad. Sci. Paris 1989; Pirashvili, Ann. Inst. Fourier 1994)
    assert [d.dim_h for d in betti(trivial_rep(sl2()), 6).degrees] == [1, 0, 0, 0, 0, 0, 0]
    assert [d.dim_h for d in betti(adjoint_rep(sl2()), 5).degrees] == [0] * 6


def test_betti_rejects_overstated_rank(monkeypatch):
    # the nonnegativity check on dim H is the safety net behind rank
    true_rank = cohomology_module.rank
    monkeypatch.setattr(cohomology_module, "rank",
                        lambda m, pivots=None: true_rank(m, pivots) + 1)
    with pytest.raises(AssertionError, match="negative cohomology dimension"):
        betti(trivial_rep(LeibnizAlgebra.abelian(1)), 1)


def test_rank_path_invariants_survive_optimize_flag():
    # python -O strips assert statements; these checks must still fire
    script = """
import leibniz_kit.cohomology as cohomology
import leibniz_kit.linalg as linalg
from leibniz_kit import LeibnizAlgebra, Matrix, betti, kernel_basis, trivial_rep
from leibniz_kit.linalg import sparse_tensor

true_rank, true_rref = cohomology.rank, linalg.rref
cohomology.rank = lambda m, pivots=None: true_rank(m, pivots) + 1
linalg.rref = lambda m: true_rref(Matrix(m.rows, m.cols, [{} for _ in range(m.rows)]))
for call in (lambda: betti(trivial_rep(LeibnizAlgebra.abelian(1)), 1),
             lambda: kernel_basis(sparse_tensor([[1, 0], [0, 1]], (2, 2), "matrix"))):
    try:
        call()
    except AssertionError:
        continue
    raise SystemExit("a broken rank path went unnoticed")
"""
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr


def _seeded_dense_basis(n: int, seed: str) -> list[list[Fraction]]:
    """An invertible n x n matrix with every entry a nonzero rational of
    numerator and denominator at most 3, drawn from a seeded generator."""
    rng = random.Random(seed)
    while True:
        b = [[F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        if rank(oracles.from_rows(b)) == n:
            return b


@pytest.mark.parametrize("name", ["L2", "heis3", "sl2", "omni1"])
def test_cleared_ranks_match_full_matrices_in_any_basis(name):
    # betti drops the columns of d_k at the pivots of d_(k-1); every rank must
    # still be the rank of the whole matrix, and no Betti number may move with
    # the basis
    g = corpus.algebra(name)
    moved = change_basis(g, _seeded_dense_basis(g.dim, name))
    assert any(x.denominator > 1 for x in moved.c.values())
    for make in (trivial_rep, adjoint_rep):
        dims = []
        for h in (g, moved):
            rep = make(h)
            report = betti(rep, 3)
            assert [d.rank_d for d in report.degrees] == \
                [rref(coboundary_matrix(rep, k)).rank for k in range(4)], (name, make)
            dims.append([d.dim_h for d in report.degrees])
        assert dims[0] == dims[1], (name, make)


@pytest.mark.parametrize("naive", [False, True])
def test_betti_clears_the_pivots_of_the_degree_below(monkeypatch, naive):
    # d^2 = 0 is proven by the identities, so d_k reaches rank without the
    # rank(d_(k-1)) rows at the pivots of d_(k-1); the naive complex, that of
    # the image representation, is cleared like the classical one
    g = sl2()
    rep = image_representation(adjoint_naive(g)) if naive else adjoint_rep(g)
    true_rank = cohomology_module.rank
    rows = []
    monkeypatch.setattr(cohomology_module, "rank",
                        lambda m, pivots=None: rows.append(m.rows) or true_rank(m, pivots))
    report = betti(rep, 3)
    ranks = [0] + [d.rank_d for d in report.degrees]
    assert rows == [d.dim_cochains - ranks[d.k] for d in report.degrees] == [3, 6, 21, 60]


def test_coboundary_columns_builds_the_named_columns(positive_algebras,
                                                    dense_rational_algebras):
    # the subset build is the full build restricted to the named columns
    rng = random.Random(15)
    for name, rep in _reps_for_kernel_checks(positive_algebras, dense_rational_algebras):
        for k in range(4):
            den, full = coboundary_columns(rep, k)
            everything = range(len(full))
            for skip in (frozenset(), frozenset(everything), frozenset({0, len(full) - 1}),
                         frozenset(j for j in everything if rng.random() < 0.5)):
                named = [j for j in everything if j not in skip]
                kept = [full[j] for j in named]
                assert coboundary_columns(rep, k, columns=named) == (den, kept), (name, k)


@pytest.mark.parametrize("rep", [adjoint_rep(sl2()), adjoint_rep(heisenberg3()),
                                 trivial_rep(omni_lie(1)), _fractional_rep()],
                         ids=["sl2/adjoint", "heis3/adjoint", "omni1/trivial", "fractional"])
def test_betti_builds_only_the_columns_it_ranks(monkeypatch, rep):
    # the columns at the pivots of d_(k-1) are never built
    built = _counting_columns(monkeypatch)
    report = betti(rep, 3)
    ranks = [0] + [d.rank_d for d in report.degrees]
    assert built == [d.dim_cochains - ranks[d.k] for d in report.degrees]


@pytest.mark.parametrize("rep, message", [
    (adjoint_rep(nonleibniz()), "input is not a Leibniz algebra; first witness at (0, 0, 0)"),
    (adjoint_rep(nonleibniz2()), "input is not a Leibniz algebra; first witness at (0, 0, 0)"),
    (bad_representation(), "input is not a representation; first witness at (0, 0)"),
], ids=["nonleibniz", "nonleibniz2", "rep_bad_L2"])
def test_betti_refuses_input_that_fails_its_identities(monkeypatch, rep, message):
    # clearing needs d^2 = 0, which the identities prove; input failing them
    # is refused, in the CLI's words, before any coboundary is built
    built = []
    monkeypatch.setattr(cohomology_module, "coboundary_columns",
                        lambda *args: built.append(args[1]))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        betti(rep, 3)
    assert built == []


@pytest.mark.parametrize("g", [nonleibniz(), nonleibniz2()], ids=["nonleibniz", "nonleibniz2"])
def test_comparisons_refuse_non_leibniz_input(g):
    # each entry point refuses in the CLI's words, the adjoint naive map too
    message = "^input is not a Leibniz algebra; first witness at \\(0, 0, 0\\)$"
    for call in (lambda: compare_trivial(g, 2), lambda: compare_adjoint(g, 2),
                 lambda: adjoint_naive(g)):
        with pytest.raises(ValueError, match=message):
            call()


def test_naive_from_rep_refuses_in_the_words_of_the_cli():
    with pytest.raises(ValueError,
                       match="^input is not a representation; first witness at \\(0, 0\\)$"):
        naive_from_rep(bad_representation())


def test_over_cap_betti_refuses_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(cohomology_module, "coboundary_columns",
                        lambda *args: built.append(args[1]))
    monkeypatch.setattr(algebra_module, "check_leibniz",
                        lambda g: built.append("check_leibniz"))
    # 2^14 = 16384 target rows in degree 12 fit under 20000, 32768 in degree 13 do not
    with pytest.raises(ResourceCapExceeded,
                       match="^cochain space of dimension 32768 exceeds cap 20000$"):
        betti(adjoint_rep(l2_algebra()), 13)
    with pytest.raises(ResourceCapExceeded,
                       match="^cochain space of dimension 81 exceeds cap 80$"):
        betti(adjoint_rep(heisenberg3()), 5, cap=80)
    with pytest.raises(ResourceCapExceeded,
                       match="^cochain space of dimension 9 exceeds cap 8$"):
        betti(adjoint_rep(heisenberg3()), 2, cap=8)
    assert built == []


def test_adjoint_h0_is_left_center_dim(positive_algebras):
    for name, g in positive_algebras.items():
        assert betti(adjoint_rep(g), 0).dim_h(0) == left_center(g).dim, name


def test_betti_report_internal_consistency(small_algebras):
    for name, g in small_algebras.items():
        report = betti(adjoint_rep(g), 2)
        for d in report.degrees:
            assert d.dim_ker == d.dim_cochains - d.rank_d
            assert d.dim_h >= 0
