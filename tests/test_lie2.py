from __future__ import annotations

from fractions import Fraction

import pytest

from oracles import (axiom_verdicts, basis_rows, bracket, check_lie2_structure, column,
                     contains, jacobiator_closed, jacobiator_direct, matrix)
from leibniz_kit import (
    LeibnizAlgebra,
    build_lie2,
    check_jacobiator_identities,
    left_center,
    omni_lie,
    skew_bracket,
    verify_lie2,
)
from leibniz_kit.algebra import dense
from leibniz_kit.fixtures import heisenberg3, l2_algebra, nonleibniz, sl2
from leibniz_kit.lie2 import Lie2Algebra

F = Fraction
E = lambda n, i: [F(j == i) for j in range(n)]


def test_skew_bracket_of_lie_algebra_is_its_bracket():
    g = heisenberg3()
    assert skew_bracket(g) == g.c


def test_skew_bracket_of_l2_vanishes():
    assert skew_bracket(l2_algebra()) == {}


def test_skew_bracket_omni_matches_half_difference():
    # on gl(V) (+) V the skew bracket is [A,B] + (Av - Bu)/2
    m = 2
    g = omni_lie(m)
    n = g.dim
    c, s = dense(g.c, (n,) * 3), dense(skew_bracket(g), (n,) * 3)
    for p in range(n):
        for q in range(n):
            expected = [F(1, 2) * (c[p][q][k] - c[q][p][k]) for k in range(n)]
            assert list(s[p][q]) == expected


def test_jacobiator_zero_for_lie_algebras():
    for g in (heisenberg3(), sl2(), LeibnizAlgebra.abelian(2)):
        n = g.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert all(not c for c in jacobiator_direct(g, E(n, i), E(n, j), E(n, k)))


def test_jacobiator_zero_for_l2():
    g = l2_algebra()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert all(not c for c in jacobiator_closed(g, E(2, i), E(2, j), E(2, k)))


def test_jacobiator_omni2_pinned_value():
    # x = E11, y = E12, z = e2 in gl(2) (+) Q^2; the closed form gives
    # ([ [z,y],x ] + [ [x,z],y ] + [ [y,x],z ])/4 = [E12,E11] e2 / 4 = -e1/4
    g = omni_lie(2)
    x, y, z = E(6, 0), E(6, 1), E(6, 5)
    expected = [F(0), F(0), F(0), F(0), F(-1, 4), F(0)]
    assert jacobiator_direct(g, x, y, z) == expected
    assert jacobiator_closed(g, x, y, z) == expected


def test_jacobiator_direct_equals_closed_everywhere(positive_algebras):
    for name, g in positive_algebras.items():
        n = g.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    d = jacobiator_direct(g, E(n, i), E(n, j), E(n, k))
                    c = jacobiator_closed(g, E(n, i), E(n, j), E(n, k))
                    assert d == c, (name, i, j, k)


def test_jacobiator_repeated_arguments_vanish():
    g = omni_lie(2)
    n = g.dim
    for i in range(n):
        for j in range(n):
            assert all(not c for c in jacobiator_closed(g, E(n, i), E(n, i), E(n, j)))
            assert all(not c for c in jacobiator_closed(g, E(n, i), E(n, j), E(n, j)))
            assert all(not c for c in jacobiator_closed(g, E(n, i), E(n, j), E(n, i)))


def test_jacobiator_identities_all_fixtures(positive_algebras):
    for name, g in positive_algebras.items():
        assert check_jacobiator_identities(g).holds, name


def test_build_lie2_l2_fixture():
    L = build_lie2(l2_algebra())
    assert (L.dim1, L.dim0) == (1, 2)
    assert column(matrix(L.l1), 0) == [F(0), F(1)]          # center basis is e2
    assert L.l2_00 == L.l2_01 == L.l3 == {}


def test_build_lie2_lie_algebra_keeps_bracket():
    # antisymmetric inputs skew-symmetrize to themselves and have no Jacobiator
    for g in (sl2(), heisenberg3(), LeibnizAlgebra.abelian(2)):
        L = build_lie2(g)
        assert L.dim1 == left_center(g).dim
        assert L.l2_00 == g.c
        assert L.l3 == {}


def test_build_lie2_omni1_half_action():
    # gl(Q) (+) Q: center is the V part; l2 on degree 0 is half the action
    g = omni_lie(1)
    L = build_lie2(g)
    assert (L.dim1, L.dim0) == (1, 2)
    assert list(column(matrix(L.l1), 0)) == [F(0), F(1)]
    assert L.l2_00 == {(0, 1, 1): F(1, 2), (1, 0, 1): F(-1, 2)}
    assert L.l3 == {}
    # l2 of the degree-0 matrix unit with the central vector is half of it
    assert L.l2_01 == {(0, 0, 0): F(1, 2)}


def test_build_lie2_center_dimension_matches(positive_algebras):
    for name, g in positive_algebras.items():
        L = build_lie2(g)
        assert L.dim1 == left_center(g).dim, name
        assert check_lie2_structure(L).holds, name


def test_verify_lie2_accepts_all_fixtures(positive_algebras):
    for name, g in positive_algebras.items():
        report = verify_lie2(build_lie2(g))
        assert report.holds, (name, report.witnesses[:2])


def test_omni2_has_nonzero_l3():
    L = build_lie2(omni_lie(2))
    assert L.l3 and all(L.l3.values())


def test_lie_algebra_with_trivial_degree_one_piece_passes():
    g = sl2()
    L = Lie2Algebra(0, 3, {}, g.c, {}, {})
    assert verify_lie2(L).holds


def test_empty_l2_01_is_refused_when_degree_zero_is_not():
    # l2_01 holds one (empty) plane per degree-0 basis element; in the
    # sparse form its shape (3, 0, 0) has no index, so any entry is refused
    g = sl2()
    l3 = tuple(tuple(tuple(() for _ in range(3)) for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError, match="l2_01"):
        Lie2Algebra(0, 3, {}, g.c, (), l3)
    with pytest.raises(ValueError, match="l2_01"):
        Lie2Algebra(0, 3, {}, g.c, {(0, 0, 0): 1}, {})


def test_zeroing_l3_breaks_axiom_c():
    L = build_lie2(omni_lie(2))
    broken = Lie2Algebra(L.dim1, L.dim0, L.l1, L.l2_00, L.l2_01, dict.fromkeys(L.l3.keys(), F(0)))
    assert broken.l3 == {}
    report = verify_lie2(broken)
    assert not axiom_verdicts(report)["c"]
    assert not report.holds


def test_build_lie2_rejects_non_leibniz_input():
    with pytest.raises(ValueError):
        build_lie2(nonleibniz())


def test_half_bracket_into_center_stays_in_center(positive_algebras):
    # the mixed l2 block is well defined precisely because Z(g) is an ideal
    for name, g in positive_algebras.items():
        z = left_center(g)
        n = g.dim
        for zv in basis_rows(z):
            for i in range(n):
                v = [F(1, 2) * c for c in bracket(g, E(n, i), zv)]
                assert contains(z, v), name
