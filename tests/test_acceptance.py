"""Acceptance suite: one test per criterion, every equality exact.

All arithmetic in the package is rational, so each criterion asserts
identity to zero (or integer equality), never closeness.  Run with

    pytest tests/test_acceptance.py -v -s

to see one PASS line with timing per criterion.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb

from oracles import (basis_rows, bracket, graded_bracket, is_zero, matmul, shuffles,
                     shuffles_by_filter, structure_cochain)
from leibniz_kit import (
    DEFAULT_CAP,
    LeibnizAlgebra,
    Representation,
    ResourceCapExceeded,
    adjoint_naive,
    adjoint_rep,
    betti,
    build_lie2,
    check_jacobiator_identities,
    check_leibniz,
    coboundary_matrix,
    cocycle_check,
    compare_adjoint,
    compare_trivial,
    conjugation_rep,
    dual_rep,
    graph_rep_cohomology,
    image_representation,
    left_center,
    maurer_cartan_check,
    naive_from_rep,
    omni_lie,
    right_action_cochain,
    tautological_rep,
    trivial_naive_rep,
    trivial_naive_space,
    trivial_rep,
    verify_lie2,
)
from leibniz_kit import fixtures as corpus
from leibniz_kit.algebra import residual_witnesses
from leibniz_kit.cohomology import maurer_cartan_residual
from leibniz_kit.fixtures import graph_for

F = Fraction
E = lambda n, i: [F(j == i) for j in range(n)]


@contextmanager
def criterion(number: int, budget_s: float, label: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s / budget {budget_s}s) - {label}")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def _positives():
    return {name: corpus.algebra(name) for name in corpus.positive_algebra_names()}


def _negatives():
    return {name: corpus.algebra(name) for name in corpus.negative_algebra_names()}


def test_criterion_1_leibniz_validity():
    with criterion(1, 1.0, "Leibniz validity on the whole corpus"):
        for name, g in _positives().items():
            assert check_leibniz(g).holds, name
        for name, g in _negatives().items():
            report = check_leibniz(g)
            assert not report.holds, name
            assert report.witnesses, name
            w = report.witnesses[0]
            print(f"  negative fixture {name}: witness at {w.where}, defect {w.defect}")


def test_criterion_2_jacobiator_identities():
    with criterion(2, 5.0, "Jacobiator: closed form, centrality, ten-term "
                           "identity, antisymmetry on all basis tuples"):
        for name, g in _positives().items():
            report = check_jacobiator_identities(g)
            assert report.holds, (name, report.witnesses[:2])


def test_criterion_3_lie2_axioms():
    with criterion(3, 5.0, "two-term algebra axioms (a)-(e) for every fixture"):
        for name, g in _positives().items():
            report = verify_lie2(build_lie2(g))
            assert report.holds, (name, report.witnesses[:2])
        omni_l3 = build_lie2(omni_lie(2)).l3
        assert any(omni_l3.values()), \
            "the omni fixture must exercise a nonzero ternary bracket"


def _left_only(rep: Representation) -> Representation:
    return Representation(rep.algebra, rep.vdim, rep.l, {})


def _square_products(rep: Representation) -> tuple[int, int]:
    """Check d_{k+1} d_k = 0 for k = 0..3 wherever the cap admits both
    matrices; returns (checked, capped) counts."""
    mats = []
    for k in range(5):
        try:
            mats.append(coboundary_matrix(rep, k, DEFAULT_CAP))
        except ResourceCapExceeded:
            mats.append(None)
    checked = capped = 0
    for k in range(4):
        low, high = mats[k], mats[k + 1]
        if low is None or high is None:
            capped += 1
            continue
        assert is_zero(matmul(high, low)), f"d^2 != 0 at degree {k}"
        checked += 1
    return checked, capped


def test_criterion_4_complex_property():
    with criterion(4, 30.0, "d^2 = 0 for trivial/adjoint/dual/conjugation and "
                            "for naive complexes, degrees up to 3"):
        total = capped_total = 0
        for name, g in _positives().items():
            ad = adjoint_rep(g)
            reps = {
                "trivial": trivial_rep(g),
                "adjoint": ad,
                "dual": dual_rep(_left_only(ad)),
                "conjugation": conjugation_rep(_left_only(ad)),
            }
            for rep_name, rep in reps.items():
                checked, capped = _square_products(rep)
                total += checked
                capped_total += capped

            naive_reps = [adjoint_naive(g), naive_from_rep(ad)]
            space = trivial_naive_space(g)
            if space.dim:
                naive_reps.append(trivial_naive_rep(g, space.basis[0]))
            for rho in naive_reps:
                checked, capped = _square_products(image_representation(rho))
                total += checked
                capped_total += capped
        print(f"  products checked: {total}, refused by the resource cap: {capped_total}")
        assert total > 0


def test_criterion_5_graded_bracket_equivalence():
    with criterion(5, 5.0, "self-bracket vanishes exactly for Leibniz tensors; "
                           "matches the trilinear expansion, the Leibniz residual "
                           "and the Maurer-Cartan residual everywhere"):
        cases = dict(_positives())
        for name, g in cases.items():
            alpha = structure_cochain(g)
            assert graded_bracket(alpha, alpha).is_zero(), name
        for name, g in _negatives().items():
            alpha = structure_cochain(g)
            assert not graded_bracket(alpha, alpha).is_zero(), name
        for name, g in {**cases, **_negatives()}.items():
            n = g.dim
            alpha = structure_cochain(g)
            squared = graded_bracket(alpha, alpha)
            for i in range(n):
                x = E(n, i)
                for j in range(n):
                    y = E(n, j)
                    for k in range(n):
                        z = E(n, k)
                        expected = [
                            2 * (a - b + c) for a, b, c in zip(
                                bracket(g, bracket(g, x, y), z),
                                bracket(g, x, bracket(g, y, z)),
                                bracket(g, y, bracket(g, x, z)))
                        ]
                        assert list(squared.value_at((i, j, k))) == expected, name
            # with zero structure the Maurer-Cartan residual of alpha is
            # -[alpha, alpha]/2, which is the Leibniz residual of g
            leibniz = check_leibniz(g).witnesses
            mc = residual_witnesses(maurer_cartan_residual(LeibnizAlgebra.abelian(n), g.c),
                                    n, "leibniz")
            assert tuple(mc) == leibniz, name
            defects = {w.where: w.defect for w in leibniz}
            for where, value in zip(itertools.product(range(n), repeat=3), squared.values):
                assert value == tuple(-2 * x for x in defects.get(where, (0,) * n)), name


def test_criterion_6_maurer_cartan():
    with criterion(6, 10.0, "d rbar = [rbar, rbar]/2 and the bracket deformation, "
                            "adjoint actions of L2, heis3, sl2"):
        for name in ("L2", "heis3", "sl2"):
            g = corpus.algebra(name)
            report = maurer_cartan_check(g, adjoint_rep(g))
            assert report.holds, (name, report.witnesses[:2])


def test_criterion_7_right_action_cocycle():
    with criterion(7, 5.0, "the right action is a 1-cocycle in the conjugation "
                           "representation, all fixtures"):
        for name, g in _positives().items():
            ad = adjoint_rep(g)
            conj = conjugation_rep(_left_only(ad))
            assert cocycle_check(conj, right_action_cochain(ad)), name


def test_criterion_8_cohomology_comparisons():
    with criterion(8, 60.0, "naive vs classical dimensions in degrees 1..2 "
                            "(trivial, adjoint, graph representations)"):
        for name in ("abelian2", "L2", "heis3"):
            g = corpus.algebra(name)
            ct = compare_trivial(g, 2)
            assert ct.all_equal, (name, ct.rows)
            ca = compare_adjoint(g, 2)
            assert ca.all_equal, (name, ca.rows)
            assert ca.side_checks_ok, name

        sl2 = corpus.algebra("sl2")
        branch = compare_trivial(sl2, 2)
        assert branch.all_equal
        for row in branch.rows:
            if row.k >= 1:
                assert row.dim_naive == 0 and row.dim_classical == 0

        for name in ("L2", "heis3"):
            phi = graph_for(corpus.algebra(name))
            rho = tautological_rep(phi)
            report = graph_rep_cohomology(rho, phi, 2)
            assert report.all_equal, (name, report.rows)


def test_criterion_9_pinned_numbers():
    with criterion(9, 30.0, "analytically pinned dimensions"):
        for n in (1, 2, 3):
            g = LeibnizAlgebra.abelian(n)
            report = betti(trivial_rep(g), 3)
            assert report.dim_h(0) == 1
            for k in (1, 2, 3):
                assert report.dim_h(k) == n ** k, (n, k)

        for name, g in _positives().items():
            assert betti(adjoint_rep(g), 0).dim_h(0) == left_center(g).dim, name

        z = left_center(omni_lie(2))
        assert z.dim == 2
        g = omni_lie(2)
        for v in basis_rows(z):
            assert all(not c for c in v[:4]), "center vector has a gl component"
            for j in range(g.dim):
                assert all(not c for c in bracket(g, v, E(g.dim, j)))


def test_criterion_10_shuffle_oracle():
    with criterion(10, 1.0, "shuffle generator vs permutation-filter oracle"):
        for k, q in ((1, 1), (2, 1), (1, 2), (2, 2)):
            fast = sorted(shuffles(k, q))
            slow = sorted(shuffles_by_filter(k, q))
            assert fast == slow, (k, q)
            assert len(fast) == comb(k + q, k), (k, q)
