"""The identity checks are sparse tensor contractions; these tests hold them
to the literal per-tuple formulas in ``oracles`` on inputs where every term
of every identity is nonzero somewhere, so that a single wrong index in one
contraction spec changes some report."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import oracles
from leibniz_kit import (
    LeibnizAlgebra,
    Lie2Algebra,
    Matrix,
    build_lie2,
    check_jacobiator_identities,
    check_leibniz,
    check_lie2_structure,
    omni_lie,
    square_in_center_check,
    verify_lie2,
)
from leibniz_kit import fixtures as corpus
from leibniz_kit.algebra import contract, dense, residual_witnesses, sparse

F = Fraction


def _random_tensor(rng: random.Random, shape: tuple):
    if not shape:
        return F(rng.randint(-3, 3), rng.randint(1, 3))
    return [_random_tensor(rng, shape[1:]) for _ in range(shape[0])]


def _perturbed_omni2() -> LeibnizAlgebra:
    c = [[list(v) for v in plane] for plane in omni_lie(2).c]
    c[0][1][2] += 1
    c[5][3][4] -= F(1, 2)
    return LeibnizAlgebra(6, c)


def _corrupted_lie2() -> Lie2Algebra:
    L = build_lie2(omni_lie(2))
    l3 = [[[list(v) for v in row] for row in plane] for plane in L.l3]
    l3[0][1][5][0] += 1
    l2_01 = [[list(v) for v in row] for row in L.l2_01]
    l2_01[0][1][0] -= F(1, 3)
    return Lie2Algebra(L.dim1, L.dim0, L.l1, L.l2_00, l2_01, L.l2_11, l3)


def _random_lie2(seed: int) -> Lie2Algebra:
    rng = random.Random(seed)
    n1, n0 = 2, 3
    return Lie2Algebra(n1, n0, Matrix.from_rows(_random_tensor(rng, (n0, n1))),
                       _random_tensor(rng, (n0, n0, n0)), _random_tensor(rng, (n0, n1, n1)),
                       dense({}, (n1, n1, n1)), _random_tensor(rng, (n0, n0, n0, n1)))


def _algebras(dense_rational_algebras) -> dict:
    out = {name: corpus.algebra(name)
           for name in corpus.positive_algebra_names() + corpus.negative_algebra_names()}
    out.update({f"dense-{name}": g for name, g in dense_rational_algebras.items()})
    out["perturbed-omni2"] = _perturbed_omni2()
    out["random-3"] = LeibnizAlgebra(3, _random_tensor(random.Random(7), (3, 3, 3)))
    return out


def assert_same_witnesses(new, old):
    """Same witnesses as the oracle, grouped by label in the oracle's label
    order and sorted by where within each label."""
    labels = list(dict.fromkeys(w.label for w in old.witnesses))
    expected = sorted(old.witnesses, key=lambda w: (labels.index(w.label), w.where))
    assert new.witnesses == tuple(expected)


def test_identity_checks_match_oracles(dense_rational_algebras):
    for name, g in _algebras(dense_rational_algebras).items():
        for check, oracle in ((check_leibniz, oracles.check_leibniz),
                              (square_in_center_check, oracles.square_in_center_check),
                              (check_jacobiator_identities,
                               oracles.check_jacobiator_identities)):
            new, old = check(g), oracle(g)
            assert new.holds == old.holds, (name, check.__name__)
            assert_same_witnesses(new, old)


def test_nonleibniz_inputs_fail_every_jacobiator_identity(dense_rational_algebras):
    # these inputs make the differential test above exercise every label
    for name in ("perturbed-omni2", "random-3"):
        g = _algebras(dense_rational_algebras)[name]
        labels = {w.label for w in check_jacobiator_identities(g).witnesses}
        assert labels == {"direct-vs-closed", "antisymmetry", "center", "ten-term"}, name


def test_lie2_construction_and_axioms_match_oracles(positive_algebras,
                                                    dense_rational_algebras):
    for name, g in {**positive_algebras, **dense_rational_algebras}.items():
        L = build_lie2(g)
        assert L == oracles.build_lie2(g), name
        new, old = verify_lie2(L), oracles.verify_lie2(L)
        assert new.passed == old.passed and new.all_pass, name
        assert check_lie2_structure(L).holds, name


@pytest.mark.parametrize("make", [_corrupted_lie2, lambda: _random_lie2(11)])
def test_broken_lie2_matches_oracles(make):
    L = make()
    new, old = verify_lie2(L), oracles.verify_lie2(L)
    assert new.passed == old.passed
    assert not new.all_pass
    assert_same_witnesses(new, old)
    assert [w.label for w in new.witnesses] == sorted(w.label for w in new.witnesses)
    new, old = check_lie2_structure(L), oracles.check_lie2_structure(L)
    assert new.holds == old.holds
    assert_same_witnesses(new, old)


def test_random_lie2_fails_every_axiom():
    assert not any(verify_lie2(_random_lie2(11)).passed.values())


def test_corrupted_lie2_keeps_axiom_b():
    # (b) reads l2_01 only on the center, which the corruption misses
    passed = verify_lie2(_corrupted_lie2()).passed
    assert passed == {"a": False, "b": True, "c": False, "d": False, "e": False}


def test_build_lie2_rejects_non_leibniz_like_oracle():
    g = _perturbed_omni2()
    with pytest.raises(ValueError, match="is not in the left center"):
        build_lie2(g)
    with pytest.raises(ValueError):
        oracles.build_lie2(g)


def test_contract_matrix_product_and_transpose():
    a = sparse([[1, 2], [0, 3]], 2)
    b = sparse([[F(1, 2), 0], [1, -1]], 2)
    assert contract([(1, "ij,jk->ik", a, b)]) == {(0, 0): F(5, 2), (0, 1): -2,
                                                 (1, 0): 3, (1, 1): -3}
    assert contract([(2, "ji->ij", a)]) == {(0, 0): 2, (1, 0): 4, (1, 1): 6}
    assert contract([(1, "ij->ij", a), (-1, "ij->ij", a)]) == {}
    assert contract([(F(1, 3), "ij,jk->ik", b, b)]) == {(0, 0): F(1, 12), (1, 0): F(-1, 6),
                                                      (1, 1): F(1, 3)}


def test_contract_sums_letters_missing_from_the_output():
    a = sparse([[1, 2], [3, 4]], 2)
    assert contract([(1, "ij->i", a)]) == {(0,): 3, (1,): 7}
    assert contract([(1, "i,j->ij", {(0,): 2}, {(1,): 5})]) == {(0, 1): 10}


@pytest.mark.parametrize("spec, operands", [("ij,jk->il", 2), ("ii->i", 1),
                                             ("ij,jk,kl->il", 3), ("ij->ij", 2)])
def test_contract_rejects_bad_specs(spec, operands):
    with pytest.raises(ValueError):
        contract([(1, spec, *[{}] * operands)])


def test_residual_witnesses_group_by_prefix_in_order():
    residual = {(1, 0, 1): F(2), (0, 2, 0): F(-1), (1, 0, 0): F(0), (0, 2, 1): F(3)}
    found = residual_witnesses(residual, 2, "x")
    assert [(w.where, w.defect) for w in found] == [((0, 2), (-1, 3)), ((1, 0), (0, 2))]


def test_sparse_and_dense_round_trip():
    t = _random_tensor(random.Random(3), (2, 3, 2))
    assert dense(sparse(t, 3), (2, 3, 2)) == tuple(tuple(map(tuple, p)) for p in t)
